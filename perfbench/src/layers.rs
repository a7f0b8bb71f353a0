//! Per-layer metrics read back from traced runs: the counters every
//! process already keeps, the merged flight events, and the critical-
//! path profile computed exactly as `insitu launch --profile-out` does
//! (`merge_traces` + `ProfileReport::analyze`).

use crate::run::{RunSample, Traced};
use crate::stats::{iter_ms, median, overhead_pct, percentile, ratio, Report};
use crate::workload::{Mode, Workload};
use insitu::obs::{EventKind, ProfileReport};

/// Shared-memory fallback share: fallbacks over everything the shm
/// plane was offered (0 when nothing was).
pub fn fallback_ratio(shm_frames: u64, fallbacks: u64) -> f64 {
    ratio(fallbacks as f64, (shm_frames + fallbacks) as f64)
}

/// Push the traced-run metrics into `report`; returns the checks that
/// failed on the traced runs.
pub fn traced_metrics(
    w: &Workload,
    untraced: &[RunSample],
    traced: &[RunSample],
    report: &mut Report,
) -> Vec<String> {
    let mut failures = Vec::new();
    let iters = |samples: &[RunSample]| {
        median(
            &samples
                .iter()
                .map(|s| iter_ms(s.wall_s, s.setup_s, w.iterations))
                .collect::<Vec<_>>(),
        )
    };
    report.push(
        "obs.recording_overhead_pct",
        overhead_pct(iters(traced), iters(untraced)),
        "%",
    );
    let all = untraced.iter().chain(traced);
    report.push(
        "shm.leaked_segments",
        all.clone().map(|s| s.leaked_segments).sum::<u64>() as f64,
        "count",
    );
    report.push(
        "run.leaked_procs",
        all.map(|s| s.leaked_procs).sum::<u64>() as f64,
        "count",
    );

    // Counters of the traced run with the median iteration time.
    let mut by_time: Vec<&RunSample> = traced.iter().filter(|s| s.traced.is_some()).collect();
    by_time.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let empty = Traced::default();
    let (t, inter_app) = match by_time.get(by_time.len() / 2) {
        Some(s) => (s.traced.as_ref().unwrap_or(&empty), s.inter_app_bytes),
        None => {
            failures.push("no traced run completed".to_string());
            (&empty, 0)
        }
    };
    report.push("workflow.inter_app_bytes", inter_app as f64, "B");
    report.push("net.bytes_sent", t.counter("net.bytes_sent") as f64, "B");
    for (name, counter) in [
        ("net.frames", "net.frames"),
        ("net.pull_frames_hub", "net.pull_frames_hub"),
        ("net.reconnects", "net.reconnects"),
        ("net.link_stalls", "net.link_stalls"),
        ("shm.frames", "net.shm_frames"),
        ("shm.fallbacks", "net.shm_fallbacks"),
        ("sub.pushes", "sub.pushes"),
        ("sub.deliveries", "sub.deliveries"),
        ("sub.lagged", "sub.lagged"),
        ("sub.push_drops", "sub.push_drops"),
    ] {
        report.push(name, t.counter(counter) as f64, "count");
    }
    report.push(
        "shm.fallback_ratio",
        fallback_ratio(t.counter("net.shm_frames"), t.counter("net.shm_fallbacks")),
        "ratio",
    );
    let hits = t.counter("cods.schedule_cache.hits");
    report.push(
        "cods.schedule_cache_hit_ratio",
        ratio(
            hits as f64,
            (hits + t.counter("cods.schedule_cache.misses")) as f64,
        ),
        "ratio",
    );
    report.push(
        "cods.view_hit_ratio",
        ratio(
            t.counter("cods.view_hits") as f64,
            t.counter("cods.get") as f64,
        ),
        "ratio",
    );

    let waits: Vec<f64> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Pull { wait_us } => Some(wait_us as f64),
            _ => None,
        })
        .collect();
    report.push("dart.pull_wait_us.p50", percentile(&waits, 0.50), "us");
    report.push("dart.pull_wait_us.p99", percentile(&waits, 0.99), "us");

    report.push("obs.events", t.events.len() as f64, "count");
    report.push("obs.dropped_spans", t.dropped_spans as f64, "count");
    let profile = ProfileReport::analyze(&t.events, t.dropped_events);
    let totals = profile.totals();
    report.push("profile.schedule_us", totals.schedule_us, "us");
    report.push("profile.shm_us", totals.shm_us, "us");
    report.push("profile.rdma_us", totals.rdma_us, "us");
    report.push("profile.wait_us", totals.wait_us, "us");
    report.push(
        "profile.wait_share",
        ratio(totals.wait_us, totals.total_us()),
        "ratio",
    );

    if w.mode == Mode::InProcess && t.counter("sub.deliveries") == 0 {
        failures.push("traced fan-out run delivered no pushes".to_string());
    }
    if matches!(w.mode, Mode::Distributed { p2p: true, .. })
        && t.counter("net.pull_frames_hub") != 0
    {
        failures.push("traced p2p run relayed PullData through the hub".to_string());
    }
    failures
}
