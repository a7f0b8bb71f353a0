//! One timed run of a workload, driven through the public API only:
//! `insitu::serve` in the harness with re-executed `insitu::join`
//! children for the distributed workloads, `run_threaded_configured`
//! for the in-process one. Set-up, wall time, CPU and peak RSS are
//! taken from outside; the traced variant also keeps the counters and
//! flight events the program already emits.

use crate::sys;
use crate::workload::{Mode, Workload};
use insitu::fabric::{LedgerSnapshot, TrafficClass};
use insitu::obs::{merge_traces, Event, FlightRecorder};
use insitu::{
    map_scenario, run_modeled, run_threaded, run_threaded_configured, serve, MappingStrategy,
    Scenario, ServeOptions, ThreadedConfig,
};
use insitu_cli::build_scenario;
use insitu_telemetry::Recorder;
use insitu_util::shm;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every replica's get deadline: a stuck piece fails the run well
/// inside the benchmark's own 180 s limit (waves time out at 4x this
/// plus 60 s).
const GET_TIMEOUT: Duration = Duration::from_secs(20);
/// How long joiners get to connect, and to exit after the run.
const JOINER_DEADLINE: Duration = Duration::from_secs(30);

/// What the traced variant of a run keeps.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Counters summed over every process of the run.
    pub counters: BTreeMap<String, u64>,
    /// Flight events, merged across processes.
    pub events: Vec<Event>,
    /// Flight events dropped at the bounded logs.
    pub dropped_events: u64,
    /// Telemetry spans dropped (`trace.dropped_spans`).
    pub dropped_spans: u64,
}

impl Traced {
    /// A counter's run total (0 when never ticked).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The measurements and checks of one run.
#[derive(Clone, Debug, Default)]
pub struct RunSample {
    /// Start of the run until every process is registered, seconds.
    pub setup_s: f64,
    /// Start to finish of the run, seconds.
    pub wall_s: f64,
    /// User + system CPU of every process of the run, seconds.
    pub cpu_s: f64,
    /// Sum of the run's per-process resident-set high-water marks, MiB.
    pub peak_rss_mib: f64,
    /// Consumer gets + subscriber takes the workflow performs.
    pub attempted: u64,
    /// Failed output checks; empty for a correct run.
    pub failures: Vec<String>,
    /// The run's (merged) transfer ledger, checked against the
    /// reference after the timed runs.
    pub ledger: Option<LedgerSnapshot>,
    /// Inter-app bytes the ledger accounted (the amount of work).
    pub inter_app_bytes: u64,
    /// Coupled and halo bytes `[inter-app shm, inter-app net, intra-app
    /// shm, intra-app net]`: what the in-process workload checks
    /// against the modeled executor.
    pub coupled: [u64; 4],
    /// Joiner processes still alive after the run (killed and reaped).
    pub leaked_procs: u64,
    /// `/dev/shm` segments of the run's processes left behind (removed).
    pub leaked_segments: u64,
    /// Counters and events, for traced runs.
    pub traced: Option<Traced>,
}

/// Consumer gets plus subscriber takes `scenario` performs: one per
/// consumer rank per iteration, one per subscriber rank per on-stride
/// version.
pub fn expected_ops(scenario: &Scenario) -> u64 {
    let mut ops = 0;
    for c in &scenario.couplings {
        for &app in &c.consumer_apps {
            ops += scenario.decomposition(app).num_ranks() * scenario.iterations;
        }
    }
    for s in &scenario.subscriptions {
        let versions = scenario.iterations.div_ceil(s.every_k.max(1));
        ops += scenario.decomposition(s.subscriber_app).num_ranks() * versions;
    }
    ops
}

fn coupled_split(ledger: &LedgerSnapshot) -> [u64; 4] {
    let (inter, intra) = (TrafficClass::InterApp, TrafficClass::IntraApp);
    [
        ledger.shm_bytes(inter),
        ledger.network_bytes(inter),
        ledger.shm_bytes(intra),
        ledger.network_bytes(intra),
    ]
}

/// Run `workload` once with the workflow text for `seed`. An untraced
/// in-process run executes in a fresh child process, so its CPU time
/// and peak RSS are that run's alone, not the harness's history.
pub fn run_once(workload: &Workload, seed: u64, traced: bool) -> RunSample {
    let (dag, cfg) = (workload.dag(), workload.config(seed));
    match workload.mode {
        Mode::Distributed { p2p, shm } => run_distributed(&dag, &cfg, p2p, shm, traced),
        Mode::InProcess if traced => run_in_process(&dag, &cfg, true),
        Mode::InProcess => run_in_child(workload, seed),
    }
}

/// The child half of [`run_once`] for untraced in-process runs: run
/// once and print the sample as `key value` lines on stdout.
pub fn child_main(workload: &Workload, seed: u64) {
    let s = run_in_process(&workload.dag(), &workload.config(seed), false);
    println!("setup_s {:?}", s.setup_s);
    println!("wall_s {:?}", s.wall_s);
    println!("attempted {}", s.attempted);
    println!("inter_app_bytes {}", s.inter_app_bytes);
    let c = s.coupled;
    println!("coupled {} {} {} {}", c[0], c[1], c[2], c[3]);
    for f in &s.failures {
        println!("failure {f}");
    }
}

fn run_in_child(workload: &Workload, seed: u64) -> RunSample {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed_run(format!("cannot locate own executable: {e}")),
    };
    let child = Command::new(exe)
        .args([
            "--run-child",
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return failed_run(format!("cannot spawn run child: {e}")),
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = std::io::Read::read_to_string(&mut stdout, &mut out);
    }
    let (exit, _) = sys::reap_or_kill(&mut child, Instant::now() + JOINER_DEADLINE);
    let mut s = RunSample {
        cpu_s: exit.cpu_s,
        peak_rss_mib: exit.peak_rss_mib,
        ..RunSample::default()
    };
    let mut seen = 0;
    for line in out.lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        let secs = |v: &str| v.parse::<f64>().unwrap_or(0.0);
        let count = |v: &str| v.parse::<u64>().unwrap_or(0);
        seen += 1;
        match key {
            "setup_s" => s.setup_s = secs(value),
            "wall_s" => s.wall_s = secs(value),
            "attempted" => s.attempted = count(value),
            "inter_app_bytes" => s.inter_app_bytes = count(value),
            "coupled" => {
                for (slot, v) in s.coupled.iter_mut().zip(value.split(' ')) {
                    *slot = count(v);
                }
            }
            "failure" => s.failures.push(value.to_string()),
            _ => seen -= 1,
        }
    }
    if exit.code != Some(0) || seen < 5 {
        s.failures
            .push(format!("run child exited with {:?}", exit.code));
    }
    s
}

fn run_in_process(dag: &str, cfg: &str, traced: bool) -> RunSample {
    let (recorder, flight) = if traced {
        (Recorder::enabled(), FlightRecorder::enabled())
    } else {
        (Recorder::disabled(), FlightRecorder::disabled())
    };
    let config = ThreadedConfig {
        get_timeout: GET_TIMEOUT,
        flight: flight.clone(),
        ..ThreadedConfig::default()
    };
    let cpu0 = sys::self_cpu_s();
    let t0 = Instant::now();
    let scenario = match build_scenario(dag, cfg) {
        Ok(s) => s,
        Err(e) => return failed_run(format!("workflow text rejected: {e}")),
    };
    std::hint::black_box(map_scenario(&scenario, MappingStrategy::DataCentric));
    let setup_s = t0.elapsed().as_secs_f64();
    let outcome =
        run_threaded_configured(&scenario, MappingStrategy::DataCentric, &recorder, &config);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::self_cpu_s() - cpu0;

    let attempted = expected_ops(&scenario);
    let mut failures = Vec::new();
    if outcome.verify_failures != 0 {
        failures.push(format!("{} cell mismatches", outcome.verify_failures));
    }
    for (app, rank, e) in &outcome.errors {
        failures.push(format!("task error app{app}/r{rank}: {e}"));
    }
    if outcome.reports.len() as u64 != attempted {
        failures.push(format!(
            "{} of {attempted} gets completed",
            outcome.reports.len()
        ));
    }
    let traced = traced.then(|| {
        let snap = recorder.metrics_snapshot();
        Traced {
            counters: snap.counters,
            events: flight.snapshot(),
            dropped_events: flight.dropped(),
            dropped_spans: recorder.trace_dropped(),
        }
    });
    RunSample {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mib: sys::self_peak_rss_mib(),
        attempted,
        failures,
        inter_app_bytes: outcome.ledger.total_bytes(TrafficClass::InterApp),
        coupled: coupled_split(&outcome.ledger),
        traced,
        ..RunSample::default()
    }
}

fn failed_run(why: String) -> RunSample {
    RunSample {
        failures: vec![why],
        ..RunSample::default()
    }
}

fn run_distributed(dag: &str, cfg: &str, p2p: bool, use_shm: bool, traced: bool) -> RunSample {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed_run(format!("cannot locate own executable: {e}")),
    };
    // Joiner count is a property of the workflow, not of the run:
    // mapped once, outside the timing window.
    let nodes = match build_scenario(dag, cfg) {
        Ok(s) => map_scenario(&s, MappingStrategy::DataCentric).machine.nodes,
        Err(e) => return failed_run(format!("workflow text rejected: {e}")),
    };

    let cpu0 = sys::self_cpu_s();
    let t0 = Instant::now();
    // The hub always records: its `workflow.register` span closes the
    // set-up window, and `net.pull_frames_hub` is checked on p2p runs.
    // Its trace epoch is taken here, so span times are run times.
    let recorder = Recorder::enabled();
    let epoch_s = t0.elapsed().as_secs_f64();
    let scenario = match build_scenario(dag, cfg) {
        Ok(s) => s,
        Err(e) => return failed_run(format!("workflow text rejected: {e}")),
    };
    let bound = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr().map(|a| (l, a)));
    let (listener, addr) = match bound {
        Ok(bound) => bound,
        Err(e) => return failed_run(format!("cannot bind loopback: {e}")),
    };
    let mut children = Vec::new();
    let mut failures = Vec::new();
    for node in 0..nodes {
        let spawned = Command::new(&exe)
            .args([
                "--join",
                &addr.to_string(),
                "--node",
                &node.to_string(),
                "--shm",
                if use_shm { "1" } else { "0" },
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                failures.push(format!("cannot spawn joiner {node}: {e}"));
                break;
            }
        }
    }
    let opts = ServeOptions {
        strategy: MappingStrategy::DataCentric,
        get_timeout: GET_TIMEOUT,
        timeout: JOINER_DEADLINE,
        recorder: recorder.clone(),
        p2p,
        shm: use_shm,
        ..ServeOptions::default()
    };
    let served = if failures.is_empty() {
        serve(&listener, dag, cfg, &scenario, &opts)
    } else {
        Err("not served".to_string())
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(listener);

    // Hygiene: every joiner must exit 0 on its own; stragglers are
    // counted, killed and reaped so they cannot skew the next run.
    let mut leaked_procs = 0;
    let mut child_cpu_s = 0.0;
    let mut child_rss_mib = 0.0;
    let deadline = Instant::now() + JOINER_DEADLINE;
    let mut leaked_segments = 0;
    for (node, mut child) in children.into_iter().enumerate() {
        let (exit, killed) = sys::reap_or_kill(&mut child, deadline);
        leaked_procs += killed as u64;
        // A joiner unlinks its segments on a clean exit; whatever of
        // its own is left now leaked.
        leaked_segments += shm::reap_pid(&shm::segment_dir(), child.id()) as u64;
        if exit.code != Some(0) {
            failures.push(format!("joiner {node} exited with {:?}", exit.code));
        }
        child_cpu_s += exit.cpu_s;
        child_rss_mib += exit.peak_rss_mib;
    }
    let cpu_s = sys::self_cpu_s() - cpu0 + child_cpu_s;
    let peak_rss_mib = sys::self_peak_rss_mib() + child_rss_mib;

    let attempted = expected_ops(&scenario);
    let setup_s = recorder
        .trace_sink()
        .and_then(|sink| {
            sink.snapshot()
                .into_iter()
                .find(|s| s.name == "workflow.register")
                .map(|s| epoch_s + (s.start_us + s.duration_us) as f64 * 1e-6)
        })
        .unwrap_or(wall_s);
    let outcome = match served {
        Ok(outcome) => outcome,
        Err(e) => {
            failures.push(format!("serve failed: {e}"));
            return RunSample {
                setup_s,
                wall_s,
                cpu_s,
                peak_rss_mib,
                attempted,
                failures,
                leaked_procs,
                leaked_segments,
                ..RunSample::default()
            };
        }
    };
    if outcome.verify_failures != 0 {
        failures.push(format!("{} cell mismatches", outcome.verify_failures));
    }
    for e in &outcome.errors {
        failures.push(format!("task error: {e}"));
    }
    if outcome.gets != attempted {
        failures.push(format!("{} of {attempted} gets completed", outcome.gets));
    }
    let hub = recorder.metrics_snapshot();
    if p2p && hub.counter("net.pull_frames_hub") != 0 {
        failures.push(format!(
            "p2p run relayed {} PullData frame(s) through the hub",
            hub.counter("net.pull_frames_hub")
        ));
    }
    let traced = traced.then(|| {
        let mut counters = hub.counters.clone();
        for t in &outcome.telemetry {
            for (k, v) in &t.counters {
                *counters.entry(k.clone()).or_insert(0) += v;
            }
        }
        let merged = merge_traces(outcome.telemetry.clone());
        Traced {
            counters,
            events: merged.events,
            dropped_events: merged.dropped,
            dropped_spans: merged.dropped_spans + hub.counter("trace.dropped_spans"),
        }
    });
    RunSample {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mib,
        attempted,
        failures,
        inter_app_bytes: outcome.ledger.total_bytes(TrafficClass::InterApp),
        coupled: coupled_split(&outcome.ledger),
        ledger: Some(outcome.ledger),
        leaked_procs,
        leaked_segments,
        traced,
    }
}

/// Check every sample's ledger against the workload's reference,
/// computed once here, outside every timing window: the single-process
/// threaded run for the distributed workloads (byte-identical merged
/// ledger), the modeled executor for the in-process one (the coupled
/// and halo byte split the chaos harness checks).
pub fn check_ledgers<'a>(
    workload: &Workload,
    seed: u64,
    samples: impl IntoIterator<Item = &'a mut RunSample>,
) {
    let Ok(scenario) = build_scenario(&workload.dag(), &workload.config(seed)) else {
        return;
    };
    match workload.mode {
        Mode::Distributed { .. } => {
            let expected = run_threaded(&scenario, MappingStrategy::DataCentric).ledger;
            for s in samples {
                if let Some(ledger) = &s.ledger {
                    if *ledger != expected {
                        s.failures.push(format!(
                            "merged ledger differs from the single-process run \
                             ({} vs {} inter-app bytes)",
                            ledger.total_bytes(TrafficClass::InterApp),
                            expected.total_bytes(TrafficClass::InterApp)
                        ));
                    }
                }
            }
        }
        Mode::InProcess => {
            let expected =
                coupled_split(&run_modeled(&scenario, MappingStrategy::DataCentric).ledger);
            for s in samples {
                if s.coupled != expected {
                    s.failures.push(format!(
                        "coupled/halo shm+net bytes {:?} differ from the modeled {expected:?}",
                        s.coupled
                    ));
                }
            }
        }
    }
}
