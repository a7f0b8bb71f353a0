//! `perfbench`: run one workload for a fixed time, check its outputs and
//! print one JSON result line (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs; `--trace
//! 1` alternates untraced and traced runs and prints the per-layer
//! metrics. The binary re-executes itself as each joiner process
//! (`--join`), so untraced joiners run with recording off.

use insitu::JoinOptions;
use insitu_cli::build_scenario;
use insitu_perfbench::run::{check_ledgers, run_once, RunSample};
use insitu_perfbench::stats::{iqr_share, iter_ms, median, quartiles, ratio, Report};
use insitu_perfbench::workload::{by_name, Workload, WORKLOADS};
use insitu_perfbench::{layers, probes};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed runs a measurement reports, however long they take.
const MIN_RUNS: usize = 3;
/// No new run starts after this long, so one invocation always ends
/// inside 180 s.
const HARD_STOP: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = by_name(&name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match flag(args, key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} needs a number, got {v:?}")),
            None => default.ok_or(format!("missing {key}")),
        }
    };
    let trace = num("--trace", Some(0))?;
    if trace > 1 {
        return Err("--trace is 0 or 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", None)?,
        seconds: num("--seconds", None)?.max(1),
        trace: trace == 1,
    })
}

/// Joiner mode: `--join ADDR --node N --shm 0|1 --trace 0|1`.
fn joiner(args: &[String]) -> ExitCode {
    let addr = flag(args, "--join").unwrap_or_default();
    let node = flag(args, "--node")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    let on = |key: &str| flag(args, key).as_deref() == Some("1");
    let traced = on("--trace");
    let opts = JoinOptions {
        shm: on("--shm"),
        recorder: if traced {
            insitu_telemetry::Recorder::enabled()
        } else {
            insitu_telemetry::Recorder::disabled()
        },
        flight: if traced {
            insitu::obs::FlightRecorder::enabled()
        } else {
            insitu::obs::FlightRecorder::disabled()
        },
        ..JoinOptions::default()
    };
    let build = |dag: &str, cfg: &str| build_scenario(dag, cfg).map_err(|e| e.to_string());
    match insitu::join(&addr, node, build, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench joiner {node}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Which part of a measurement a run belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    WarmUp,
    Untraced,
    Traced,
}

fn log_run(kind: Kind, i: usize, s: &RunSample) {
    eprintln!(
        "run {i} ({kind:?}): wall {:.3} s, setup {:.2} ms, cpu {:.2} s, peak rss {:.0} MiB, \
         inter-app {} B, leaked {} proc(s) / {} segment(s){}",
        s.wall_s,
        s.setup_s * 1e3,
        s.cpu_s,
        s.peak_rss_mib,
        s.inter_app_bytes,
        s.leaked_procs,
        s.leaked_segments,
        if s.failures.is_empty() {
            String::new()
        } else {
            format!(", FAILED: {}", s.failures.join("; "))
        }
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--join") {
        return joiner(&argv);
    }
    if argv.first().map(String::as_str) == Some("--run-child") {
        let w = flag(&argv, "--workload").and_then(|n| by_name(&n));
        let seed = flag(&argv, "--seed").and_then(|n| n.parse().ok());
        let (Some(w), Some(seed)) = (w, seed) else {
            return ExitCode::from(2);
        };
        insitu_perfbench::run::child_main(&w, seed);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (dag, cfg) = (w.dag(), w.config(args.seed));
    eprintln!(
        "perfbench: {} seed {} (grid axis order {:?}), {} s, trace {}, {} hardware thread(s)",
        w.name,
        args.seed,
        insitu_perfbench::workload::axis_order(args.seed),
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Timed runs until the budget is spent. One warm-up run (page
    // cache, allocator, loopback) is checked like every other run but
    // kept out of the medians. Traced mode alternates an untraced run
    // with a traced one, so both see the same conditions.
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut runs: Vec<(Kind, RunSample)> = Vec::new();
    let record = |runs: &mut Vec<(Kind, RunSample)>, kind: Kind| {
        let s = run_once(&w, args.seed, kind == Kind::Traced);
        log_run(kind, runs.len(), &s);
        runs.push((kind, s));
    };
    record(&mut runs, Kind::WarmUp);
    loop {
        record(&mut runs, Kind::Untraced);
        if args.trace {
            record(&mut runs, Kind::Traced);
        }
        let timed = runs.iter().filter(|(k, _)| *k == Kind::Untraced).count();
        let enough = timed >= MIN_RUNS || args.trace;
        if (start.elapsed() >= budget && enough) || start.elapsed() >= HARD_STOP {
            break;
        }
    }
    // Layer probes run before the ledger reference is computed: its
    // large allocations would otherwise set the allocator state the
    // probes' buffer allocations see.
    let mut probed = Report::default();
    let mut probe_failures = Vec::new();
    if args.trace {
        match build_scenario(&dag, &cfg) {
            Ok(scenario) => {
                probe_failures = probes::run_probes(&dag, &cfg, &scenario, &mut probed);
            }
            Err(e) => probe_failures.push(format!("workflow text rejected: {e}")),
        }
    }
    check_ledgers(&w, args.seed, runs.iter_mut().map(|(_, s)| s));

    let mut report = Report::default();
    for (_, s) in &runs {
        report.attempted += s.attempted.max(1);
        if !s.failures.is_empty() {
            report.failed += s.attempted.max(1);
            eprintln!("perfbench: failed run: {}", s.failures.join("; "));
        }
    }
    let of = |kind: Kind| -> Vec<RunSample> {
        runs.iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s.clone())
            .collect()
    };
    let (untraced, traced) = (of(Kind::Untraced), of(Kind::Traced));
    if args.trace {
        let mut failures = layers::traced_metrics(&w, &untraced, &traced, &mut report);
        report.metrics.extend(probed.metrics);
        failures.extend(probe_failures);
        for f in &failures {
            eprintln!("perfbench: check failed: {f}");
        }
        if !failures.is_empty() {
            report.failed += failures.len() as u64;
            report.attempted += failures.len() as u64;
        }
    } else {
        let n = untraced.len();
        let mut push = |name: &str, unit: &'static str, f: &dyn Fn(&RunSample) -> f64| {
            let values: Vec<f64> = untraced.iter().map(f).collect();
            let ([q1, _, q3], med) = (quartiles(&values), median(&values));
            eprintln!(
                "perfbench: {name} median {med:.6} {unit} over {n} run(s), \
                 quartiles {q1:.6} .. {q3:.6}, spread {:.3}",
                iqr_share(&values)
            );
            report.push(name, med, unit);
        };
        push("setup_s", "s", &|s| s.setup_s);
        push("iter_ms", "ms", &|s| {
            iter_ms(s.wall_s, s.setup_s, w.iterations)
        });
        push("cpu_s", "s", &|s| s.cpu_s);
        push("peak_rss_mib", "MiB", &|s| s.peak_rss_mib);
        let ok = 1.0 - ratio(report.failed as f64, report.attempted as f64);
        report.push("ok_frac", ok, "frac");
    }
    report.correct = report.failed == 0;
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
