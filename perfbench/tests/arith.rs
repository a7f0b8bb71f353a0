//! The benchmark's own arithmetic: statistics that must agree with
//! Python's `statistics` module (which judges the benchmark's spread),
//! zero-base ratios, the set-up / per-iteration split, the result-line
//! shape, and the seed's grid permutation.
//!
//!   cargo test --manifest-path perfbench/Cargo.toml

use insitu_perfbench::layers::fallback_ratio;
use insitu_perfbench::run::expected_ops;
use insitu_perfbench::stats::{
    iqr_share, iter_ms, median, overhead_pct, percentile, quartiles, ratio, Report,
};
use insitu_perfbench::workload::{axis_order, by_name, permute, WORKLOADS};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_matches_python() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(v, n=4) for each v.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    // Two values extrapolate past the ends, as Python does.
    assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    assert_eq!(quartiles(&[]), [0.0; 3]);
}

#[test]
fn iqr_share_matches_python_and_ignores_one_outlier() {
    let v = [0.10, 0.12, 0.11, 0.13, 0.5, 0.11, 0.12, 0.10, 0.12, 0.11];
    // (q3 - q1) / median from Python: 0.13043478260869554.
    assert!((iqr_share(&v) - 0.130_434_782_608_695_54).abs() < 1e-12);
    assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
}

#[test]
fn ratios_with_a_zero_base_are_zero() {
    assert_eq!(ratio(3.0, 0.0), 0.0);
    assert_eq!(ratio(0.0, 0.0), 0.0);
    assert_eq!(ratio(1.0, 4.0), 0.25);
    // Nothing offered to the shm plane: no fallback share, not NaN.
    assert_eq!(fallback_ratio(0, 0), 0.0);
    assert_eq!(fallback_ratio(0, 5), 1.0);
    assert!(close(fallback_ratio(15, 31), 31.0 / 46.0));
    assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    assert!(close(overhead_pct(110.0, 100.0), 10.0));
}

#[test]
fn setup_is_split_off_before_dividing_by_iterations() {
    // 4.1 s run, 6 ms of it set-up, 32 iterations.
    assert!(close(iter_ms(4.1, 0.006, 32), (4.1 - 0.006) * 1e3 / 32.0));
    // Set-up never makes the per-iteration time negative.
    assert_eq!(iter_ms(0.001, 0.002, 16), 0.0);
    assert_eq!(iter_ms(1.0, 0.0, 0), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut r = Report {
        correct: true,
        attempted: 768,
        failed: 0,
        ..Report::default()
    };
    r.push("setup_s", 0.0059444, "s");
    r.push("iter_ms", 116.0, "ms");
    r.push("ok_frac", f64::NAN, "frac");
    let line = r.to_json();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 768, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 0.0059444, \"unit\": \"s\"}, \
         \"iter_ms\": {\"value\": 116.0, \"unit\": \"ms\"}, \
         \"ok_frac\": {\"value\": 0.0, \"unit\": \"frac\"}}}"
    );
    assert!(!line.contains('\n'));
}

#[test]
fn result_line_keeps_every_digit() {
    let mut r = Report::default();
    r.push("cpu_s", 5.615359999999999, "s");
    assert!(r.to_json().contains("5.615359999999999"));
}

#[test]
fn seeds_permute_grid_axes_without_changing_piece_bytes() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..64 {
        let order = axis_order(seed);
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2], "seed {seed} gave {order:?}");
        assert_eq!(order[2], 2, "the contiguous axis stays last");
        let g = permute([2, 1, 2], order);
        assert_eq!(g.iter().product::<u64>(), 4);
        seen.insert(order);
    }
    assert_eq!(seen.len(), 2, "both leading-axis orders are reachable");
    assert_eq!(axis_order(7), axis_order(7));
}

#[test]
fn workload_text_parses_and_counts_operations() {
    for w in WORKLOADS {
        for seed in [1, 2, 3] {
            let scenario = insitu_cli::build_scenario(&w.dag(), &w.config(seed))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_eq!(scenario.iterations, w.iterations);
            let ops = expected_ops(&scenario);
            match w.name {
                // 4 concurrent + 4 sequential consumer ranks per iteration.
                "bulk_star_shm" | "bulk_p2p_tcp" => assert_eq!(ops, 8 * w.iterations),
                // 1 consumer get + 4 subscriber takes per iteration.
                "fanout_inproc" => assert_eq!(ops, 5 * w.iterations),
                other => panic!("untested workload {other}"),
            }
        }
    }
    assert!(by_name("no_such_workload").is_none());
}
