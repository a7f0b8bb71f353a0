//! Property tests over the mapping pipeline, the scenario builders and
//! the synthetic field kernels.

use insitu::domain::{layout, BoundingBox};
use insitu::{
    aligned_grid, balanced_grid, concurrent_scenario, field_fill, field_mismatches, field_value,
    map_scenario, pattern_pairs, sequential_scenario, MappingStrategy,
};
use insitu_util::check::forall;
use insitu_util::SplitMix64;

fn arb_strategy(rng: &mut SplitMix64) -> MappingStrategy {
    *rng.choose(&[
        MappingStrategy::RoundRobin,
        MappingStrategy::DataCentric,
        MappingStrategy::NodeCyclic,
    ])
}

#[test]
fn balanced_grid_always_multiplies_out() {
    forall(48, |rng| {
        let n = rng.range_u64(1, 5000);
        let ndim = rng.range_usize(1, 4);
        let g = balanced_grid(n, ndim);
        assert_eq!(g.len(), ndim);
        assert_eq!(g.iter().product::<u64>(), n);
        assert!(g.iter().all(|&d| d >= 1));
    });
}

#[test]
fn aligned_grid_always_multiplies_out() {
    forall(48, |rng| {
        let n = rng.range_u64(1, 200);
        let p0 = rng.range_u64(1, 9);
        let p1 = rng.range_u64(1, 9);
        let p2 = rng.range_u64(1, 9);
        let g = aligned_grid(n, &[p0, p1, p2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.iter().product::<u64>(), n);
    });
}

#[test]
fn aligned_grid_perfect_when_divisible() {
    forall(8, |rng| {
        // Consumer count = producer count / 2^k along z: the aligned grid
        // must divide component-wise.
        let k = rng.range_u64(1, 5);
        let producer = [8u64, 8, 8];
        let n = 512 / (1 << k);
        let g = aligned_grid(n, &producer);
        for d in 0..3 {
            assert_eq!(producer[d] % g[d], 0, "grid {g:?}");
        }
    });
}

#[test]
fn concurrent_mapping_valid_for_arbitrary_sizes() {
    forall(48, |rng| {
        // Producer 2^pexp tasks, consumer 2^cexp (consumer <= producer).
        let pexp = rng.range_u32(1, 5);
        let cexp = rng.range_u32(0, 4);
        let strategy = arb_strategy(rng);
        let pattern_idx = rng.range_usize(0, 5);
        let prod = 1u64 << pexp;
        let cons = 1u64 << cexp.min(pexp);
        let mut s = concurrent_scenario(prod, cons, 4, pattern_pairs(&[2, 2, 2])[pattern_idx]);
        s.cores_per_node = 4;
        let m = map_scenario(&s, strategy);
        // Every task mapped, no core reused within the concurrent wave.
        let mut cores: Vec<u32> = m.app_cores.values().flatten().copied().collect();
        assert_eq!(cores.len() as u64, prod + cons);
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len() as u64, prod + cons, "core reused");
        for &c in &cores {
            assert!(c < m.machine.total_cores());
        }
    });
}

#[test]
fn sequential_mapping_valid() {
    forall(48, |rng| {
        let pexp = rng.range_u32(2, 5);
        let strategy = arb_strategy(rng);
        let prod = 1u64 << pexp;
        let c1 = prod / 2;
        let c2 = prod / 2;
        let mut s = sequential_scenario(prod, c1, c2, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let m = map_scenario(&s, strategy);
        // Wave 2 apps fit the machine together.
        let mut cores: Vec<u32> = m.app_cores[&2]
            .iter()
            .chain(m.app_cores[&3].iter())
            .copied()
            .collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len() as u64, c1 + c2);
    });
}

#[test]
fn data_centric_never_loses_to_baseline_on_matched_patterns() {
    forall(8, |rng| {
        use insitu::run_modeled;
        use insitu_fabric::TrafficClass;
        let pexp = rng.range_u32(2, 5);
        let prod = 1u64 << pexp;
        let cons = prod / 2;
        let mut s = concurrent_scenario(prod, cons, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let rr = run_modeled(&s, MappingStrategy::RoundRobin);
        let dc = run_modeled(&s, MappingStrategy::DataCentric);
        assert!(
            dc.ledger.network_bytes(TrafficClass::InterApp)
                <= rr.ledger.network_bytes(TrafficClass::InterApp)
        );
    });
}

/// A random 1-D, 2-D or 3-D box: non-zero origins, and each axis of
/// extent 1 a quarter of the time (so single-cell rows come up often).
fn arb_piece(rng: &mut SplitMix64) -> BoundingBox {
    let ndim = rng.range_usize(1, 4);
    let mut lb = [0u64; 3];
    let mut ub = [0u64; 3];
    for d in 0..ndim {
        lb[d] = rng.range_u64(0, 1 << 20);
        let extent = if rng.range_u32(0, 4) == 0 {
            1
        } else {
            rng.range_u64(1, 12)
        };
        ub[d] = lb[d] + extent - 1;
    }
    BoundingBox::new(&lb[..ndim], &ub[..ndim])
}

#[test]
fn field_fill_matches_per_point_field_value_bit_for_bit() {
    forall(200, |rng| {
        let piece = arb_piece(rng);
        let (var, version) = (rng.next_u64(), rng.range_u64(0, 64));
        let expect = layout::fill_with(&piece, |p| field_value(var, version, p));
        let got = field_fill(var, version, &piece);
        assert_eq!(got.len(), expect.len(), "{piece:?}");
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "cell {i} of {piece:?}");
        }
        assert_eq!(field_mismatches(var, version, &piece, &got), 0);
    });
}

#[test]
fn field_mismatches_counts_exactly_the_corrupted_cells() {
    forall(200, |rng| {
        let piece = arb_piece(rng);
        let (var, version) = (rng.next_u64(), rng.range_u64(0, 64));
        let mut data = field_fill(var, version, &piece);
        let k = rng.range_usize(0, data.len() + 1);
        // Corrupt k distinct cells: a partial Fisher-Yates draw.
        let mut cells: Vec<usize> = (0..data.len()).collect();
        for i in 0..k {
            let j = rng.range_usize(i, cells.len());
            cells.swap(i, j);
            let c = cells[i];
            data[c] = f64::from_bits(data[c].to_bits() ^ (1 << rng.range_u32(0, 52)));
        }
        assert_eq!(
            field_mismatches(var, version, &piece, &data),
            k as u64,
            "{piece:?}"
        );
    });
}

#[test]
fn field_mismatches_flags_a_wrong_version() {
    forall(200, |rng| {
        let piece = arb_piece(rng);
        let (var, version) = (rng.next_u64(), rng.range_u64(0, 64));
        let data = field_fill(var, version, &piece);
        assert!(
            field_mismatches(var, version + 1, &piece, &data) > 0,
            "{piece:?}"
        );
    });
}
