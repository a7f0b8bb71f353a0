//! Property test: a sink fed with `offer_from` — overlaps copied
//! straight out of the producer pieces — assembles exactly what the
//! fragment-then-`offer` path assembles, over random 1-D, 2-D and 3-D
//! block-cyclic tilings and query regions.

use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_sub::{SubRegistry, SubSpec, TakeResult};
use insitu_util::check::forall;
use std::time::Instant;

fn take(sink: &insitu_sub::SubSink, version: u64) -> Vec<f64> {
    match sink.take_version(version, Instant::now()) {
        TakeResult::Data(d) => d,
        other => panic!("version {version} not assembled: {other:?}"),
    }
}

#[test]
fn offer_from_assembles_what_fragment_then_offer_assembles() {
    forall(150, |rng| {
        let ndim = rng.range_usize(1, 4);
        let lb: Vec<u64> = (0..ndim).map(|_| rng.range_u64(0, 100)).collect();
        let ub: Vec<u64> = lb.iter().map(|&l| l + rng.range_u64(0, 9)).collect();
        let domain = BoundingBox::new(&lb, &ub);
        let (qlb, qub): (Vec<u64>, Vec<u64>) = (0..ndim)
            .map(|d| {
                let a = rng.range_u64(domain.lb(d), domain.ub(d) + 1);
                let b = rng.range_u64(domain.lb(d), domain.ub(d) + 1);
                (a.min(b), a.max(b))
            })
            .unzip();
        let region = BoundingBox::new(&qlb, &qub);
        let reg = SubRegistry::new();
        let sink_for = |subscriber| {
            reg.register(SubSpec {
                vid: 1,
                region,
                every_k: 1,
                subscriber,
            })
            .attach_sink(4)
        };
        let (direct, fragmented) = (sink_for(0), sink_for(1));
        let value = |p: &[u64]| p.iter().fold(0.5, |a, &c| a * 1.75 + c as f64);
        let dims: Vec<u64> = (0..ndim).map(|_| rng.range_u64(1, 4)).collect();
        let blocks: Vec<u64> = (0..ndim).map(|_| rng.range_u64(1, 5)).collect();
        let dec = Decomposition::new(
            domain,
            ProcessGrid::new(&dims),
            Distribution::block_cyclic(&blocks),
        );
        for piece in (0..dec.num_ranks()).flat_map(|r| dec.rank_region(r)) {
            let Some(overlap) = region.intersect(&piece) else {
                continue;
            };
            let data = layout::fill_with(&piece, value);
            direct.offer_from(0, &data, &piece, &overlap);
            let mut frag = vec![0.0; overlap.num_cells() as usize];
            layout::copy_region(&data, &piece, &mut frag, &overlap, &overlap);
            fragmented.offer(0, &overlap, &frag);
        }
        let (a, b) = (take(&direct, 0), take(&fragmented, 0));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "region {region:?}");
        assert_eq!(a, layout::fill_with(&region, value));
    });
}
