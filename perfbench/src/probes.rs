//! Layer probes: each times one layer's public calls from outside, on
//! the workload's own piece sizes, decompositions and subscriber count,
//! and checks what the calls return. Every probe reports the median of
//! several repetitions.

use crate::stats::{median, percentile, ratio, Report};
use insitu::cods::{schedule_from_decomposition, CodsConfig, CodsSpace, Dht};
use insitu::dart::{BufKey, DartRuntime};
use insitu::domain::layout::{copy_region, fill_with};
use insitu::domain::{BoundingBox, Decomposition};
use insitu::fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu::sfc::HilbertCurve;
use insitu::sub::{SubRegistry, SubSpec, TakeResult};
use insitu::{field_value, map_scenario, MappingStrategy, Scenario};
use insitu_cli::build_scenario;
use insitu_net::{Frame, FrameDecoder};
use insitu_util::shm::{RecordDesc, Ring, RingMem};
use insitu_util::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions behind each probe's median.
const REPS: usize = 7;
/// Versions put and read per CoDS probe.
const VERSIONS: u64 = 4;
/// Descriptor slots of a production shm ring (`insitu_net::link`).
const SHM_SLOTS: u32 = 256;
/// Arena bytes of a production shm ring (`insitu_net::link`).
const SHM_ARENA: u64 = 4 << 20;
const TIMEOUT: Duration = Duration::from_secs(20);

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `REPS` calls of `f`, in ms, after one untimed
/// call that faults in the buffers the call allocates.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&times)
}

/// The workload's geometry, as the probes need it.
struct Shape {
    domain: BoundingBox,
    cores_per_node: u32,
    producer_app: u32,
    pdec: Decomposition,
    /// One producer piece per rank, filled with the synthetic field.
    pieces: Vec<(BoundingBox, Vec<f64>)>,
    /// Consumer queries of the concurrent coupling, `(app, box)`.
    cont_queries: Vec<(u32, BoundingBox)>,
    /// Consumer queries of the sequential coupling, or the concurrent
    /// ones when the workload has none.
    seq_queries: Vec<(u32, BoundingBox)>,
    /// Regions of the standing queries (one per subscriber rank).
    sub_regions: Vec<BoundingBox>,
}

fn queries(scenario: &Scenario, concurrent: bool) -> Vec<(u32, BoundingBox)> {
    scenario
        .couplings
        .iter()
        .filter(|c| c.concurrent == concurrent)
        .flat_map(|c| c.consumer_apps.iter().copied())
        .flat_map(|app| {
            let dec = scenario.decomposition(app);
            (0..dec.num_ranks())
                .flat_map(move |r| dec.rank_region(r))
                .map(move |b| (app, b))
        })
        .collect()
}

impl Shape {
    fn of(scenario: &Scenario) -> Shape {
        let producer_app = scenario.couplings[0].producer_app;
        let pdec = *scenario.decomposition(producer_app);
        let domain = *pdec.domain();
        let pieces = (0..pdec.num_ranks())
            .flat_map(|r| pdec.rank_region(r))
            .map(|b| (b, fill_with(&b, |p| field_value(0, 0, p))))
            .collect();
        let cont_queries = queries(scenario, true);
        let mut seq_queries = queries(scenario, false);
        if seq_queries.is_empty() {
            seq_queries = cont_queries.clone();
        }
        let sub_regions = scenario
            .subscriptions
            .iter()
            .flat_map(|s| {
                let region = s.region.unwrap_or(domain);
                let dec = scenario.decomposition(s.subscriber_app);
                (0..dec.num_ranks())
                    .flat_map(|r| dec.rank_region(r))
                    .filter_map(|b| b.intersect(&region))
                    .collect::<Vec<_>>()
            })
            .collect();
        Shape {
            domain,
            cores_per_node: scenario.cores_per_node,
            producer_app,
            pdec,
            pieces,
            cont_queries,
            seq_queries,
            sub_regions,
        }
    }

    fn piece_bytes(&self) -> Vec<u8> {
        self.pieces[0]
            .1
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    fn producer_clients(&self) -> Vec<ClientId> {
        (0..self.pieces.len() as ClientId).collect()
    }

    /// An in-process CoDS space over the workload's geometry, placed
    /// sequentially on the workload's node shape.
    fn space(&self, clients: u32) -> Arc<CodsSpace> {
        let machine = MachineSpec::new(clients.div_ceil(self.cores_per_node), self.cores_per_node);
        let placement = Arc::new(Placement::pack_sequential(machine, clients));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let extent = (0..self.domain.ndim())
            .map(|d| self.domain.extent(d))
            .max()
            .unwrap_or(1);
        let order = (64 - (extent.max(2) - 1).leading_zeros()).max(1);
        let dht_clients = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
        let dht = Dht::new(
            Box::new(HilbertCurve::new(self.domain.ndim(), order)),
            dht_clients,
        );
        CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                get_timeout: TIMEOUT,
                ..CodsConfig::default()
            },
        )
    }
}

/// Run every probe, push its metrics into `report`, and return the
/// checks that failed.
pub fn run_probes(dag: &str, cfg: &str, scenario: &Scenario, report: &mut Report) -> Vec<String> {
    let mut failures = Vec::new();
    report.push(
        "setup.build_scenario_ms",
        median_ms(|| {
            std::hint::black_box(build_scenario(dag, cfg).ok());
        }),
        "ms",
    );
    report.push(
        "setup.map_scenario_ms",
        median_ms(|| {
            std::hint::black_box(map_scenario(scenario, MappingStrategy::DataCentric));
        }),
        "ms",
    );
    let shape = Shape::of(scenario);
    net_probe(&shape, report, &mut failures);
    shm_probe(&shape, report, &mut failures);
    domain_probe(&shape, report);
    dart_probe(&shape, report, &mut failures);
    cods_probe(&shape, report, &mut failures);
    sub_probe(&shape, report, &mut failures);
    failures
}

/// `Frame::encode`, and `FrameDecoder::push` + `next_frame`, of one
/// PullData carrying one producer piece.
fn net_probe(shape: &Shape, report: &mut Report, failures: &mut Vec<String>) {
    let frame = Frame::PullData {
        name: 1,
        version: 0,
        piece: 0,
        owner: 0,
        to_node: 1,
        data: shape.piece_bytes(),
    };
    report.push(
        "net.frame_encode_ms",
        median_ms(|| {
            std::hint::black_box(frame.encode());
        }),
        "ms",
    );
    let wire = frame.encode();
    let mut decoded = None;
    report.push(
        "net.frame_decode_ms",
        median_ms(|| {
            let mut dec = FrameDecoder::new();
            dec.push(&wire);
            decoded = dec.next_frame().ok().flatten();
        }),
        "ms",
    );
    if decoded.as_ref() != Some(&frame) {
        failures.push("net: decoded PullData differs from the encoded one".into());
    }
}

/// `Ring::push` + `pop` + `release` of one piece on a heap ring with
/// the production geometry.
fn shm_probe(shape: &Shape, report: &mut Report, failures: &mut Vec<String>) {
    let payload = shape.piece_bytes();
    let fits = (payload.len() as u64).div_ceil(8) * 8 <= SHM_ARENA;
    report.push("shm.piece_fits", fits as u8 as f64, "bool");
    let ring = Ring::create(
        RingMem::heap(Ring::required_len(SHM_SLOTS, SHM_ARENA)),
        SHM_SLOTS,
        SHM_ARENA,
    );
    let desc = RecordDesc {
        name: 1,
        version: 0,
        piece: 0,
        owner: 0,
    };
    let mut ok = true;
    let ms = median_ms(|| {
        let pushed = ring.push(&desc, &payload).is_ok();
        match ring.pop() {
            Some(rec) => {
                ok &= pushed && rec.desc == desc && rec.len == payload.len();
                ring.release(rec.range);
            }
            None => ok &= !fits,
        }
    });
    report.push("shm.ring_push_pop_ms", if fits { ms } else { 0.0 }, "ms");
    if !ok {
        failures.push("shm: a pushed piece did not pop back intact".into());
    }
}

/// Every piece∩query overlap the workflow assembles per iteration.
fn overlaps(shape: &Shape) -> Vec<(usize, BoundingBox, BoundingBox)> {
    let cont = shape.cont_queries.iter().map(|(_, q)| *q);
    // A subscriber's region is assembled twice: once by the push, once
    // by the verifying get.
    let subs = shape.sub_regions.iter().flat_map(|r| [*r, *r]);
    cont.chain(subs)
        .flat_map(|q| {
            shape
                .pieces
                .iter()
                .enumerate()
                .filter_map(move |(i, (b, _))| b.intersect(&q).map(|o| (i, q, o)))
        })
        .collect()
}

/// `copy_region` throughput over each piece∩query overlap.
fn domain_probe(shape: &Shape, report: &mut Report) {
    let work = overlaps(shape);
    let bytes: u64 = work.iter().map(|(_, _, o)| o.num_cells() as u64 * 8).sum();
    let mut dst: Vec<(BoundingBox, Vec<f64>)> = Vec::new();
    for (_, q, _) in &work {
        if !dst.iter().any(|(b, _)| b == q) {
            dst.push((*q, vec![0.0; q.num_cells() as usize]));
        }
    }
    let ms = median_ms(|| {
        for (i, q, o) in &work {
            let (src_box, src) = &shape.pieces[*i];
            let (_, out) = dst
                .iter_mut()
                .find(|(b, _)| b == q)
                .expect("every query has a destination buffer");
            copy_region(src, src_box, out, q, o);
        }
    });
    report.push(
        "domain.copy_region_gib_s",
        ratio(bytes as f64 / f64::from(1 << 30), ms / 1e3),
        "GiB/s",
    );
    report.push("domain.copy_bytes_per_iter", bytes as f64, "B");
}

/// `DartRuntime::pull_many` of one consumer schedule, every piece
/// already registered.
fn dart_probe(shape: &Shape, report: &mut Report, failures: &mut Vec<String>) {
    let clients = shape.pieces.len() as u32 + 1;
    let machine = MachineSpec::new(clients.div_ceil(shape.cores_per_node), shape.cores_per_node);
    let dart = DartRuntime::new(
        Arc::new(Placement::pack_sequential(machine, clients)),
        Arc::new(TransferLedger::new()),
    );
    let key = |r: usize| BufKey {
        name: 1,
        version: 0,
        piece: r as u64,
    };
    for (r, (_, data)) in shape.pieces.iter().enumerate() {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        dart.register_buffer(key(r), r as ClientId, Bytes::from(bytes));
    }
    let query = shape.cont_queries[0].1;
    let keys: Vec<BufKey> = shape
        .pieces
        .iter()
        .enumerate()
        .filter(|(_, (b, _))| b.intersect(&query).is_some())
        .map(|(r, _)| key(r))
        .collect();
    let want: u64 = keys
        .iter()
        .map(|k| shape.pieces[k.piece as usize].1.len() as u64 * 8)
        .sum();
    let mut ok = true;
    let ms = median_ms(|| {
        let mut got = 0u64;
        let done = dart.pull_many(&keys, TIMEOUT, |_, h, _| got += h.data.len() as u64);
        ok &= done.is_ok() && got == want;
    });
    report.push("dart.pull_many_ms", ms, "ms");
    if !ok {
        failures.push("dart: pull_many did not return every registered piece".into());
    }
}

/// Put every producer piece of `version` with `put_cont` (or
/// `put_seq`), returning the per-put times in ms.
fn put_version(space: &CodsSpace, shape: &Shape, var: &str, version: u64, seq: bool) -> Vec<f64> {
    shape
        .pieces
        .iter()
        .enumerate()
        .map(|(r, (b, data))| {
            let t = Instant::now();
            let put = if seq {
                space.put_seq(r as ClientId, shape.producer_app, var, version, 0, b, data)
            } else {
                space.put_cont(r as ClientId, shape.producer_app, var, version, 0, b, data)
            };
            put.expect("in-process put");
            ms_since(t)
        })
        .collect()
}

/// CoDS put/get on an in-process space built with the workload's
/// decompositions, plus schedule construction and DHT lookup.
fn cods_probe(shape: &Shape, report: &mut Report, failures: &mut Vec<String>) {
    let producers = shape.pieces.len() as u32;
    let consumers = shape.cont_queries.len().max(shape.seq_queries.len()) as u32;
    let space = shape.space(producers + consumers);
    let pclients = shape.producer_clients();
    let expect = |q: &BoundingBox| fill_with(q, |p| field_value(0, 0, p));
    let cont_want: Vec<Vec<f64>> = shape.cont_queries.iter().map(|(_, q)| expect(q)).collect();
    let seq_want: Vec<Vec<f64>> = shape.seq_queries.iter().map(|(_, q)| expect(q)).collect();
    let (mut put_cont, mut put_seq, mut get_cont, mut get_seq) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    for v in 0..VERSIONS {
        put_cont.extend(put_version(&space, shape, "cont", v, false));
        for (i, (app, q)) in shape.cont_queries.iter().enumerate() {
            let t = Instant::now();
            let got = space.get_cont(
                producers + i as u32,
                *app,
                "cont",
                v,
                q,
                &shape.pdec,
                &pclients,
            );
            get_cont.push(ms_since(t));
            mismatches += got.map_or(1, |(d, _)| (*d != cont_want[i][..]) as u32);
        }
        space.evict_version("cont", v);

        put_seq.extend(put_version(&space, shape, "seq", v, true));
        for (i, (app, q)) in shape.seq_queries.iter().enumerate() {
            let t = Instant::now();
            let got = space.get_seq(producers + i as u32, *app, "seq", v, q);
            get_seq.push(ms_since(t));
            mismatches += got.map_or(1, |(d, _)| (*d != seq_want[i][..]) as u32);
        }
        if v + 1 < VERSIONS {
            space.evict_version("seq", v);
        }
    }
    if mismatches > 0 {
        failures.push(format!("cods: {mismatches} get(s) returned wrong data"));
    }
    report.push("cods.put_cont_ms", median(&put_cont), "ms");
    report.push("cods.put_seq_ms", median(&put_seq), "ms");
    report.push("cods.get_cont_ms.p50", percentile(&get_cont, 0.50), "ms");
    report.push("cods.get_cont_ms.p99", percentile(&get_cont, 0.99), "ms");
    report.push("cods.get_seq_ms.p50", percentile(&get_seq, 0.50), "ms");
    report.push("cods.get_seq_ms.p99", percentile(&get_seq, 0.99), "ms");

    let mut sched = Vec::new();
    let mut dht = Vec::new();
    let vid = space.key_of("seq");
    for _ in 0..REPS {
        for (_, q) in &shape.cont_queries {
            let t = Instant::now();
            std::hint::black_box(schedule_from_decomposition(&shape.pdec, &pclients, q));
            sched.push(ms_since(t) * 1e3);
        }
        for (_, q) in &shape.seq_queries {
            let t = Instant::now();
            let (entries, _) = space.dht().query(vid, VERSIONS - 1, q);
            dht.push(ms_since(t) * 1e3);
            if entries.is_empty() {
                failures.push("cods: DHT query found no staged piece".into());
            }
        }
    }
    report.push("cods.schedule_build_us", median(&sched), "us");
    report.push("cods.dht_query_us", median(&dht), "us");
}

/// A put with the workload's subscriptions registered (beside
/// `cods.put_cont_ms`), and `SubSink::offer` of one piece into a
/// full-domain sink.
fn sub_probe(shape: &Shape, report: &mut Report, failures: &mut Vec<String>) {
    let producers = shape.pieces.len() as u32;
    let subs = shape.sub_regions.len() as u32;
    let space = shape.space(producers + subs.max(1));
    let handles: Vec<_> = shape
        .sub_regions
        .iter()
        .enumerate()
        .map(|(i, region)| space.subscribe(producers + i as u32, 0, "cont", region, 1, 8))
        .collect();
    let wants: Vec<Vec<f64>> = shape
        .sub_regions
        .iter()
        .map(|r| fill_with(r, |p| field_value(0, 0, p)))
        .collect();
    let mut puts = Vec::new();
    let mut bad = 0;
    for v in 0..VERSIONS {
        puts.extend(put_version(&space, shape, "cont", v, false));
        for (h, want) in handles.iter().zip(&wants) {
            match space.sub_take(h, v, TIMEOUT) {
                TakeResult::Data(d) if d == *want => {}
                _ => bad += 1,
            }
        }
        space.evict_version("cont", v);
    }
    report.push("sub.put_cont_ms", median(&puts), "ms");

    let registry = SubRegistry::new();
    let entry = registry.register(SubSpec {
        vid: 1,
        region: shape.domain,
        every_k: 1,
        subscriber: 0,
    });
    let sink = entry.attach_sink(VERSIONS as usize);
    let mut offers = Vec::new();
    for v in 0..VERSIONS {
        for (b, data) in &shape.pieces {
            let t = Instant::now();
            std::hint::black_box(sink.offer(v, b, data));
            offers.push(ms_since(t));
        }
        match sink.take_version(v, Instant::now() + TIMEOUT) {
            TakeResult::Data(d) if d.len() as u128 == shape.domain.num_cells() => {}
            _ => bad += 1,
        }
    }
    report.push("sub.offer_ms", median(&offers), "ms");
    if bad > 0 {
        failures.push(format!(
            "sub: {bad} pushed version(s) differ from the put data"
        ));
    }
}
