//! The shared execution environment of the threaded and distributed
//! executors.
//!
//! [`run_threaded`](crate::run_threaded) and the socketized
//! [`distrib`](crate::distrib) runner execute the *same* task routine
//! against the *same* deterministically constructed state — mapping,
//! placement, ledger, HybridDART runtime, CoDS space. `ExecEnv::build`
//! is that construction, parameterized over the wire: with no transport
//! it is the single-process executor; with a
//! [`Transport`]/[`SpaceMirror`] pair every replica builds identical
//! local state and the wire carries only what crosses processes. That
//! replication is why a distributed run's merged ledger is
//! byte-identical to the single-process ledger: each logical transfer
//! is accounted exactly once, in the process that initiates it.

use crate::mapping::{map_scenario, MappedScenario, MappingStrategy};
use crate::scenario::Scenario;
use crate::threaded::ThreadedConfig;
use insitu_cods::{
    var_id, CodsConfig, CodsError, CodsSpace, Dht, GetReport, SpaceMirror, SubHandle,
};
use insitu_dart::{DartRuntime, Transport};
use insitu_domain::stencil::halo_exchanges;
use insitu_domain::{BoundingBox, Pt};
use insitu_fabric::{ClientId, Placement, TrafficClass, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_sub::{SubSpec, TakeResult};
use insitu_telemetry::Recorder;
use insitu_util::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Message tag for halo-exchange payloads.
pub(crate) const TAG_HALO: u64 = 0x48414c4f; // "HALO"

/// Message tag for task-dispatch control messages (workflow server ->
/// execution client).
pub(crate) const TAG_DISPATCH: u64 = 0x44495350; // "DISP"

/// High-bit tag namespace reserved for group collectives (see
/// [`crate::comm`]); disjoint from [`TAG_HALO`] and user tags.
pub(crate) const TAG_COLLECTIVE_BASE: u64 = 0xC000_0000_0000_0000;

/// Bytes of one task-dispatch message (app id + rank).
pub(crate) const DISPATCH_BYTES: u64 = 12;

/// The `(app, rank)` payload of a dispatch message.
pub(crate) fn dispatch_payload(app: u32, rank: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(DISPATCH_BYTES as usize);
    payload.extend_from_slice(&app.to_ne_bytes());
    payload.extend_from_slice(&rank.to_ne_bytes());
    payload
}

/// Every task of `wave` as `(app, rank, client)`, in the canonical
/// dispatch order (bundle, then app, then rank) both executors use.
pub(crate) fn wave_tasks(
    scenario: &Scenario,
    mapped: &MappedScenario,
    wave: &[Vec<u32>],
) -> Vec<(u32, u64, ClientId)> {
    let mut tasks = Vec::new();
    for bundle in wave {
        for &app_id in bundle {
            let ntasks = scenario.workflow.app(app_id).unwrap().ntasks as u64;
            for rank in 0..ntasks {
                tasks.push((app_id, rank, mapped.core_of_task(app_id, rank)));
            }
        }
    }
    tasks
}

/// The deterministic synthetic field: every `(variable, version, point)`
/// has one correct value, so consumers can verify redistribution exactly.
///
/// The value is a hash folded over the coordinates in order, so it splits
/// into a row seed over all coordinates but the last and one hash step
/// for the last. [`field_fill`] and [`field_mismatches`] use that split
/// to pay one hash step per cell.
pub fn field_value(var: u64, version: u64, p: &[u64]) -> f64 {
    let (&last, lead) = p.split_last().expect("a point has at least one coordinate");
    cell_value(row_seed(var, version, lead), last)
}

/// One step of the field hash: fold coordinate `c` into state `h`.
#[inline]
fn mix(h: u64, c: u64) -> u64 {
    (h ^ c.wrapping_add(0x5851_F42D)).wrapping_mul(0x1000_0000_01b3)
}

/// The field hash state after the leading coordinates `lead`: shared by
/// every cell of one row along the last axis.
#[inline]
fn row_seed(var: u64, version: u64, lead: &[u64]) -> u64 {
    lead.iter().fold(
        var ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        |h, &c| mix(h, c),
    )
}

/// The field value of the cell at last-axis coordinate `c` of the row
/// whose [`row_seed`] is `seed`.
#[inline]
fn cell_value(seed: u64, c: u64) -> f64 {
    (mix(seed, c) >> 11) as f64 / (1u64 << 53) as f64
}

/// The leading coordinates of every row of `piece` (all axes but the
/// last), in the order the rows sit in its dense row-major array.
fn row_starts(piece: &BoundingBox) -> impl Iterator<Item = Pt> + '_ {
    let last = piece.ndim() - 1;
    let lower = piece.lower();
    let mut cur = Some(lower);
    std::iter::from_fn(move || {
        let row = cur?;
        cur = (0..last).rev().find(|&d| row[d] < piece.ub(d)).map(|d| {
            let mut next = row;
            next[d] += 1;
            next[d + 1..last].copy_from_slice(&lower[d + 1..last]);
            next
        });
        Some(row)
    })
}

/// The dense row-major array of `piece` holding the field of
/// `(var, version)`: bit-identical to [`field_value`] at every cell.
pub fn field_fill(var: u64, version: u64, piece: &BoundingBox) -> Vec<f64> {
    let last = piece.ndim() - 1;
    let mut out = Vec::with_capacity(piece.num_cells() as usize);
    for row in row_starts(piece) {
        let seed = row_seed(var, version, &row[..last]);
        out.extend((piece.lb(last)..piece.ub(last) + 1).map(|c| cell_value(seed, c)));
    }
    out
}

/// The exact number of cells of `data`, the dense row-major array of
/// `piece`, that differ from the field of `(var, version)`.
///
/// # Panics
/// Panics if `data` does not hold exactly one value per cell of `piece`.
pub fn field_mismatches(var: u64, version: u64, piece: &BoundingBox, data: &[f64]) -> u64 {
    assert_eq!(
        data.len() as u128,
        piece.num_cells(),
        "data length mismatch"
    );
    let last = piece.ndim() - 1;
    let row_len = piece.extent(last) as usize;
    row_starts(piece)
        .zip(data.chunks_exact(row_len))
        .map(|(row, got)| {
            let seed = row_seed(var, version, &row[..last]);
            got.iter()
                .zip(piece.lb(last)..)
                .filter(|&(&v, c)| v != cell_value(seed, c))
                .count() as u64
        })
        .sum()
}

pub(crate) fn curve_for(domain: &BoundingBox) -> HilbertCurve {
    let max_extent = (0..domain.ndim()).map(|d| domain.extent(d)).max().unwrap();
    let order = 64 - (max_extent - 1).leading_zeros();
    HilbertCurve::new(domain.ndim(), order.max(1))
}

/// One locally hosted subscription piece: the standing query covering
/// the intersection of a subscriber rank's region with the subscribed
/// region, plus the index of the [`crate::scenario::SubscriptionSpec`]
/// it compiles from.
pub(crate) struct SubPiece {
    pub spec_idx: usize,
    pub handle: SubHandle,
}

/// Deterministically constructed per-process execution state. In a
/// distributed run every process builds one of these from the same
/// `(scenario, strategy, config)` and they agree field for field.
pub(crate) struct ExecEnv {
    pub scenario: Arc<Scenario>,
    pub mapped: Arc<MappedScenario>,
    pub dart: Arc<DartRuntime>,
    pub space: Arc<CodsSpace>,
    pub ledger: Arc<TransferLedger>,
    pub reports: Arc<Mutex<Vec<(u32, u64, GetReport)>>>,
    pub failures: Arc<AtomicU64>,
    pub errors: Arc<Mutex<Vec<(u32, u64, CodsError)>>>,
    pub get_timeout: Duration,
    /// Locally hosted subscription handles, keyed by subscriber task.
    pub subs: Arc<HashMap<(u32, u64), Vec<SubPiece>>>,
}

impl ExecEnv {
    /// Map the scenario and build the full execution substrate. `wire`
    /// and `mirror` plug in the network transport for multi-process
    /// runs; `None` is the single-process executor.
    pub fn build(
        scenario: &Scenario,
        strategy: MappingStrategy,
        recorder: &Recorder,
        cfg: &ThreadedConfig,
        wire: Option<Arc<dyn Transport>>,
        mirror: Option<Arc<dyn SpaceMirror>>,
    ) -> ExecEnv {
        assert_eq!(scenario.elem_bytes, 8, "threaded mode stores f64 fields");
        let mapped = {
            let _span = recorder.span("workflow.map", "workflow", 0);
            Arc::new(map_scenario(scenario, strategy))
        };
        let machine = mapped.machine;
        let placement = Arc::new(Placement::pack_sequential(machine, machine.total_cores()));
        let ledger = Arc::new(TransferLedger::with_observer(
            recorder,
            cfg.injector.clone(),
        ));
        let dart = match wire {
            Some(wire) => DartRuntime::with_transport(
                placement,
                Arc::clone(&ledger),
                recorder.clone(),
                cfg.injector.clone(),
                cfg.flight.clone(),
                wire,
            ),
            None => DartRuntime::with_flight(
                placement,
                Arc::clone(&ledger),
                recorder.clone(),
                cfg.injector.clone(),
                cfg.flight.clone(),
            ),
        };
        let domain = *scenario
            .workflow
            .apps
            .iter()
            .find_map(|a| a.decomposition.as_ref())
            .expect("no decomposition in workflow")
            .domain();
        let dht_clients: Vec<ClientId> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
        let dht = Dht::new(Box::new(curve_for(&domain)), dht_clients);
        let cods_cfg = CodsConfig {
            get_timeout: cfg.get_timeout,
            // Jaguar XT5 nodes carry 16 GB; staged coupling data must fit.
            staging_limit_per_node: Some(16 << 30),
            key_epoch: cfg.key_epoch,
            ..Default::default()
        };
        let space = match mirror {
            Some(mirror) => CodsSpace::with_mirror(Arc::clone(&dart), dht, cods_cfg, mirror),
            None => CodsSpace::new(Arc::clone(&dart), dht, cods_cfg),
        };

        let scenario = Arc::new(scenario.clone());
        // Declare consumption expectations so producers can reclaim old
        // versions: one completed get per consumer piece per version.
        // Deterministic from the scenario, so every replica agrees.
        for coupling in &scenario.couplings {
            let coupled_region = coupling
                .region
                .unwrap_or(*scenario.decomposition(coupling.producer_app).domain());
            let mut gets = 0u64;
            for &capp in &coupling.consumer_apps {
                let cdec = scenario.decomposition(capp);
                for r in 0..cdec.num_ranks() {
                    gets += cdec
                        .rank_region(r)
                        .into_iter()
                        .filter(|p| p.intersect(&coupled_region).is_some())
                        .count() as u64;
                }
            }
            space.set_expected_gets(&coupling.var, gets);
        }

        // Standing queries: every process registers every subscription
        // (so producers anywhere can fan out pushes with the right
        // subscriber address), but a sink is attached only where the
        // subscriber task will actually run — remote subscribers stay
        // registry-only entries whose fragments travel the wire. Each
        // piece also owes one resync `get` per on-stride version, which
        // keeps producer-side reclaim accounting deterministic.
        let cpn = machine.cores_per_node;
        let mut subs: HashMap<(u32, u64), Vec<SubPiece>> = HashMap::new();
        for (si, sub) in scenario.subscriptions.iter().enumerate() {
            let sdec = scenario.decomposition(sub.subscriber_app);
            let region = sub
                .region
                .unwrap_or(*scenario.decomposition(sub.producer_app).domain());
            let mut pieces = 0u64;
            for rank in 0..sdec.num_ranks() {
                let client = mapped.core_of_task(sub.subscriber_app, rank);
                for piece in sdec
                    .rank_region(rank)
                    .into_iter()
                    .filter_map(|p| p.intersect(&region))
                {
                    pieces += 1;
                    if cfg.local_node.is_none_or(|n| client / cpn == n) {
                        let handle = space.subscribe_local(
                            client,
                            sub.subscriber_app,
                            &sub.var,
                            &piece,
                            sub.every_k,
                            sub.queue_cap,
                        );
                        subs.entry((sub.subscriber_app, rank))
                            .or_default()
                            .push(SubPiece {
                                spec_idx: si,
                                handle,
                            });
                    } else {
                        space.apply_remote_subscribe(&SubSpec {
                            vid: space.key_of(&sub.var),
                            region: piece,
                            every_k: sub.every_k,
                            subscriber: client,
                        });
                    }
                }
            }
            space.add_sub_expected_gets(&sub.var, sub.every_k, pieces);
        }

        ExecEnv {
            scenario,
            mapped,
            dart,
            space,
            ledger,
            reports: Arc::new(Mutex::new(Vec::new())),
            failures: Arc::new(AtomicU64::new(0)),
            errors: Arc::new(Mutex::new(Vec::new())),
            get_timeout: cfg.get_timeout,
            subs: Arc::new(subs),
        }
    }

    /// Run the given tasks on real threads (one per task, 512 KiB
    /// stacks) and join them. Each task's dispatch message must already
    /// sit in its client's mailbox.
    pub fn run_tasks(&self, tasks: &[(u32, u64)]) {
        let mut handles = Vec::new();
        for &(app, rank) in tasks {
            let ctx = TaskCtx {
                scenario: Arc::clone(&self.scenario),
                mapped: Arc::clone(&self.mapped),
                space: Arc::clone(&self.space),
                dart: Arc::clone(&self.dart),
                reports: Arc::clone(&self.reports),
                failures: Arc::clone(&self.failures),
                errors: Arc::clone(&self.errors),
                get_timeout: self.get_timeout,
                subs: Arc::clone(&self.subs),
                app,
                rank,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("app{app}-r{rank}"))
                    .stack_size(512 * 1024)
                    .spawn(move || task_routine(ctx))
                    .expect("thread spawn failed"),
            );
        }
        for h in handles {
            h.join().expect("task thread panicked");
        }
    }

    /// Task errors sorted so the outcome is a pure function of
    /// scenario + faults (threads report in scheduling order).
    pub fn sorted_errors(&self) -> Vec<(u32, u64, CodsError)> {
        let mut errors = self.errors.lock().unwrap().clone();
        errors.sort_by(|a, b| {
            (a.0, a.1, format!("{:?}", a.2)).cmp(&(b.0, b.1, format!("{:?}", b.2)))
        });
        errors
    }

    /// Consume the environment into a [`ThreadedOutcome`] once every
    /// task thread has joined.
    pub fn into_outcome(self, strategy: MappingStrategy) -> crate::threaded::ThreadedOutcome {
        let errors = self.sorted_errors();
        let reports = Arc::try_unwrap(self.reports)
            .expect("threads done")
            .into_inner()
            .unwrap();
        let staged_buffers = self.dart.registry().len() as u64;
        crate::threaded::ThreadedOutcome {
            strategy,
            ledger: self.ledger.snapshot(),
            reports,
            verify_failures: self.failures.load(Ordering::Relaxed),
            errors,
            staged_buffers,
            mapped: Arc::try_unwrap(self.mapped).expect("threads done"),
        }
    }
}

struct TaskCtx {
    scenario: Arc<Scenario>,
    mapped: Arc<MappedScenario>,
    space: Arc<CodsSpace>,
    dart: Arc<DartRuntime>,
    reports: Arc<Mutex<Vec<(u32, u64, GetReport)>>>,
    failures: Arc<AtomicU64>,
    errors: Arc<Mutex<Vec<(u32, u64, CodsError)>>>,
    get_timeout: Duration,
    subs: Arc<HashMap<(u32, u64), Vec<SubPiece>>>,
    app: u32,
    rank: u64,
}

impl TaskCtx {
    /// Record an operator error; the task abandons the failed coupling
    /// but keeps running (halo exchange in particular must complete so
    /// peers do not block forever on their mailboxes).
    fn note_error(&self, e: CodsError) {
        self.errors.lock().unwrap().push((self.app, self.rank, e));
    }
}

/// The statically linked "application subroutine" every execution client
/// runs: produce and/or consume coupled data, then do one stencil
/// exchange round. Identical in single-process and distributed runs.
fn task_routine(ctx: TaskCtx) {
    let client = ctx.mapped.core_of_task(ctx.app, ctx.rank);
    // One span per execution client, keyed by client id, so the trace
    // export shows a per-client timeline comparable with the modeled
    // executor's synthetic spans.
    let _task_span =
        ctx.dart
            .recorder()
            .span(&format!("app{}.task", ctx.app), "execute", client as u64);
    let mailbox = ctx.dart.take_mailbox(client);

    // First message is always this client's task assignment from the
    // workflow server (enqueued before the thread was spawned).
    let dispatch = mailbox.recv();
    assert_eq!(dispatch.tag, TAG_DISPATCH, "expected dispatch first");
    assert_eq!(
        u32::from_ne_bytes(dispatch.payload[..4].try_into().unwrap()),
        ctx.app
    );
    assert_eq!(
        u64::from_ne_bytes(dispatch.payload[4..12].try_into().unwrap()),
        ctx.rank
    );

    let dec = ctx.scenario.decomposition(ctx.app);

    // Producer role: one put sequence per iteration (version). For
    // concurrent couplings, version v-1 is reclaimed once every consumer
    // get of it has completed — the in-memory window a long-running
    // simulation needs.
    'producer: for coupling in &ctx.scenario.couplings {
        if coupling.producer_app != ctx.app {
            continue;
        }
        let vid = var_id(&coupling.var);
        let pieces = dec.rank_region(ctx.rank);
        for version in 0..ctx.scenario.iterations {
            for (pi, piece) in pieces.iter().enumerate() {
                let data = field_fill(vid, version, piece);
                let res = if coupling.concurrent {
                    ctx.space.put_cont(
                        client,
                        ctx.app,
                        &coupling.var,
                        version,
                        pi as u64,
                        piece,
                        &data,
                    )
                } else {
                    ctx.space.put_seq(
                        client,
                        ctx.app,
                        &coupling.var,
                        version,
                        pi as u64,
                        piece,
                        &data,
                    )
                };
                if let Err(e) = res {
                    // Abandon this coupling; other couplings and the halo
                    // round still run so peers are not deadlocked.
                    ctx.note_error(e);
                    continue 'producer;
                }
            }
            if coupling.concurrent && version > 0 {
                // Reclaim the previous version once fully consumed
                // (rank 0 evicts on behalf of the group; eviction of a
                // consumed version is idempotent).
                if ctx.rank == 0
                    && ctx
                        .space
                        .wait_version_consumed(&coupling.var, version - 1, ctx.get_timeout)
                {
                    ctx.space.evict_version(&coupling.var, version - 1);
                }
            }
        }
    }

    // Consumer role: retrieve and verify every iteration's version.
    for coupling in &ctx.scenario.couplings {
        if !coupling.consumer_apps.contains(&ctx.app) {
            continue;
        }
        let vid = var_id(&coupling.var);
        let pdec = ctx.scenario.decomposition(coupling.producer_app);
        let producer_clients: Vec<ClientId> = (0..pdec.num_ranks())
            .map(|r| ctx.mapped.core_of_task(coupling.producer_app, r))
            .collect();
        let coupled_region = coupling.region.unwrap_or(*pdec.domain());
        // Interface-region coupling: each task retrieves only the part of
        // its owned set inside the coupled region.
        let pieces: Vec<_> = dec
            .rank_region(ctx.rank)
            .into_iter()
            .filter_map(|p| p.intersect(&coupled_region))
            .collect();
        'versions: for version in 0..ctx.scenario.iterations {
            for piece in &pieces {
                let res = if coupling.concurrent {
                    ctx.space.get_cont(
                        client,
                        ctx.app,
                        &coupling.var,
                        version,
                        piece,
                        pdec,
                        &producer_clients,
                    )
                } else {
                    ctx.space
                        .get_seq(client, ctx.app, &coupling.var, version, piece)
                };
                let (data, report) = match res {
                    Ok(dr) => dr,
                    Err(e) => {
                        // Abandon this coupling's remaining versions; the
                        // task still completes its other roles.
                        ctx.note_error(e);
                        break 'versions;
                    }
                };
                // Verify every retrieved cell against the field function.
                let bad = field_mismatches(vid, version, piece, &data);
                if bad > 0 {
                    ctx.failures.fetch_add(bad, Ordering::Relaxed);
                }
                ctx.reports
                    .lock()
                    .unwrap()
                    .push((ctx.app, ctx.rank, report));
            }
        }
    }

    // Subscriber role: drain standing-query pushes. Every on-stride
    // version is first taken from the push sink, then re-read with an
    // ordinary get: on `Data` the get is the byte-identity check, on
    // `Lagged`/`TimedOut` it *is* the resync heal — either way exactly
    // one get per piece per on-stride version, matching the consumption
    // expectations declared at build time so producers can reclaim.
    for st in ctx.subs.get(&(ctx.app, ctx.rank)).into_iter().flatten() {
        let sub = &ctx.scenario.subscriptions[st.spec_idx];
        let vid = var_id(&sub.var);
        let concurrent = ctx
            .scenario
            .coupling_of_subscription(sub)
            .is_some_and(|c| c.concurrent);
        let pdec = ctx.scenario.decomposition(sub.producer_app);
        let producer_clients: Vec<ClientId> = (0..pdec.num_ranks())
            .map(|r| ctx.mapped.core_of_task(sub.producer_app, r))
            .collect();
        let piece = st.handle.spec.region;
        'sub_versions: for version in (0..ctx.scenario.iterations).filter(|v| v % sub.every_k == 0)
        {
            let taken = ctx.space.sub_take(&st.handle, version, ctx.get_timeout);
            let res = if concurrent {
                ctx.space.get_cont(
                    client,
                    ctx.app,
                    &sub.var,
                    version,
                    &piece,
                    pdec,
                    &producer_clients,
                )
            } else {
                ctx.space
                    .get_seq(client, ctx.app, &sub.var, version, &piece)
            };
            let (data, report) = match res {
                Ok(dr) => dr,
                Err(e) => {
                    ctx.note_error(e);
                    break 'sub_versions;
                }
            };
            if let TakeResult::Data(pushed) = taken {
                // The push plane must agree with the pull plane bit for
                // bit; any divergence is a verification failure.
                let mismatch = pushed.len() != data.len()
                    || pushed
                        .iter()
                        .zip(data.iter())
                        .any(|(a, b)| a.to_bits() != b.to_bits());
                if mismatch {
                    ctx.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            let bad = field_mismatches(vid, version, &piece, &data);
            if bad > 0 {
                ctx.failures.fetch_add(bad, Ordering::Relaxed);
            }
            ctx.reports
                .lock()
                .unwrap()
                .push((ctx.app, ctx.rank, report));
        }
    }

    // One intra-application near-neighbor exchange round per iteration.
    let exchanges = halo_exchanges(dec, ctx.scenario.halo);
    for _ in 0..ctx.scenario.iterations {
        let mut expected = 0u32;
        for ex in &exchanges {
            let peer_rank = if ex.rank_a == ctx.rank {
                ex.rank_b
            } else if ex.rank_b == ctx.rank {
                ex.rank_a
            } else {
                continue;
            };
            let peer_client = ctx.mapped.core_of_task(ctx.app, peer_rank);
            let bytes = ex.cells as usize * ctx.scenario.elem_bytes as usize;
            ctx.dart.send(
                ctx.app,
                TrafficClass::IntraApp,
                client,
                peer_client,
                TAG_HALO,
                Bytes::from(vec![0u8; bytes]),
            );
            expected += 1;
        }
        for _ in 0..expected {
            let msg = mailbox.recv();
            debug_assert_eq!(msg.tag, TAG_HALO);
        }
    }

    ctx.dart.return_mailbox(client, mailbox);
}
