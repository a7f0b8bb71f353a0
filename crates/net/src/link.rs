//! The execution client's end of the wire: `NetLink` implements both
//! [`insitu_dart::Transport`] (mailbox forwarding, buffer publication,
//! pull requests) and [`insitu_cods::space::SpaceMirror`] (DHT-replica
//! maintenance), speaking frames to the hub — and, in p2p mode,
//! directly to peer joiners.
//!
//! Two transports, chosen by the `Welcome`:
//!
//! - **Star** ([`NetLink::new`]): one hub connection with a FIFO writer
//!   thread and a blocking demux reader thread; every frame, including
//!   `PullData`, rides the hub.
//! - **Reactor/p2p** ([`NetLink::new_p2p`]): the hub connection, a
//!   local peer listener and every direct peer connection all live on
//!   one [`Reactor`] event-loop thread. `PullRequest` goes straight to
//!   the owner's node over a lazily-dialed direct connection (see
//!   [`PeerTable`]); the `PullData`/`PullNack` answer returns on the
//!   same socket. The hub carries only control traffic.
//!
//! Construction is two-phase because the link and the runtime need each
//! other: build the `NetLink` first (it only needs the socket), hand it
//! to `DartRuntime::with_transport` and `CodsSpace::with_mirror`, then
//! call [`NetLink::start_reader`] with both — it wires up the demux
//! (reader thread or reactor sinks) and returns the control channel
//! (`RunWave` / `Shutdown`) that drives the joiner's wave loop.
//!
//! The telemetry plane rides the same connections: with a flight
//! recorder attached ([`NetLink::set_flight`]) the link records a
//! `NetSend` event when it answers a remote pull and a `NetRecv` when
//! pulled bytes land, and at teardown [`NetLink::ship_telemetry`]
//! ships the recording to the hub in ack-paced batches for the
//! cross-process trace merge.

use crate::conn::{recv_frame, NetError, NetMetrics, Peer, PeerHandle};
use crate::frame::{Frame, FrameError, NodeReport};
use crate::peers::PeerTable;
use crate::reactor::{ConnEvent, Reactor, ReactorHandle, Sink, Token};
use insitu_cods::space::SpaceMirror;
use insitu_cods::{CodsSpace, LocationEntry};
use insitu_dart::transport::Transport;
use insitu_dart::{BufKey, DartRuntime, Msg};
use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, FaultInjector};
use insitu_obs::{Event, EventKind, FlightRecorder, LinkClass};
use insitu_sub::{SubId, SubSpec};
use insitu_util::channel::{unbounded, Receiver, Sender};
use insitu_util::shm::{self, PushError, RecordDesc, Ring, RingMem, ShmMap};
use insitu_util::Bytes;
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Control frames the reader surfaces to the joiner's wave loop.
#[derive(Clone, Debug, PartialEq)]
pub enum Ctl {
    /// Run the local tasks of this wave.
    RunWave(u32),
    /// The server ended the run.
    Shutdown {
        /// Whether the run completed successfully.
        ok: bool,
        /// Human-readable reason (empty on success).
        reason: String,
    },
}

/// The send path to the hub, by transport mode.
enum HubTx {
    /// FIFO writer thread over the hub socket.
    Star(Peer),
    /// The hub connection's token on this process's reactor.
    P2p(ReactorHandle, Token),
}

impl HubTx {
    fn send(&self, frame: Frame) {
        match self {
            HubTx::Star(peer) => peer.send(frame),
            HubTx::P2p(handle, token) => handle.send(*token, frame),
        }
    }
}

/// Where a pull answer goes: back up the hub (star) or out the same
/// direct connection the request arrived on (p2p).
#[derive(Clone)]
enum ReplyTx {
    Star(PeerHandle),
    Reactor(ReactorHandle, Token),
}

impl ReplyTx {
    fn send(&self, frame: Frame) {
        match self {
            ReplyTx::Star(handle) => handle.send(frame),
            ReplyTx::Reactor(handle, token) => handle.send(*token, frame),
        }
    }
}

/// Descriptor slots per directed shm pair.
const SHM_SLOTS: u32 = 256;

/// Payload arena bytes per directed shm pair. 4 MiB keeps a handful of
/// pairs inside a container's default 64 MiB `/dev/shm`. The arena only
/// stages records in flight — the consumer copies each one out and
/// releases it on drain — so it bounds one doorbell's worth of pieces,
/// not everything the consumer keeps.
const SHM_ARENA: u64 = 4 << 20;

/// How long a producer spins on a full ring before degrading the
/// record to the wire. The wait itself is recorded as a shm-classed
/// `Pull` event, so backpressure shows up in the shm-wait quantiles.
const SHM_FULL_WAIT: Duration = Duration::from_millis(20);

/// Distinguishes segments created by different links in one process
/// (the in-process tests run every joiner as a thread, so pid alone
/// does not make names unique).
static SHM_NONCE: AtomicU64 = AtomicU64::new(1);

/// Fault/offer identity of the directed pair's segment. Derived from
/// the pair, not a counter, so a seeded chaos replay rolls the same
/// `shm-attach` verdicts run after run.
fn shm_segment_id(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// The intra-host shared-memory data plane (DESIGN.md §13): host
/// fingerprints from the `Welcome` plus this link's producer and
/// consumer ring state. Present only after [`NetLink::set_shm`].
struct ShmPlane {
    /// Per-node host fingerprints, indexed by node id. An empty entry
    /// never matches (that joiner opted out or has no fingerprint); an
    /// empty table means the whole run opted out at the hub.
    hosts: Vec<String>,
    /// Producer side: outbound segment per consumer node. The per-pair
    /// inner lock serializes push/doorbell against the ack handler so a
    /// record is either in the ring when a nack resends `unconsumed`,
    /// or pushed after the pair flipped to TCP — never lost.
    out: Mutex<HashMap<u32, Arc<Mutex<ShmOut>>>>,
    /// Consumer side: attached ring per producer node.
    inbound: Mutex<HashMap<u32, Arc<Ring>>>,
}

/// Producer-side state of one directed pair.
enum ShmOut {
    /// Segment created and offered; pushes allowed. `path` is cleared
    /// by the early unlink once the consumer acks its attach.
    Live {
        ring: Arc<Ring>,
        segment: u64,
        path: Option<PathBuf>,
    },
    /// The pair degraded to the wire for good.
    Tcp,
}

/// One joiner process's connection(s) to the run.
pub struct NetLink {
    node: u32,
    cores_per_node: u32,
    hub: HubTx,
    injector: FaultInjector,
    metrics: NetMetrics,
    /// The hub stream, parked until `start_reader` wires up the demux.
    stream: Mutex<Option<TcpStream>>,
    /// The p2p peer listener, parked until `start_reader`.
    listener: Mutex<Option<TcpListener>>,
    /// The event loop (p2p mode only).
    reactor: Option<Reactor>,
    /// Direct connections to peer nodes (p2p mode only).
    peers: Option<PeerTable>,
    /// Back-reference for building reactor sinks from `&self` methods;
    /// `Weak` so sinks never keep the link (or its reactor) alive.
    self_ref: Mutex<Weak<NetLink>>,
    /// Keys with an outstanding `PullRequest`, so concurrent local
    /// waiters ask the owner once, not once per waiter.
    inflight: Mutex<HashSet<BufKey>>,
    /// How long the owner side waits for a requested buffer to be put
    /// before answering `PullNack`.
    get_timeout: Duration,
    dart: OnceLock<Arc<DartRuntime>>,
    space: OnceLock<Arc<CodsSpace>>,
    /// The process's flight recorder; wire send/recv events land here
    /// so the hub-side merge can stitch cross-process causal chains.
    /// Disabled until [`NetLink::set_flight`].
    flight: OnceLock<FlightRecorder>,
    /// Live only while [`NetLink::ship_telemetry`] runs: the demux
    /// forwards `TelemetryAck` batch indices here.
    telemetry_ack: Mutex<Option<Sender<u32>>>,
    /// The intra-host shared-memory data plane, armed by
    /// [`NetLink::set_shm`] after the `Welcome`. Unset means every pull
    /// answer rides the wire.
    shm: OnceLock<ShmPlane>,
}

/// Flight events per `Telemetry` frame. Bounds frame size (~100 B per
/// event) so a telemetry batch can never monopolise a writer queue or
/// the reactor loop against data-plane traffic.
const TELEMETRY_BATCH_EVENTS: usize = 2048;

impl NetLink {
    /// Wrap an established, greeted connection in star mode. `stream`
    /// must be past the Hello/Welcome handshake; `get_timeout` mirrors
    /// the space's get timeout (from `Welcome`).
    pub fn new(
        stream: TcpStream,
        node: u32,
        cores_per_node: u32,
        get_timeout: Duration,
        injector: FaultInjector,
        metrics: NetMetrics,
    ) -> Result<Arc<NetLink>, NetError> {
        let reader = stream
            .try_clone()
            .map_err(|e| NetError::Io(e.to_string()))?;
        let peer = Peer::spawn(
            stream,
            injector.clone(),
            metrics.clone(),
            format!("node-{node}"),
        )
        .map_err(|e| NetError::Io(e.to_string()))?;
        let link = Arc::new(NetLink {
            node,
            cores_per_node,
            hub: HubTx::Star(peer),
            injector,
            metrics,
            stream: Mutex::new(Some(reader)),
            listener: Mutex::new(None),
            reactor: None,
            peers: None,
            self_ref: Mutex::new(Weak::new()),
            inflight: Mutex::new(HashSet::new()),
            get_timeout,
            dart: OnceLock::new(),
            space: OnceLock::new(),
            flight: OnceLock::new(),
            telemetry_ack: Mutex::new(None),
            shm: OnceLock::new(),
        });
        *link.self_ref.lock().unwrap() = Arc::downgrade(&link);
        Ok(link)
    }

    /// Wrap an established, greeted connection in reactor/p2p mode.
    ///
    /// `peers` is the address table from the `Welcome`; `listener` is
    /// this process's own peer listener, already bound to the address
    /// it advertised in its `Hello`. `dial_timeout` bounds each direct
    /// peer dial (retried transparently while it lasts).
    #[allow(clippy::too_many_arguments)]
    pub fn new_p2p(
        stream: TcpStream,
        node: u32,
        cores_per_node: u32,
        get_timeout: Duration,
        injector: FaultInjector,
        metrics: NetMetrics,
        peers: Vec<String>,
        listener: TcpListener,
        dial_timeout: Duration,
    ) -> Result<Arc<NetLink>, NetError> {
        let reactor = Reactor::spawn(&format!("node-{node}"), injector.clone(), metrics.clone())
            .map_err(|e| NetError::Io(e.to_string()))?;
        let handle = reactor.handle();
        let hub_token = handle.alloc_token();
        let link = Arc::new(NetLink {
            node,
            cores_per_node,
            hub: HubTx::P2p(handle, hub_token),
            injector,
            metrics,
            stream: Mutex::new(Some(stream)),
            listener: Mutex::new(Some(listener)),
            reactor: Some(reactor),
            peers: Some(PeerTable::new(peers, dial_timeout)),
            self_ref: Mutex::new(Weak::new()),
            inflight: Mutex::new(HashSet::new()),
            get_timeout,
            dart: OnceLock::new(),
            space: OnceLock::new(),
            flight: OnceLock::new(),
            telemetry_ack: Mutex::new(None),
            shm: OnceLock::new(),
        });
        *link.self_ref.lock().unwrap() = Arc::downgrade(&link);
        Ok(link)
    }

    /// The simulated node this process hosts.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Attach the process's flight recorder. Call before the run starts
    /// (alongside `start_reader`); until then wire events are not
    /// recorded. Setting it twice is a bug.
    pub fn set_flight(&self, flight: FlightRecorder) {
        assert!(self.flight.set(flight).is_ok(), "set_flight called twice");
    }

    fn flight(&self) -> FlightRecorder {
        self.flight.get().cloned().unwrap_or_default()
    }

    /// Arm the shared-memory data plane with the `Welcome`'s per-node
    /// host fingerprints. Call before the run starts (alongside
    /// `start_reader`); until then — or when `hosts` carries no match
    /// for this node — every pull answer rides the wire. Setting it
    /// twice is a bug.
    pub fn set_shm(&self, hosts: Vec<String>) {
        let plane = ShmPlane {
            hosts,
            out: Mutex::new(HashMap::new()),
            inbound: Mutex::new(HashMap::new()),
        };
        assert!(self.shm.set(plane).is_ok(), "set_shm called twice");
    }

    /// Whether pull answers to `dst` should ride a shared-memory ring:
    /// both ends advertised the same non-empty host fingerprint.
    fn shm_to(&self, dst: u32) -> bool {
        let Some(plane) = self.shm.get() else {
            return false;
        };
        let me = plane.hosts.get(self.node as usize);
        let them = plane.hosts.get(dst as usize);
        matches!((me, them), (Some(a), Some(b)) if !a.is_empty() && a == b)
    }

    /// Wire up the frame demux and return the control channel it feeds.
    /// Must be called exactly once, after the runtime and space were
    /// built around this link.
    pub fn start_reader(
        self: &Arc<Self>,
        dart: Arc<DartRuntime>,
        space: Arc<CodsSpace>,
    ) -> Receiver<Ctl> {
        self.dart.set(dart).ok().expect("start_reader called twice");
        self.space
            .set(space)
            .ok()
            .expect("start_reader called twice");
        let (ctl_tx, ctl_rx) = unbounded();
        let mut stream = self
            .stream
            .lock()
            .unwrap()
            .take()
            .expect("start_reader called twice");
        match (&self.hub, &self.reactor) {
            (HubTx::Star(_), _) => {
                let link = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("net-reader-{}", self.node))
                    .spawn(move || link.read_loop(&mut stream, &ctl_tx))
                    .expect("spawn net reader");
            }
            (HubTx::P2p(handle, hub_token), Some(reactor)) => {
                // Hub connection: demux frames, surface lost-hub as
                // Shutdown to the wave loop.
                let weak = Arc::downgrade(self);
                let hub_reply = ReplyTx::Reactor(handle.clone(), *hub_token);
                let ctl_for_hub = ctl_tx.clone();
                handle.add_stream(
                    *hub_token,
                    stream,
                    Box::new(move |ev| match ev {
                        ConnEvent::Frame(frame) => {
                            if let Some(link) = weak.upgrade() {
                                link.on_frame(frame, &hub_reply, Some(&ctl_for_hub));
                            }
                        }
                        ConnEvent::Closed(reason) => {
                            let _ = ctl_for_hub.send(Ctl::Shutdown {
                                ok: false,
                                reason: if reason.is_empty() {
                                    "server closed the connection".into()
                                } else {
                                    format!("server connection lost: {reason}")
                                },
                            });
                        }
                    }),
                );
                // Peer listener: every inbound direct connection serves
                // pulls for this process's staged buffers.
                let listener = self
                    .listener
                    .lock()
                    .unwrap()
                    .take()
                    .expect("p2p listener present");
                let weak = Arc::downgrade(self);
                let accept_handle = handle.clone();
                reactor.handle().add_listener(
                    listener,
                    Box::new(move |token, _addr| {
                        let weak = weak.clone();
                        let reply = ReplyTx::Reactor(accept_handle.clone(), token);
                        Box::new(move |ev| {
                            if let ConnEvent::Frame(frame) = ev {
                                if let Some(link) = weak.upgrade() {
                                    link.on_frame(frame, &reply, None);
                                }
                            }
                            // Closed: an inbound peer vanished; its
                            // dialer re-establishes on the next pull.
                        })
                    }),
                );
            }
            _ => unreachable!("p2p HubTx implies a reactor"),
        }
        ctl_rx
    }

    /// Tell the server this node finished a wave.
    pub fn barrier(&self, wave: u32) {
        self.hub.send(Frame::Barrier {
            wave,
            node: self.node,
        });
    }

    /// Send the final per-process report.
    pub fn report(&self, report: NodeReport) {
        self.hub.send(Frame::Report(report));
    }

    /// Ship this process's flight recording and counter snapshot to the
    /// hub as bounded `Telemetry` batches. The shipper waits for the
    /// hub's `TelemetryAck` between batches — one batch in flight at a
    /// time — so telemetry can never build an unbounded queue behind
    /// the data plane. Call before [`NetLink::report`]: the hub
    /// connection is FIFO, so when the `Report` lands the hub already
    /// holds every batch that survived the wire.
    ///
    /// Returns `false` when an ack misses `ack_timeout` (e.g. the
    /// batch was chaos-dropped): the remainder is abandoned and the
    /// hub reports this node's trace incomplete — telemetry loss
    /// degrades the merge, never the run.
    pub fn ship_telemetry(
        &self,
        events: &[Event],
        dropped_events: u64,
        dropped_spans: u64,
        counters: Vec<(String, u64)>,
        ack_timeout: Duration,
    ) -> bool {
        let (tx, rx) = unbounded();
        *self.telemetry_ack.lock().unwrap() = Some(tx);
        // At least one batch even with zero events, so the counters and
        // drop tallies always travel and the hub sees a `last` marker.
        let total = events.len().div_ceil(TELEMETRY_BATCH_EVENTS).max(1);
        let mut chunks = events.chunks(TELEMETRY_BATCH_EVENTS);
        let mut ok = true;
        for batch in 0..total {
            let last = batch + 1 == total;
            self.hub.send(Frame::Telemetry {
                node: self.node,
                batch: batch as u32,
                last,
                dropped_events,
                dropped_spans,
                counters: if last { counters.clone() } else { Vec::new() },
                events: chunks.next().unwrap_or(&[]).to_vec(),
            });
            match rx.recv_timeout(ack_timeout) {
                Ok(acked) if acked == batch as u32 => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        *self.telemetry_ack.lock().unwrap() = None;
        ok
    }

    /// Flush every queued frame onto the wire and stop the transport.
    /// Call before process exit so the `Report` is not lost.
    pub fn close(&self) {
        self.shm_teardown();
        match &self.hub {
            HubTx::Star(peer) => peer.close(),
            HubTx::P2p(..) => {
                if let Some(reactor) = &self.reactor {
                    reactor.shutdown();
                }
            }
        }
    }

    /// Star mode: the blocking demux reader.
    fn read_loop(&self, stream: &mut TcpStream, ctl: &Sender<Ctl>) {
        let reply = match &self.hub {
            HubTx::Star(peer) => ReplyTx::Star(peer.handle()),
            HubTx::P2p(..) => unreachable!("read_loop is star-only"),
        };
        loop {
            let frame = match recv_frame(stream, &self.injector, &self.metrics) {
                Ok(f) => f,
                Err(NetError::Frame(FrameError::Truncated)) => {
                    let _ = ctl.send(Ctl::Shutdown {
                        ok: false,
                        reason: "server closed the connection".into(),
                    });
                    return;
                }
                Err(e) => {
                    let _ = ctl.send(Ctl::Shutdown {
                        ok: false,
                        reason: format!("server connection lost: {e}"),
                    });
                    return;
                }
            };
            if !self.on_frame(frame, &reply, Some(ctl)) {
                return;
            }
        }
    }

    /// Demux one incoming frame. `reply` is where pull answers go —
    /// back up the connection the request arrived on. `ctl` is present
    /// on hub connections (which carry `RunWave`/`Shutdown`) and absent
    /// on direct peer connections. Returns `false` when the connection's
    /// demux should stop (shutdown or protocol violation).
    fn on_frame(&self, frame: Frame, reply: &ReplyTx, ctl: Option<&Sender<Ctl>>) -> bool {
        let dart = self.dart.get().expect("demux after start_reader");
        let space = self.space.get().expect("demux after start_reader");
        match frame {
            Frame::Relay {
                to,
                src,
                tag,
                payload,
            } => {
                dart.deliver(
                    to,
                    Msg {
                        src,
                        tag,
                        payload: Bytes::copy_from_slice(&payload),
                    },
                );
            }
            Frame::PullRequest {
                name,
                version,
                piece,
                from_node,
            } => self.answer_pull(name, version, piece, from_node, dart, reply.clone()),
            Frame::PullData {
                name,
                version,
                piece,
                owner,
                data,
                ..
            } => {
                let flight = self.flight();
                let t0 = flight.now_us();
                let key = BufKey {
                    name,
                    version,
                    piece,
                };
                {
                    let mut inflight = self.inflight.lock().unwrap();
                    inflight.remove(&key);
                    self.metrics.pulls_in_flight.set(inflight.len() as u64);
                }
                // Register directly (NOT through the runtime): the
                // bytes were accounted by the puller's `pull` and
                // must not be re-published as a local put.
                if dart.registry().get(&key).is_none() {
                    let bytes = data.len() as u64;
                    dart.registry()
                        .register(key, owner, Bytes::copy_from_slice(&data));
                    // The recv half of the wire hop. The merge matches
                    // it to the owner side's NetSend by
                    // (src, dst, var, version, piece); dst is the
                    // requesting node's representative client (its
                    // core 0) because the wire carries nodes, not the
                    // individual waiter.
                    flight.record(
                        Event::new(flight.next_seq(), EventKind::NetRecv)
                            .var(name)
                            .version(version)
                            .piece(piece)
                            .src(owner)
                            .dst(self.node * self.cores_per_node)
                            .link(LinkClass::Rdma)
                            .bytes(bytes)
                            .window(t0, flight.now_us().saturating_sub(t0).max(1)),
                    );
                }
            }
            Frame::PullNack {
                name,
                version,
                piece,
                ..
            } => {
                // The owner gave up; our local wait will time out
                // and surface the pull failure. Allow a retry to
                // re-request.
                let mut inflight = self.inflight.lock().unwrap();
                inflight.remove(&BufKey {
                    name,
                    version,
                    piece,
                });
                self.metrics.pulls_in_flight.set(inflight.len() as u64);
            }
            Frame::ShmOffer {
                src_node,
                segment,
                path,
                ..
            } => {
                let attached = self.shm_accept(src_node, segment, &path);
                reply.send(Frame::ShmAck {
                    src_node,
                    dst_node: self.node,
                    segment,
                    seq: 0,
                    attached,
                });
            }
            Frame::ShmDoorbell { src_node, .. } => self.shm_drain(src_node, dart),
            Frame::ShmAck {
                dst_node, attached, ..
            } => self.shm_on_ack(dst_node, attached, reply),
            Frame::TelemetryAck { batch, .. } => {
                // Flow control for an in-progress `ship_telemetry`;
                // a stray ack after the shipper gave up is dropped.
                if let Some(tx) = self.telemetry_ack.lock().unwrap().as_ref() {
                    let _ = tx.send(batch);
                }
            }
            Frame::DhtInsert {
                var,
                version,
                owner,
                piece,
                lbs,
                ubs,
            } => {
                space.apply_remote_dht_insert(
                    var,
                    version,
                    LocationEntry {
                        bbox: BoundingBox::new(&lbs, &ubs),
                        owner,
                        piece,
                    },
                );
            }
            Frame::GetDone { var, version } => space.apply_remote_get_done(var, version),
            Frame::Evict { var, version } => space.apply_remote_evict(var, version),
            Frame::Subscribe {
                var,
                every_k,
                subscriber,
                lbs,
                ubs,
                ..
            } => {
                space.apply_remote_subscribe(&SubSpec {
                    vid: var,
                    region: BoundingBox::new(&lbs, &ubs),
                    every_k,
                    subscriber,
                });
            }
            Frame::SubAck { .. } => {
                // Registration acknowledgement, for protocol symmetry
                // only: the registration race (a put landing before the
                // Subscribe broadcast) is healed by the subscriber's
                // deadline-driven resync, not by waiting on this ack.
            }
            Frame::SubCancel { sub_id } => space.apply_remote_sub_cancel(sub_id),
            Frame::SubPush {
                sub_id,
                var,
                version,
                src,
                subscriber,
                lbs,
                ubs,
                data,
            } => {
                let flight = self.flight();
                let t0 = flight.now_us();
                let frag = BoundingBox::new(&lbs, &ubs);
                let bytes = data.len() as u64;
                space.apply_remote_sub_push(sub_id, version, &frag, &data);
                // The recv half of the push's wire hop; the merge pairs
                // it with the producer side's NetSend by
                // (src, dst, var, version, piece = sub id).
                flight.record(
                    Event::new(flight.next_seq(), EventKind::NetRecv)
                        .var(var)
                        .version(version)
                        .piece(sub_id)
                        .src(src)
                        .dst(subscriber)
                        .link(LinkClass::Rdma)
                        .bytes(bytes)
                        .window(t0, flight.now_us().saturating_sub(t0).max(1)),
                );
            }
            Frame::SubLagged { .. } => {
                // Lag announcements are hub-side diagnostics; one
                // echoed down to a joiner is harmless.
            }
            Frame::RunWave { wave } => {
                if let Some(ctl) = ctl {
                    let _ = ctl.send(Ctl::RunWave(wave));
                }
            }
            Frame::Shutdown { ok, reason } => {
                if let Some(ctl) = ctl {
                    let _ = ctl.send(Ctl::Shutdown { ok, reason });
                }
                return false;
            }
            other => {
                if let Some(ctl) = ctl {
                    let _ = ctl.send(Ctl::Shutdown {
                        ok: false,
                        reason: format!("unexpected frame kind {} from server", other.kind()),
                    });
                    return false;
                }
                // A confused peer connection is ignored, not fatal to
                // the run: its pulls simply won't complete.
            }
        }
        true
    }

    /// Serve one remote pull: wait (on a throwaway thread, so the demux
    /// never blocks) for the buffer to be put locally, then answer with
    /// its bytes — or `PullNack` if the producer never delivers within
    /// the get timeout.
    fn answer_pull(
        &self,
        name: u64,
        version: u64,
        piece: u64,
        from_node: u32,
        dart: &Arc<DartRuntime>,
        reply: ReplyTx,
    ) {
        let key = BufKey {
            name,
            version,
            piece,
        };
        let dart = Arc::clone(dart);
        let timeout = self.get_timeout;
        let flight = self.flight();
        let requester = from_node * self.cores_per_node;
        let weak = self.self_ref.lock().unwrap().clone();
        std::thread::Builder::new()
            .name("net-pull-wait".into())
            .spawn(move || match dart.registry().wait_for(&key, timeout) {
                Some(handle) => {
                    // Same-host pairs go through the shared-memory ring
                    // instead of the socket; everything below is the
                    // wire path.
                    if let Some(link) = weak.upgrade() {
                        let desc = RecordDesc {
                            name,
                            version,
                            piece,
                            owner: handle.owner,
                        };
                        if link.shm_send(
                            from_node,
                            desc,
                            handle.data.as_slice(),
                            &reply,
                            &flight,
                            requester,
                        ) {
                            return;
                        }
                    }
                    // Record *before* enqueueing the answer: once the
                    // consumer can observe these bytes the send event
                    // is already in this process's recorder, so the
                    // collect wave snapshots with no wire event still
                    // unrecorded (zero unmatched pairs). The nominal
                    // 1µs window keeps `send.end <= recv.start` in
                    // real time, which the merge's clock alignment
                    // relaxes over.
                    let t0 = flight.now_us();
                    flight.record(
                        Event::new(flight.next_seq(), EventKind::NetSend)
                            .var(name)
                            .version(version)
                            .piece(piece)
                            .src(handle.owner)
                            .dst(requester)
                            .link(LinkClass::Rdma)
                            .bytes(handle.data.as_slice().len() as u64)
                            .window(t0, 1),
                    );
                    reply.send(Frame::PullData {
                        name,
                        version,
                        piece,
                        owner: handle.owner,
                        to_node: from_node,
                        data: handle.data.as_slice().to_vec(),
                    });
                }
                None => reply.send(Frame::PullNack {
                    name,
                    version,
                    piece,
                    to_node: from_node,
                }),
            })
            .expect("spawn pull waiter");
    }

    /// Create this pair's segment and offer it to the consumer. Run
    /// once per destination, on the first pull answer headed there.
    fn shm_create(&self, dst: u32, reply: &ReplyTx) -> ShmOut {
        let segment = shm_segment_id(self.node, dst);
        // Op-independent chaos verdict: the consumer rolls the same
        // (creator, segment) hash at attach, so a doomed pair skips
        // straight to the wire instead of staging records in a ring
        // nobody will ever drain.
        if self.injector.shm_attach_fails(self.node, segment) {
            self.metrics.shm_fallbacks.inc();
            return ShmOut::Tcp;
        }
        let nonce = SHM_NONCE.fetch_add(1, Ordering::Relaxed);
        let path =
            shm::segment_dir().join(shm::segment_name(std::process::id(), nonce, self.node, dst));
        let map = match ShmMap::create(&path, Ring::required_len(SHM_SLOTS, SHM_ARENA)) {
            Ok(m) => Arc::new(m),
            Err(_) => {
                // No mmap (non-unix), no space, no permission: the wire
                // still works.
                let _ = std::fs::remove_file(&path);
                self.metrics.shm_fallbacks.inc();
                return ShmOut::Tcp;
            }
        };
        let ring = Arc::new(Ring::create(RingMem::from_map(map), SHM_SLOTS, SHM_ARENA));
        reply.send(Frame::ShmOffer {
            src_node: self.node,
            dst_node: dst,
            segment,
            path: path.to_string_lossy().into_owned(),
            slots: SHM_SLOTS as u64,
            arena_bytes: SHM_ARENA,
        });
        ShmOut::Live {
            ring,
            segment,
            path: Some(path),
        }
    }

    /// Try to move one pull answer to `dst` through the pair's ring.
    /// Returns `true` when the record was published and doorbelled (the
    /// caller must not also send `PullData`), `false` when the caller
    /// must use the wire. Records the `NetSend` (between publish and
    /// doorbell, mirroring the wire path's record-before-send rule) and
    /// any backpressure wait.
    fn shm_send(
        &self,
        dst: u32,
        desc: RecordDesc,
        data: &[u8],
        reply: &ReplyTx,
        flight: &FlightRecorder,
        requester: u32,
    ) -> bool {
        if !self.shm_to(dst) {
            return false;
        }
        let plane = self.shm.get().expect("shm_to checked the plane");
        let slot = {
            let mut out = plane.out.lock().unwrap();
            match out.get(&dst) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Arc::new(Mutex::new(self.shm_create(dst, reply)));
                    out.insert(dst, Arc::clone(&s));
                    s
                }
            }
        };
        // Set at the first refusal: the wait is measured, not summed from
        // requested sleeps, which the scheduler always overshoots.
        let mut refused: Option<(u64, Instant)> = None;
        loop {
            {
                // Held for one attempt, never across the sleep: the ack
                // handler takes it on the demux thread, which also runs
                // this node's inbound drains.
                let slot = slot.lock().unwrap();
                let (ring, segment) = match &*slot {
                    ShmOut::Tcp => return false,
                    ShmOut::Live { ring, segment, .. } => (ring, *segment),
                };
                match ring.push(&desc, data) {
                    Ok(seq) => {
                        if let Some((wait_t0, since)) = refused {
                            self.record_shm_wait(
                                flight,
                                &desc,
                                requester,
                                wait_t0,
                                since.elapsed(),
                            );
                        }
                        let t0 = flight.now_us();
                        flight.record(
                            Event::new(flight.next_seq(), EventKind::NetSend)
                                .var(desc.name)
                                .version(desc.version)
                                .piece(desc.piece)
                                .src(desc.owner)
                                .dst(requester)
                                .link(LinkClass::Shm)
                                .bytes(data.len() as u64)
                                .window(t0, 1),
                        );
                        reply.send(Frame::ShmDoorbell {
                            src_node: self.node,
                            dst_node: dst,
                            segment,
                            seq,
                        });
                        self.metrics.shm_frames.inc();
                        self.metrics.shm_bytes.add(data.len() as u64);
                        return true;
                    }
                    Err(PushError::TooBig) => {
                        // This payload can never fit the arena; the pair
                        // itself stays live for smaller records.
                        self.metrics.shm_fallbacks.inc();
                        return false;
                    }
                    Err(PushError::SlotsFull | PushError::ArenaFull) => {
                        let (wait_t0, since) =
                            *refused.get_or_insert_with(|| (flight.now_us(), Instant::now()));
                        let waited = since.elapsed();
                        if waited >= SHM_FULL_WAIT {
                            self.record_shm_wait(flight, &desc, requester, wait_t0, waited);
                            self.metrics.shm_fallbacks.inc();
                            return false;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Backpressure accounting: a ring-full wait surfaces as a
    /// shm-classed `Pull` event so the existing shm-wait quantiles (and
    /// the watchdog baseline built on them) see it.
    fn record_shm_wait(
        &self,
        flight: &FlightRecorder,
        desc: &RecordDesc,
        requester: u32,
        t0: u64,
        waited: Duration,
    ) {
        let wait_us = waited.as_micros() as u64;
        flight.record(
            Event::new(flight.next_seq(), EventKind::Pull { wait_us })
                .var(desc.name)
                .version(desc.version)
                .piece(desc.piece)
                .src(desc.owner)
                .dst(requester)
                .link(LinkClass::Shm)
                .window(t0, wait_us.max(1)),
        );
    }

    /// Consumer side of a `ShmOffer`: attach the producer's segment.
    /// Returns whether the attach succeeded (the `ShmAck` verdict).
    fn shm_accept(&self, src_node: u32, segment: u64, path: &str) -> bool {
        // Same hash the producer rolled at create; a one-sided chaos
        // plan still degrades cleanly through the nack.
        if self.injector.shm_attach_fails(src_node, segment) {
            self.metrics.shm_fallbacks.inc();
            return false;
        }
        let Some(plane) = self.shm.get() else {
            return false;
        };
        let map = match ShmMap::open(Path::new(path)) {
            Ok(m) => Arc::new(m),
            Err(_) => {
                self.metrics.shm_fallbacks.inc();
                return false;
            }
        };
        let ring = match Ring::attach(RingMem::from_map(map)) {
            Ok(r) => Arc::new(r),
            Err(_) => {
                self.metrics.shm_fallbacks.inc();
                return false;
            }
        };
        plane.inbound.lock().unwrap().insert(src_node, ring);
        true
    }

    /// Consumer side of a `ShmDoorbell`: drain every published record
    /// from the pair's ring into the registry. Each payload is copied
    /// out into heap [`Bytes`] and its arena space released before the
    /// next pop, so the ring only ever holds records in flight: a
    /// registered view borrowing the arena would pin it until the
    /// version is evicted, and the producer's next piece would wait for
    /// that and fall back to the wire.
    fn shm_drain(&self, src_node: u32, dart: &Arc<DartRuntime>) {
        let ring = match self.shm.get() {
            Some(plane) => plane.inbound.lock().unwrap().get(&src_node).cloned(),
            None => None,
        };
        // No ring: the attach failed and our nack makes the producer
        // resend over the wire — the doorbell is moot.
        let Some(ring) = ring else { return };
        let flight = self.flight();
        let drain_one = |desc: &RecordDesc, payload: &[u8]| {
            let t0 = flight.now_us();
            let key = BufKey {
                name: desc.name,
                version: desc.version,
                piece: desc.piece,
            };
            {
                let mut inflight = self.inflight.lock().unwrap();
                inflight.remove(&key);
                self.metrics.pulls_in_flight.set(inflight.len() as u64);
            }
            // A wire copy may have beaten this record in (pull retry, or
            // the pair degraded mid-flight); then it is simply dropped.
            if dart.registry().get(&key).is_some() {
                return;
            }
            let bytes = payload.len() as u64;
            // Register directly, like the PullData branch: the puller's
            // `pull` already accounted these bytes.
            dart.registry()
                .register(key, desc.owner, Bytes::copy_from_slice(payload));
            self.metrics.shm_frames.inc();
            self.metrics.shm_bytes.add(bytes);
            flight.record(
                Event::new(flight.next_seq(), EventKind::NetRecv)
                    .var(key.name)
                    .version(key.version)
                    .piece(key.piece)
                    .src(desc.owner)
                    .dst(self.node * self.cores_per_node)
                    .link(LinkClass::Shm)
                    .bytes(bytes)
                    .window(t0, flight.now_us().saturating_sub(t0).max(1)),
            );
        };
        while ring.pop_with(drain_one).is_some() {}
    }

    /// Producer side of a `ShmAck`. Attached: unlink the segment name
    /// early — the consumer holds its own mapping now, so a crash from
    /// here on leaks nothing. Refused: resend everything staged over
    /// the wire and degrade the pair for good.
    fn shm_on_ack(&self, dst_node: u32, attached: bool, reply: &ReplyTx) {
        let slot = match self.shm.get() {
            Some(plane) => plane.out.lock().unwrap().get(&dst_node).cloned(),
            None => None,
        };
        let Some(slot) = slot else { return };
        let mut slot = slot.lock().unwrap();
        match &mut *slot {
            ShmOut::Live { path, .. } if attached => {
                if let Some(p) = path.take() {
                    let _ = std::fs::remove_file(p);
                }
            }
            ShmOut::Live { ring, path, .. } => {
                // The consumer never attached, so nothing was popped:
                // every staged record is still in `unconsumed`. The
                // earlier shm-classed `NetSend`s match the `NetRecv`s
                // these wire copies will produce (the merge matches by
                // key, not link class).
                for rec in ring.unconsumed() {
                    self.metrics.shm_fallbacks.inc();
                    reply.send(Frame::PullData {
                        name: rec.desc.name,
                        version: rec.desc.version,
                        piece: rec.desc.piece,
                        owner: rec.desc.owner,
                        to_node: dst_node,
                        data: ring.mem().slice(rec.off, rec.len).to_vec(),
                    });
                }
                if let Some(p) = path.take() {
                    let _ = std::fs::remove_file(p);
                }
                *slot = ShmOut::Tcp;
            }
            ShmOut::Tcp => {}
        }
    }

    /// Unlink any segment whose ack never arrived. The early unlink
    /// handles the common case; this catches runs torn down between
    /// offer and ack.
    fn shm_teardown(&self) {
        if let Some(plane) = self.shm.get() {
            for slot in plane.out.lock().unwrap().values() {
                if let ShmOut::Live { path, .. } = &mut *slot.lock().unwrap() {
                    if let Some(p) = path.take() {
                        let _ = std::fs::remove_file(p);
                    }
                }
            }
        }
    }

    /// P2p: the live token for the direct connection to `node`, dialing
    /// it first if needed.
    fn ensure_peer(&self, owner_node: u32) -> Result<Token, NetError> {
        let (table, reactor) = match (&self.peers, &self.reactor) {
            (Some(t), Some(r)) => (t, r),
            _ => return Err(NetError::Protocol("not a p2p link".into())),
        };
        let handle = reactor.handle();
        let weak = self.self_ref.lock().unwrap().clone();
        table.ensure(
            owner_node,
            self.node,
            &handle,
            &self.injector,
            &self.metrics,
            |token| {
                let reply = ReplyTx::Reactor(handle.clone(), token);
                let weak2 = weak.clone();
                let sink: Sink = Box::new(move |ev| match ev {
                    ConnEvent::Frame(frame) => {
                        if let Some(link) = weak2.upgrade() {
                            link.on_frame(frame, &reply, None);
                        }
                    }
                    ConnEvent::Closed(_) => {
                        // Forget the dead connection so the next pull
                        // re-dials (transparent reconnect).
                        if let Some(link) = weak2.upgrade() {
                            if let Some(table) = &link.peers {
                                table.forget(token);
                            }
                        }
                    }
                });
                sink
            },
        )
    }
}

impl Transport for NetLink {
    fn hosts(&self, client: ClientId) -> bool {
        client / self.cores_per_node == self.node
    }

    fn forward(&self, to: ClientId, msg: &Msg) {
        self.hub.send(Frame::Relay {
            to,
            src: msg.src,
            tag: msg.tag,
            payload: msg.payload.as_slice().to_vec(),
        });
    }

    fn publish(&self, key: &BufKey, owner: ClientId, bytes: u64) {
        self.hub.send(Frame::PutNotify {
            name: key.name,
            version: key.version,
            piece: key.piece,
            owner,
            bytes,
        });
    }

    fn request(&self, key: &BufKey) {
        let owner_node = ((key.piece >> 32) as u32) / self.cores_per_node;
        // A local owner's put registers the key in this very process;
        // asking would only loop the answer back through the hub or a
        // shm ring to ourselves.
        if owner_node == self.node {
            return;
        }
        {
            let mut inflight = self.inflight.lock().unwrap();
            if !inflight.insert(*key) {
                return;
            }
            self.metrics.pulls_in_flight.set(inflight.len() as u64);
        }
        let req = Frame::PullRequest {
            name: key.name,
            version: key.version,
            piece: key.piece,
            from_node: self.node,
        };
        if self.peers.is_some() {
            // P2p: straight to the owner's node, dialing on first use.
            match self.ensure_peer(owner_node) {
                Ok(token) => {
                    if let HubTx::P2p(handle, _) = &self.hub {
                        handle.send(token, req);
                    }
                }
                Err(_) => {
                    // Dial failed: release the inflight slot so the
                    // local wait times out naming the owner (and a
                    // retry may re-dial).
                    let mut inflight = self.inflight.lock().unwrap();
                    inflight.remove(key);
                    self.metrics.pulls_in_flight.set(inflight.len() as u64);
                }
            }
        } else {
            self.hub.send(req);
        }
    }

    fn dial_peer(&self, client: ClientId) -> bool {
        if self.peers.is_none() || self.hosts(client) {
            return false;
        }
        self.ensure_peer(client / self.cores_per_node).is_ok()
    }
}

impl SpaceMirror for NetLink {
    fn dht_insert(&self, var: u64, version: u64, entry: &LocationEntry) {
        let nd = entry.bbox.ndim();
        self.hub.send(Frame::DhtInsert {
            var,
            version,
            owner: entry.owner,
            piece: entry.piece,
            lbs: (0..nd).map(|d| entry.bbox.lb(d)).collect(),
            ubs: (0..nd).map(|d| entry.bbox.ub(d)).collect(),
        });
    }

    fn get_done(&self, var: u64, version: u64) {
        self.hub.send(Frame::GetDone { var, version });
    }

    fn evict(&self, var: u64, version: u64) {
        self.hub.send(Frame::Evict { var, version });
    }

    fn sub_open(&self, spec: &SubSpec) {
        let nd = spec.region.ndim();
        self.hub.send(Frame::Subscribe {
            sub_id: spec.id(),
            var: spec.vid,
            every_k: spec.every_k,
            subscriber: spec.subscriber,
            lbs: (0..nd).map(|d| spec.region.lb(d)).collect(),
            ubs: (0..nd).map(|d| spec.region.ub(d)).collect(),
        });
    }

    fn sub_cancel(&self, id: SubId) {
        self.hub.send(Frame::SubCancel { sub_id: id });
    }

    fn sub_push(
        &self,
        id: SubId,
        var: u64,
        version: u64,
        src: ClientId,
        subscriber: ClientId,
        frag: &BoundingBox,
        data: &[u8],
    ) {
        let nd = frag.ndim();
        let frame = Frame::SubPush {
            sub_id: id,
            var,
            version,
            src,
            subscriber,
            lbs: (0..nd).map(|d| frag.lb(d)).collect(),
            ubs: (0..nd).map(|d| frag.ub(d)).collect(),
            data: data.to_vec(),
        };
        // Record the send half before the bytes become observable
        // remotely, mirroring the pull path's ordering guarantee.
        let flight = self.flight();
        let t0 = flight.now_us();
        flight.record(
            Event::new(flight.next_seq(), EventKind::NetSend)
                .var(var)
                .version(version)
                .piece(id)
                .src(src)
                .dst(subscriber)
                .link(LinkClass::Rdma)
                .bytes(data.len() as u64)
                .window(t0, 1),
        );
        if self.peers.is_some() {
            // P2p: straight to the subscriber's node, dialing on first
            // use; the hub stays control-only. A failed dial is a lost
            // push — the subscriber's deadline fires and it resyncs
            // with an ordinary get, so the loss is always healable.
            if let Ok(token) = self.ensure_peer(subscriber / self.cores_per_node) {
                if let HubTx::P2p(handle, _) = &self.hub {
                    self.metrics.sub_push_p2p.inc();
                    handle.send(token, frame);
                }
            }
            return;
        }
        self.hub.send(frame);
    }

    fn sub_lagged(&self, id: SubId, version: u64, subscriber: ClientId) {
        self.hub.send(Frame::SubLagged {
            sub_id: id,
            version,
            subscriber,
        });
    }
}
