//! The connection layer: counted, fault-gated frame I/O over
//! `std::net::TcpStream`, per-peer writer threads and retrying connect.
//!
//! Fault gating is by frame class, decided here (the caller of the
//! codec), not in the chaos plan: only fault-eligible frames — the
//! data plane ([`Frame::PullData`]) and the telemetry plane
//! ([`Frame::Telemetry`], whose loss degrades observability, never a
//! run) — are offered to the `net.send` / `net.recv` sites, because
//! dropping other control frames would model an unreliable management
//! server, which neither the paper's system nor this one has. Connect
//! attempts are offered to `net.connect` on every try.

use crate::frame::{Frame, FrameError};
use insitu_fabric::{FaultAction, FaultInjector, NetOp};
use insitu_telemetry::{Counter, Gauge, Recorder};
use insitu_util::channel::{unbounded, Receiver, Sender};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Wire-transport failures, as seen by the hub and the link.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// Underlying socket error (includes a peer hanging up).
    Io(String),
    /// A deadline expired (connect retries, barrier or report waits).
    Timeout(String),
    /// The peer violated the protocol (bad handshake, out-of-range node).
    Protocol(String),
    /// The codec rejected a frame.
    Frame(FrameError),
    /// An injected `net.connect` fault forbade the operation.
    Fault(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net i/o: {e}"),
            NetError::Timeout(e) => write!(f, "net timeout: {e}"),
            NetError::Protocol(e) => write!(f, "net protocol: {e}"),
            NetError::Frame(e) => write!(f, "net frame: {e}"),
            NetError::Fault(e) => write!(f, "net fault injected: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => NetError::Io(io),
            other => NetError::Frame(other),
        }
    }
}

/// The subsystem's telemetry counters, surfaced in the registry
/// snapshot as `net.*`.
#[derive(Clone)]
pub struct NetMetrics {
    /// Frame bytes written to sockets (length word included).
    pub bytes_sent: Counter,
    /// Frame bytes read from sockets (length word included).
    pub bytes_recv: Counter,
    /// Frames moved in either direction.
    pub frames: Counter,
    /// Connect attempts that failed and were retried.
    pub reconnects: Counter,
    /// PullData frames routed through the hub (star topology). The p2p
    /// acceptance gate asserts this stays zero in reactor mode: the hub
    /// must carry control traffic only.
    pub pull_hub: Counter,
    /// PullData frames staged on direct node↔node links (p2p topology).
    pub pull_p2p: Counter,
    /// SubPush frames routed through the hub (star topology). Like
    /// `pull_hub`, the p2p acceptance gate asserts this stays zero in
    /// reactor mode.
    pub sub_push_hub: Counter,
    /// SubPush frames staged on direct node↔node links (p2p topology).
    pub sub_push_p2p: Counter,
    /// Link-stall episodes declared by the service watchdog (no pull
    /// progress within its stall window, or p99 drift past its factor).
    pub link_stalls: Counter,
    /// Payload bytes moved through intra-host shared-memory rings
    /// (either direction), never touching a socket.
    pub shm_bytes: Counter,
    /// PullData records moved through intra-host shared-memory rings.
    pub shm_frames: Counter,
    /// Times a same-host pair degraded a record (or the whole pair) to
    /// the TCP path: attach failures, ring backpressure deadlines,
    /// payloads larger than the arena.
    pub shm_fallbacks: Counter,
    /// Pulls requested but not yet landed, kept current by the link.
    pub pulls_in_flight: Gauge,
    /// Bytes staged on this process's reactor send paths, encoded but
    /// not yet flushed to a socket — the wire-side queue depth. Stays 0
    /// in star mode, where the writer threads block instead of staging.
    pub bytes_in_flight: Gauge,
}

impl NetMetrics {
    /// Counters registered under `net.*` in `recorder`.
    pub fn new(recorder: &Recorder) -> Self {
        NetMetrics {
            bytes_sent: recorder.counter("net.bytes_sent"),
            bytes_recv: recorder.counter("net.bytes_recv"),
            frames: recorder.counter("net.frames"),
            reconnects: recorder.counter("net.reconnects"),
            pull_hub: recorder.counter("net.pull_frames_hub"),
            pull_p2p: recorder.counter("net.pull_frames_p2p"),
            sub_push_hub: recorder.counter("net.sub_push_hub"),
            sub_push_p2p: recorder.counter("net.sub_push_p2p"),
            link_stalls: recorder.counter("net.link_stalls"),
            shm_bytes: recorder.counter("net.shm_bytes"),
            shm_frames: recorder.counter("net.shm_frames"),
            shm_fallbacks: recorder.counter("net.shm_fallbacks"),
            pulls_in_flight: recorder.gauge("net.pulls_in_flight"),
            bytes_in_flight: recorder.gauge("net.bytes_in_flight"),
        }
    }
}

/// Write one frame, consulting the `net.send` fault site for
/// fault-eligible frames (pull data and telemetry batches). A dropped
/// frame is silently not written (the wire "lost" it); a delayed frame
/// sleeps first. Control-plane frames bypass the injector entirely.
pub fn send_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<(), NetError> {
    if frame.fault_eligible() {
        let (a, b) = frame.fault_ids();
        match injector.on_net(NetOp::Send, frame.kind(), a, b) {
            FaultAction::Drop => return Ok(()),
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Proceed => {}
        }
    }
    let bytes = frame.encode();
    stream
        .write_all(&bytes)
        .and_then(|_| stream.flush())
        .map_err(|e| NetError::Io(e.to_string()))?;
    metrics.bytes_sent.add(bytes.len() as u64);
    metrics.frames.inc();
    Ok(())
}

/// Read frames until one survives the `net.recv` fault site. Bytes and
/// frames are counted on arrival (the wire carried them); a dropped
/// fault-eligible frame is then discarded and the read continues,
/// exactly as if the frame had been lost in flight.
pub fn recv_frame(
    stream: &mut TcpStream,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<Frame, NetError> {
    loop {
        let (frame, wire_len) = Frame::read_counted(stream)?;
        metrics.bytes_recv.add(wire_len as u64);
        metrics.frames.inc();
        if frame.fault_eligible() {
            let (a, b) = frame.fault_ids();
            match injector.on_net(NetOp::Recv, frame.kind(), a, b) {
                FaultAction::Drop => continue,
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Proceed => {}
            }
        }
        return Ok(frame);
    }
}

/// Connect to `addr`, retrying until `timeout` elapses.
///
/// Each attempt consults the `net.connect` fault site with ids
/// `(node, 0)`; a `Drop` verdict fails immediately — the site is
/// deterministic, so retrying would reroll the same refusal forever.
/// Unresolvable addresses fail immediately with a clear error; refused
/// or unreachable endpoints are retried (counting `net.reconnects`)
/// until the deadline, then fail with an error naming the address.
pub fn connect_with_retry(
    addr: &str,
    node: u32,
    timeout: Duration,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<TcpStream, NetError> {
    let deadline = Instant::now() + timeout;
    let targets: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| NetError::Protocol(format!("cannot resolve {addr}: {e}")))?
        .collect();
    let target = *targets
        .first()
        .ok_or_else(|| NetError::Protocol(format!("{addr} resolves to no address")))?;
    let mut last_err = String::new();
    loop {
        match injector.on_net(NetOp::Connect, 0, node as u64, 0) {
            FaultAction::Drop => {
                return Err(NetError::Fault(format!(
                    "connect from node {node} to {addr} dropped"
                )));
            }
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Proceed => {}
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(NetError::Timeout(format!(
                "could not connect to {addr} within {}ms: {last_err}",
                timeout.as_millis()
            )));
        }
        let budget = (deadline - now).min(Duration::from_millis(250));
        match TcpStream::connect_timeout(&target, budget) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last_err = e.to_string();
                metrics.reconnects.inc();
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }
}

/// What a writer thread dequeues.
enum Out {
    Frame(Frame),
    Close,
}

/// A cloneable handle that enqueues frames for a peer's writer thread.
/// FIFO per peer: frames hit the wire in enqueue order, which — over
/// TCP's own ordering — is what the wave barriers rely on.
#[derive(Clone)]
pub struct PeerHandle {
    tx: Sender<Out>,
}

impl PeerHandle {
    /// Enqueue `frame`; never blocks. Silently ignored after close or
    /// writer failure (the peer is gone either way, and the run-level
    /// barriers surface that).
    pub fn send(&self, frame: Frame) {
        let _ = self.tx.send(Out::Frame(frame));
    }
}

/// One peer's writer: a dedicated thread draining an unbounded queue
/// onto the socket, so protocol threads never block on peer sockets.
pub struct Peer {
    tx: Sender<Out>,
    writer: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Peer {
    /// Spawn the writer thread over its own clone of `stream`.
    pub fn spawn(
        stream: TcpStream,
        injector: FaultInjector,
        metrics: NetMetrics,
        label: String,
    ) -> std::io::Result<Peer> {
        let mut stream = stream;
        let (tx, rx): (Sender<Out>, Receiver<Out>) = unbounded();
        let writer = std::thread::Builder::new()
            .name(format!("net-writer-{label}"))
            .spawn(move || {
                while let Ok(Out::Frame(frame)) = rx.recv() {
                    if send_frame(&mut stream, &frame, &injector, &metrics).is_err() {
                        // The peer hung up; drain silently so senders
                        // never block. The run-level barriers report it.
                        break;
                    }
                }
            })?;
        Ok(Peer {
            tx,
            writer: std::sync::Mutex::new(Some(writer)),
        })
    }

    /// A cloneable enqueue handle for other threads.
    pub fn handle(&self) -> PeerHandle {
        PeerHandle {
            tx: self.tx.clone(),
        }
    }

    /// Enqueue `frame`.
    pub fn send(&self, frame: Frame) {
        let _ = self.tx.send(Out::Frame(frame));
    }

    /// Flush and stop: the writer drains every queued frame onto the
    /// wire, then exits; blocks until it has. Frames sent after close
    /// are silently discarded (the peer is gone).
    pub fn close(&self) {
        let _ = self.tx.send(Out::Close);
        if let Some(h) = self.writer.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frames_cross_a_socket_and_are_counted() {
        // A control frame, and a multi-MiB data frame that overflows the
        // socket buffers (so the send runs on its own thread).
        let pull = Frame::PullData {
            name: 9,
            version: 1,
            piece: 3 << 32,
            owner: 3,
            to_node: 0,
            data: (0..3u32 << 20).map(|i| i as u8).collect(),
        };
        for frame in [Frame::Barrier { wave: 4, node: 1 }, pull] {
            let (mut a, mut b) = pair();
            let inj = FaultInjector::none();
            let m = NetMetrics::new(&Recorder::disabled());
            let sender = {
                let (frame, inj, m) = (frame.clone(), inj.clone(), m.clone());
                std::thread::spawn(move || send_frame(&mut a, &frame, &inj, &m).unwrap())
            };
            assert_eq!(recv_frame(&mut b, &inj, &m).unwrap(), frame);
            sender.join().unwrap();
            let wire = frame.encode().len() as u64;
            assert_eq!(m.bytes_sent.get(), wire);
            assert_eq!(m.bytes_recv.get(), wire);
            assert_eq!(m.frames.get(), 2);
        }
    }

    #[test]
    fn writer_thread_preserves_fifo_and_flushes_on_close() {
        let (a, mut b) = pair();
        let inj = FaultInjector::none();
        let m = NetMetrics::new(&Recorder::disabled());
        let peer = Peer::spawn(a, inj.clone(), m.clone(), "test".into()).unwrap();
        for wave in 0..32 {
            peer.send(Frame::RunWave { wave });
        }
        peer.close();
        for wave in 0..32 {
            assert_eq!(
                recv_frame(&mut b, &inj, &m).unwrap(),
                Frame::RunWave { wave }
            );
        }
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        // Hold 127.0.0.1:P for the whole test: 127.0.0.2:P refuses every
        // connection, and no concurrent test can take P while it is held.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.2:{}", listener.local_addr().unwrap().port());
        // Nothing is listening: a short budget times out with the
        // address in the error.
        let m = NetMetrics::new(&Recorder::disabled());
        let err = connect_with_retry(
            &addr,
            0,
            Duration::from_millis(120),
            &FaultInjector::none(),
            &m,
        )
        .unwrap_err();
        match err {
            NetError::Timeout(msg) => assert!(msg.contains(&addr), "{msg}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(m.reconnects.get() >= 1);
    }

    #[test]
    fn unresolvable_address_fails_immediately() {
        let err = connect_with_retry(
            "definitely-not-a-host.invalid:1",
            0,
            Duration::from_secs(30),
            &FaultInjector::none(),
            &NetMetrics::new(&Recorder::disabled()),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
    }
}
