//! The non-blocking reactor: one thread, many connections.
//!
//! The star transport of PR 5 spends two threads per peer on the server
//! (a FIFO writer plus a routing reader) — thread count scales with
//! peer count, and every data-plane byte transits the hub. The reactor
//! replaces that with a single event loop per process:
//!
//! - every connection (and listener) registers with the
//!   [`insitu_util::Poller`] readiness shim in non-blocking mode;
//! - each connection owns a staged *write* buffer — all frames queued
//!   since the last loop iteration are encoded back-to-back and cross
//!   the socket in as few `write` syscalls as the kernel allows
//!   (small-message coalescing), preserving per-connection FIFO order;
//! - each connection owns a staged *read* buffer drained through
//!   [`FrameDecoder`], so a socket read may surface zero, one or many
//!   frames regardless of how the peer batched them;
//! - incoming frames are handed to a per-connection *sink* callback on
//!   the reactor thread; sinks must not block (hand off to channels).
//!
//! Fault gating matches the blocking path exactly: only data-plane
//! frames ([`Frame::PullData`]) are offered to the `net.send` /
//! `net.recv` sites; a `Drop` verdict discards the frame (send: never
//! staged; recv: decoded then discarded), a `Delay` sleeps the reactor
//! thread — the whole process's wire stalls, which is the closest
//! single-threaded analogue of a congested NIC.

use crate::conn::NetMetrics;
use crate::frame::{Frame, FrameDecoder};
use insitu_fabric::{FaultAction, FaultInjector, NetOp};
use insitu_util::channel::{unbounded, Receiver, Sender};
use insitu_util::Poller;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifies one connection owned by a reactor. Tokens are allocated
/// from the reactor's handle and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// What a connection's sink receives.
pub enum ConnEvent {
    /// A complete frame arrived (and survived the `net.recv` site).
    Frame(Frame),
    /// The connection ended. An empty reason is a clean EOF; otherwise
    /// the reason names the socket or protocol error. The token is dead
    /// afterwards: sends to it are silently dropped.
    Closed(String),
}

/// Per-connection event callback, invoked on the reactor thread.
/// Must not block — hand frames off to a channel and return.
pub type Sink = Box<dyn FnMut(ConnEvent) + Send>;

/// Listener callback: invoked for each accepted connection with its
/// freshly-allocated token and remote address; returns the sink that
/// will receive the connection's events.
pub type AcceptFn = Box<dyn FnMut(Token, SocketAddr) -> Sink + Send>;

/// Reserved token for the reactor's internal wake pipe.
const WAKE: u64 = u64::MAX;

/// Commands from handles to the reactor thread.
enum Cmd {
    AddStream(Token, TcpStream, Sink),
    AddListener(TcpListener, AcceptFn),
    Send(Token, Frame),
    Close(Token),
    Shutdown,
}

/// A cloneable command/send handle onto a running reactor.
#[derive(Clone)]
pub struct ReactorHandle {
    tx: Sender<Cmd>,
    wake: Arc<TcpStream>,
    next_token: Arc<AtomicU64>,
}

impl ReactorHandle {
    /// Allocate a fresh connection token (never reused).
    pub fn alloc_token(&self) -> Token {
        Token(self.next_token.fetch_add(1, Ordering::Relaxed))
    }

    /// Adopt `stream` under `token`, delivering its events to `sink`.
    pub fn add_stream(&self, token: Token, stream: TcpStream, sink: Sink) {
        self.push(Cmd::AddStream(token, stream, sink));
    }

    /// Adopt `listener`; each accepted connection gets a token and asks
    /// `accept` for its sink.
    pub fn add_listener(&self, listener: TcpListener, accept: AcceptFn) {
        self.push(Cmd::AddListener(listener, accept));
    }

    /// Queue `frame` for `token`. FIFO per connection; frames queued in
    /// one loop iteration coalesce into one write run. Sends to unknown
    /// or closed tokens are silently dropped (the peer is gone, and the
    /// run-level barriers surface that).
    pub fn send(&self, token: Token, frame: Frame) {
        self.push(Cmd::Send(token, frame));
    }

    /// Flush and close one connection.
    pub fn close(&self, token: Token) {
        self.push(Cmd::Close(token));
    }

    fn push(&self, cmd: Cmd) {
        if self.tx.send(cmd).is_ok() {
            // Nudge the poll loop; a full pipe already guarantees a
            // wake-up, so a WouldBlock here is success.
            let _ = (&*self.wake).write(&[1u8]);
        }
    }
}

/// One connection's state inside the loop.
struct Conn {
    stream: TcpStream,
    sink: Sink,
    decoder: FrameDecoder,
    /// Staged outbound bytes (encoded frames, back to back).
    out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    out_pos: usize,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// A running reactor: the event-loop thread plus its handle.
///
/// Dropping (or [`shutdown`](Reactor::shutdown)) flushes every staged
/// write buffer — bounded by a few seconds — then joins the thread.
pub struct Reactor {
    handle: ReactorHandle,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawn the event-loop thread. `label` names the thread; the
    /// injector and metrics are shared with the rest of the transport.
    pub fn spawn(
        label: &str,
        injector: FaultInjector,
        metrics: NetMetrics,
    ) -> std::io::Result<Reactor> {
        // Self-pipe via a loopback TCP pair: handles write a byte to
        // wake the poll loop out of its sleep.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(listener.local_addr()?)?;
        let (wake_rx, _) = listener.accept()?;
        wake_tx.set_nonblocking(true)?;
        wake_tx.set_nodelay(true)?;

        let (tx, rx) = unbounded();
        let next_token = Arc::new(AtomicU64::new(0));
        let handle = ReactorHandle {
            tx,
            wake: Arc::new(wake_tx),
            next_token: next_token.clone(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("net-reactor-{label}"))
            .spawn(move || run_loop(rx, wake_rx, next_token, injector, metrics))?;
        Ok(Reactor {
            handle,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The cloneable command handle.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Flush all staged writes (bounded), close every connection and
    /// join the loop thread. Idempotent.
    pub fn shutdown(&self) {
        self.handle.push(Cmd::Shutdown);
        if let Some(h) = self.thread.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long shutdown keeps trying to drain staged writes before giving
/// up on a congested peer.
const SHUTDOWN_FLUSH_BUDGET: Duration = Duration::from_secs(5);

/// Register `stream` with the poller and adopt it into the connection
/// table; on failure the sink hears `Closed` immediately.
fn adopt(
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    token: Token,
    stream: TcpStream,
    mut sink: Sink,
) {
    let _ = stream.set_nodelay(true);
    let registered = stream.try_clone().and_then(|clone| {
        poller.register(token.0, clone)?;
        stream.set_nonblocking(true)
    });
    match registered {
        Ok(()) => {
            conns.insert(
                token.0,
                Conn {
                    stream,
                    sink,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    out_pos: 0,
                },
            );
        }
        Err(e) => sink(ConnEvent::Closed(format!("register: {e}"))),
    }
}

/// The event loop.
fn run_loop(
    rx: Receiver<Cmd>,
    wake_rx: TcpStream,
    next_token: Arc<AtomicU64>,
    injector: FaultInjector,
    metrics: NetMetrics,
) {
    let mut poller = Poller::new();
    // The wake pipe is permanently registered under the reserved token.
    if poller
        .register(WAKE, wake_rx.try_clone().expect("clone wake pipe"))
        .is_err()
    {
        return;
    }
    let mut wake_rx = wake_rx;
    let _ = wake_rx.set_nonblocking(true);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut listeners: Vec<(TcpListener, AcceptFn)> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut closed: Vec<(u64, String)> = Vec::new();

    loop {
        // (1) Drain every pending command before touching the wire:
        // consecutive Sends to one connection coalesce into its staged
        // buffer and cross the socket as one write run.
        let mut shutdown = false;
        while let Some(cmd) = rx.try_recv() {
            match cmd {
                Cmd::AddStream(token, stream, sink) => {
                    adopt(&mut poller, &mut conns, token, stream, sink);
                }
                Cmd::AddListener(listener, accept) => {
                    if listener.set_nonblocking(true).is_ok() {
                        listeners.push((listener, accept));
                    }
                }
                Cmd::Send(token, frame) => {
                    let Some(conn) = conns.get_mut(&token.0) else {
                        continue; // peer already gone
                    };
                    if frame.fault_eligible() {
                        let (a, b) = frame.fault_ids();
                        match injector.on_net(NetOp::Send, frame.kind(), a, b) {
                            FaultAction::Drop => continue,
                            // Delay stalls the whole reactor — the
                            // process's single wire thread — which is
                            // the intended congestion model.
                            FaultAction::Delay(d) => std::thread::sleep(d),
                            FaultAction::Proceed => {}
                        }
                    }
                    if frame.is_data_plane() {
                        metrics.pull_p2p.inc();
                    }
                    frame.encode_into(&mut conn.out);
                    metrics.frames.inc();
                }
                Cmd::Close(token) => {
                    if let Some(conn) = conns.get_mut(&token.0) {
                        let _ = flush(conn, &metrics);
                        poller.deregister(token.0);
                        conns.remove(&token.0);
                    }
                }
                Cmd::Shutdown => shutdown = true,
            }
        }
        if shutdown {
            let deadline = Instant::now() + SHUTDOWN_FLUSH_BUDGET;
            for (_, conn) in conns.iter_mut() {
                while conn.pending_out() > 0 && Instant::now() < deadline {
                    if flush(conn, &metrics).is_err() {
                        break;
                    }
                    if conn.pending_out() > 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
            return;
        }

        // (2) Accept on every listener until it would block.
        for (listener, accept) in listeners.iter_mut() {
            loop {
                match listener.accept() {
                    Ok((stream, addr)) => {
                        let token = Token(next_token.fetch_add(1, Ordering::Relaxed));
                        let sink = accept(token, addr);
                        adopt(&mut poller, &mut conns, token, stream, sink);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // (3) Flush staged writes.
        closed.clear();
        for (tok, conn) in conns.iter_mut() {
            if conn.pending_out() > 0 {
                if let Err(e) = flush(conn, &metrics) {
                    closed.push((*tok, format!("write: {e}")));
                }
            }
        }
        for (tok, reason) in closed.drain(..) {
            if let Some(mut conn) = conns.remove(&tok) {
                poller.deregister(tok);
                (conn.sink)(ConnEvent::Closed(reason));
            }
        }

        // (4) Wait for readiness. Short timeout while writes are
        // pending or listeners may have queued accepts; longer when
        // fully idle.
        let staged: usize = conns.values().map(Conn::pending_out).sum();
        metrics.bytes_in_flight.set(staged as u64);
        let pending_writes = staged > 0;
        let timeout = if pending_writes {
            Duration::from_micros(50)
        } else if !listeners.is_empty() {
            Duration::from_millis(2)
        } else {
            Duration::from_millis(10)
        };
        let ready = poller.poll(timeout);

        // (5) Read every ready connection dry.
        for tok in ready {
            if tok == WAKE {
                let mut sink_hole = [0u8; 256];
                while matches!(wake_rx.read(&mut sink_hole), Ok(n) if n > 0) {}
                continue;
            }
            let Some(conn) = conns.get_mut(&tok) else {
                continue;
            };
            let mut close_reason: Option<String> = None;
            'reads: loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        close_reason = Some(String::new()); // clean EOF
                        break 'reads;
                    }
                    Ok(n) => {
                        metrics.bytes_recv.add(n as u64);
                        conn.decoder.push(&scratch[..n]);
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(frame)) => {
                                    metrics.frames.inc();
                                    if frame.fault_eligible() {
                                        let (a, b) = frame.fault_ids();
                                        match injector.on_net(NetOp::Recv, frame.kind(), a, b) {
                                            FaultAction::Drop => continue,
                                            FaultAction::Delay(d) => std::thread::sleep(d),
                                            FaultAction::Proceed => {}
                                        }
                                    }
                                    (conn.sink)(ConnEvent::Frame(frame));
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    close_reason = Some(format!("protocol: {e}"));
                                    break 'reads;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'reads,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        close_reason = Some(format!("read: {e}"));
                        break 'reads;
                    }
                }
            }
            if let Some(reason) = close_reason {
                poller.deregister(tok);
                if let Some(mut conn) = conns.remove(&tok) {
                    (conn.sink)(ConnEvent::Closed(reason));
                }
            }
        }
    }
}

/// Write as much of the staged buffer as the socket accepts.
fn flush(conn: &mut Conn, metrics: &NetMetrics) -> std::io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => {
                conn.out_pos += n;
                metrics.bytes_sent.add(n as u64);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos >= conn.out.len() / 2 {
        // Reclaim the written prefix only once it is at least half the
        // buffer: the tail moved is then no longer than the bytes
        // written since the last compaction, so compaction stays linear
        // in bytes sent (compacting after every partial write would
        // move a multi-MiB unsent tail once per write).
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_telemetry::Recorder;
    use std::sync::mpsc;

    fn metrics() -> NetMetrics {
        NetMetrics::new(&Recorder::disabled())
    }

    fn chan_sink() -> (Sink, mpsc::Receiver<ConnEvent>) {
        let (tx, rx) = mpsc::channel();
        (Box::new(move |ev| drop(tx.send(ev))), rx)
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn recv_frame_ev(rx: &mpsc::Receiver<ConnEvent>) -> Frame {
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Frame(f) => f,
            ConnEvent::Closed(why) => panic!("unexpected close: {why:?}"),
        }
    }

    #[test]
    fn two_reactors_exchange_frames_in_fifo_order() {
        let ra = Reactor::spawn("a", FaultInjector::none(), metrics()).unwrap();
        let rb = Reactor::spawn("b", FaultInjector::none(), metrics()).unwrap();
        let (sa, sb) = pair();
        let (sink_a, rx_a) = chan_sink();
        let (sink_b, rx_b) = chan_sink();
        let ta = ra.handle().alloc_token();
        let tb = rb.handle().alloc_token();
        ra.handle().add_stream(ta, sa, sink_a);
        rb.handle().add_stream(tb, sb, sink_b);

        for wave in 0..64 {
            ra.handle().send(ta, Frame::RunWave { wave });
        }
        for wave in 0..64 {
            assert_eq!(recv_frame_ev(&rx_b), Frame::RunWave { wave });
        }
        rb.handle().send(tb, Frame::ListRuns);
        assert_eq!(recv_frame_ev(&rx_a), Frame::ListRuns);
    }

    #[test]
    fn listener_accepts_and_serves_many_connections() {
        let r = Reactor::spawn("srv", FaultInjector::none(), metrics()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Echo every frame back on the same connection.
        let handle = r.handle();
        r.handle().add_listener(
            listener,
            Box::new(move |token, _addr| {
                let h = handle.clone();
                Box::new(move |ev| {
                    if let ConnEvent::Frame(f) = ev {
                        h.send(token, f);
                    }
                })
            }),
        );

        let client = Reactor::spawn("cli", FaultInjector::none(), metrics()).unwrap();
        let mut rxs = Vec::new();
        for i in 0..8u32 {
            let stream = TcpStream::connect(addr).unwrap();
            let (sink, rx) = chan_sink();
            let t = client.handle().alloc_token();
            client.handle().add_stream(t, stream, sink);
            client.handle().send(t, Frame::RunWave { wave: i });
            rxs.push((i, rx));
        }
        for (i, rx) in rxs {
            assert_eq!(recv_frame_ev(&rx), Frame::RunWave { wave: i });
        }
    }

    #[test]
    fn peer_hangup_surfaces_as_clean_close() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, sb) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        drop(sb);
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Closed(reason) => assert!(reason.is_empty(), "{reason:?}"),
            ConnEvent::Frame(f) => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn garbage_bytes_surface_as_protocol_close() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        // An absurd length word poisons the stream.
        sb.write_all(&u32::MAX.to_le_bytes()).unwrap();
        sb.write_all(&[0u8; 8]).unwrap();
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Closed(reason) => assert!(reason.contains("protocol"), "{reason:?}"),
            ConnEvent::Frame(f) => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn coalesced_sends_cross_in_bulk_and_count_bytes() {
        let m = metrics();
        let r = Reactor::spawn("x", FaultInjector::none(), m.clone()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, _rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        let frames: Vec<Frame> = (0..100).map(|wave| Frame::RunWave { wave }).collect();
        for f in &frames {
            r.handle().send(t, f.clone());
        }
        // The blocking reader sees all 100 in order regardless of how
        // they were batched on the wire.
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut sb).unwrap(), f);
        }
        // The byte counter is updated by the reactor thread right after
        // its write returns; the reader above can observe the bytes
        // first, so give the counter a moment to catch up.
        let total: u64 = frames.iter().map(|f| f.encode().len() as u64).sum();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while m.bytes_sent.get() < total && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(m.bytes_sent.get(), total);
        assert_eq!(m.frames.get(), 100);
    }

    /// Frames far larger than the socket buffer, interleaved with small
    /// control frames, reach a slow reader intact and in order: every
    /// partial write leaves a multi-MiB staged tail behind.
    #[test]
    fn large_frames_reach_a_slow_reader_intact_and_in_order() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, _rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        let frames: Vec<Frame> = [3usize << 20, 5 << 20, 4 << 20]
            .iter()
            .enumerate()
            .flat_map(|(i, &len)| {
                let data = (0..len).map(|b| (b * 31 + i * 7) as u8).collect();
                [
                    Frame::PullData {
                        name: i as u64,
                        version: 1,
                        piece: 2,
                        owner: 3,
                        to_node: 4,
                        data,
                    },
                    Frame::RunWave { wave: i as u32 },
                ]
            })
            .collect();
        for f in &frames {
            r.handle().send(t, f.clone());
        }
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut chunk = vec![0u8; 256 * 1024];
        for f in &frames {
            let got = loop {
                if let Some(got) = decoder.next_frame().unwrap() {
                    break got;
                }
                // A slow reader: small reads with pauses keep the
                // sender's socket buffer full.
                std::thread::sleep(Duration::from_millis(1));
                let n = sb.read(&mut chunk).unwrap();
                assert!(n > 0, "stream ended early");
                decoder.push(&chunk[..n]);
            };
            assert!(
                &got == f,
                "frame kind {} arrived out of order or corrupt",
                got.kind()
            );
        }
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn shutdown_flushes_staged_writes() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, _rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        for wave in 0..16 {
            r.handle().send(t, Frame::RunWave { wave });
        }
        r.shutdown();
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for wave in 0..16 {
            assert_eq!(Frame::read_from(&mut sb).unwrap(), Frame::RunWave { wave });
        }
    }
}
