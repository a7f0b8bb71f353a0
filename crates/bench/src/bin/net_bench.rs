//! Wire-transport benchmark: the star (thread-per-peer) transport vs
//! the non-blocking reactor, over loopback.
//!
//! Three measurements, written to `BENCH_net.json` (honours
//! `BENCH_OUT_DIR`):
//!
//! - **frames/s** — small-frame throughput of a single connection:
//!   star uses a `Peer` writer thread (one syscall per frame), the
//!   reactor coalesces staged frames into batched writes.
//! - **pull latency p50/p99** — request/response round trips carrying a
//!   1 KiB `PullData`: star pays the two-hop consumer→hub→owner path,
//!   the reactor serves the direct peer link of p2p mode, and shm
//!   answers over a `/dev/shm` ring (payload through the mapping,
//!   only the doorbell control frame on the socket — the same-host
//!   fast path of `launch --procs`). Each side is measured over
//!   several rounds and the minimum kept, so one noisy scheduler
//!   slice on a shared runner cannot fail the gate.
//! - **threads for 32 connections** — OS threads (`/proc/self/status`)
//!   the process adds to serve 32 connections: one writer thread per
//!   peer in star mode, O(1) for the reactor event loop.
//!
//! With `NET_BENCH_GATE=1` the exit code is nonzero when the reactor's
//! pull p99 regresses past 1.5x the star baseline — the CI guard that
//! the p2p data plane never gets slower than the topology it replaces.

use insitu_fabric::FaultInjector;
use insitu_net::{recv_frame, send_frame, Frame, NetMetrics, Peer, Reactor};
use insitu_telemetry::{Json, Recorder};
use insitu_util::bytes::Bytes;
use insitu_util::shm::{self, RecordDesc, Ring, RingMem, ShmMap};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SMALL_FRAMES: usize = 50_000;
const PULL_RTTS: usize = 2_000;
const PULL_BYTES: usize = 1024;
const SOAK_CONNS: usize = 32;

fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let a = TcpStream::connect(addr).expect("connect loopback");
    let (b, _) = listener.accept().expect("accept loopback");
    a.set_nodelay(true).expect("nodelay");
    b.set_nodelay(true).expect("nodelay");
    (a, b)
}

fn metrics() -> NetMetrics {
    NetMetrics::new(&Recorder::disabled())
}

/// Count N frames off a blocking stream on a helper thread; returns the
/// join handle resolving to the receive-side elapsed time.
fn count_frames(mut stream: TcpStream, n: usize) -> std::thread::JoinHandle<Duration> {
    std::thread::spawn(move || {
        let injector = FaultInjector::none();
        let m = metrics();
        let start = Instant::now();
        for _ in 0..n {
            recv_frame(&mut stream, &injector, &m).expect("bench frame");
        }
        start.elapsed()
    })
}

/// Small-frame throughput of the star transport: a `Peer` writer thread
/// draining a queue, one write syscall per frame.
fn star_frames_per_s() -> f64 {
    let (tx_stream, rx_stream) = pair();
    let reader = count_frames(rx_stream, SMALL_FRAMES);
    let peer = Peer::spawn(
        tx_stream,
        FaultInjector::none(),
        metrics(),
        "bench-star".into(),
    )
    .expect("spawn peer");
    let start = Instant::now();
    for i in 0..SMALL_FRAMES {
        peer.send(Frame::RunWave { wave: i as u32 });
    }
    reader.join().expect("reader");
    let elapsed = start.elapsed();
    peer.close();
    SMALL_FRAMES as f64 / elapsed.as_secs_f64()
}

/// Small-frame throughput of the reactor: staged sends coalesce into
/// batched writes on the event-loop thread.
fn reactor_frames_per_s() -> f64 {
    let (tx_stream, rx_stream) = pair();
    let reader = count_frames(rx_stream, SMALL_FRAMES);
    let reactor =
        Reactor::spawn("bench-reactor", FaultInjector::none(), metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let token = handle.alloc_token();
    handle.add_stream(token, tx_stream, Box::new(|_| {}));
    let start = Instant::now();
    for i in 0..SMALL_FRAMES {
        handle.send(token, Frame::RunWave { wave: i as u32 });
    }
    reader.join().expect("reader");
    let elapsed = start.elapsed();
    reactor.shutdown();
    SMALL_FRAMES as f64 / elapsed.as_secs_f64()
}

fn pull_request(i: usize) -> Frame {
    Frame::PullRequest {
        name: 7,
        version: i as u64,
        piece: 3 << 32,
        from_node: 0,
    }
}

fn pull_data(version: u64) -> Frame {
    Frame::PullData {
        name: 7,
        version,
        piece: 3 << 32,
        owner: 3,
        to_node: 0,
        data: vec![0xA5; PULL_BYTES],
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Pull round trips through the star topology: the consumer's request
/// crosses the hub to the owner and the 1 KiB reply crosses it back —
/// two store-and-forward hops each way.
fn star_pull_latencies() -> Vec<u64> {
    let (mut consumer, hub_consumer_side) = pair();
    let (hub_owner_side, mut owner) = pair();

    // The hub: blocking forwarder between its two connections.
    let hub = std::thread::spawn(move || {
        let injector = FaultInjector::none();
        let m = metrics();
        let mut from_consumer = hub_consumer_side.try_clone().expect("clone");
        let mut to_owner = hub_owner_side.try_clone().expect("clone");
        let fwd = std::thread::spawn(move || {
            for _ in 0..PULL_RTTS {
                let f = recv_frame(&mut from_consumer, &injector, &m).expect("hub recv");
                send_frame(&mut to_owner, &f, &injector, &m).expect("hub send");
            }
        });
        let injector = FaultInjector::none();
        let m = metrics();
        let mut from_owner = hub_owner_side;
        let mut to_consumer = hub_consumer_side;
        for _ in 0..PULL_RTTS {
            let f = recv_frame(&mut from_owner, &injector, &m).expect("hub recv");
            send_frame(&mut to_consumer, &f, &injector, &m).expect("hub send");
        }
        fwd.join().expect("hub forwarder");
    });

    // The owner: answers every request with a 1 KiB PullData.
    let owner_thread = std::thread::spawn(move || {
        let injector = FaultInjector::none();
        let m = metrics();
        for _ in 0..PULL_RTTS {
            match recv_frame(&mut owner, &injector, &m).expect("owner recv") {
                Frame::PullRequest { version, .. } => {
                    send_frame(&mut owner, &pull_data(version), &injector, &m).expect("owner send");
                }
                other => panic!("owner expected PullRequest, got kind {}", other.kind()),
            }
        }
    });

    let injector = FaultInjector::none();
    let m = metrics();
    let mut lat = Vec::with_capacity(PULL_RTTS);
    for i in 0..PULL_RTTS {
        let start = Instant::now();
        send_frame(&mut consumer, &pull_request(i), &injector, &m).expect("consumer send");
        recv_frame(&mut consumer, &injector, &m).expect("consumer recv");
        lat.push(start.elapsed().as_micros() as u64);
    }
    hub.join().expect("hub");
    owner_thread.join().expect("owner");
    lat.sort_unstable();
    lat
}

/// Pull round trips over the p2p direct link: the owner side is a
/// reactor (exactly as in a p2p run), the consumer dials it directly —
/// no intermediate hop.
fn reactor_pull_latencies() -> Vec<u64> {
    let reactor =
        Reactor::spawn("bench-owner", FaultInjector::none(), metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind owner");
    let addr = listener.local_addr().expect("owner addr");
    {
        let reply = handle.clone();
        handle.add_listener(
            listener,
            Box::new(move |token, _addr| {
                let reply = reply.clone();
                Box::new(move |event| {
                    if let insitu_net::ConnEvent::Frame(Frame::PullRequest { version, .. }) = event
                    {
                        reply.send(token, pull_data(version));
                    }
                })
            }),
        );
    }

    let mut consumer = TcpStream::connect(addr).expect("dial owner");
    consumer.set_nodelay(true).expect("nodelay");
    let injector = FaultInjector::none();
    let m = metrics();
    let mut lat = Vec::with_capacity(PULL_RTTS);
    for i in 0..PULL_RTTS {
        let start = Instant::now();
        send_frame(&mut consumer, &pull_request(i), &injector, &m).expect("consumer send");
        recv_frame(&mut consumer, &injector, &m).expect("consumer recv");
        lat.push(start.elapsed().as_micros() as u64);
    }
    reactor.shutdown();
    lat.sort_unstable();
    lat
}

/// Pull round trips over the shared-memory plane: the request and the
/// doorbell control frame ride the direct socket exactly as in a real
/// same-host run, but the 1 KiB payload crosses a `/dev/shm` ring —
/// the producer pushes into the segment, and the consumer copies the
/// record out into heap `Bytes` and releases its arena space, as the
/// production drain does.
fn shm_pull_latencies() -> Vec<u64> {
    let dir = shm::segment_dir();
    let path = dir.join(shm::segment_name(std::process::id(), 0xbe9c, 1, 0));
    let slots = 256u32;
    let arena = 1u64 << 20;
    let map = ShmMap::create(&path, Ring::required_len(slots, arena)).expect("create segment");
    let producer = Arc::new(Ring::create(RingMem::from_map(Arc::new(map)), slots, arena));
    // The consumer attaches through its own mapping of the same file,
    // exactly as a second process would.
    let consumer_map = ShmMap::open(&path).expect("open segment");
    let consumer_ring =
        Ring::attach(RingMem::from_map(Arc::new(consumer_map))).expect("attach segment");

    // The owner: a reactor that answers every request by staging the
    // payload in the ring and ringing the doorbell over the socket.
    let reactor =
        Reactor::spawn("bench-shm-owner", FaultInjector::none(), metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind owner");
    let addr = listener.local_addr().expect("owner addr");
    {
        let reply = handle.clone();
        let ring = Arc::clone(&producer);
        handle.add_listener(
            listener,
            Box::new(move |token, _addr| {
                let reply = reply.clone();
                let ring = Arc::clone(&ring);
                Box::new(move |event| {
                    if let insitu_net::ConnEvent::Frame(Frame::PullRequest { version, .. }) = event
                    {
                        let desc = RecordDesc {
                            name: 7,
                            version,
                            piece: 3 << 32,
                            owner: 3,
                        };
                        let payload = vec![0xA5u8; PULL_BYTES];
                        let seq = ring.push(&desc, &payload).expect("bench ring never fills");
                        reply.send(
                            token,
                            Frame::ShmDoorbell {
                                src_node: 1,
                                dst_node: 0,
                                segment: 1 << 32,
                                seq,
                            },
                        );
                    }
                })
            }),
        );
    }

    let mut consumer = TcpStream::connect(addr).expect("dial owner");
    consumer.set_nodelay(true).expect("nodelay");
    let injector = FaultInjector::none();
    let m = metrics();
    let mut lat = Vec::with_capacity(PULL_RTTS);
    for i in 0..PULL_RTTS {
        let start = Instant::now();
        send_frame(&mut consumer, &pull_request(i), &injector, &m).expect("consumer send");
        match recv_frame(&mut consumer, &injector, &m).expect("consumer recv") {
            Frame::ShmDoorbell { .. } => {}
            other => panic!("consumer expected ShmDoorbell, got kind {}", other.kind()),
        }
        // Copy out and release, exactly as the link's drain does.
        let bytes = consumer_ring
            .pop_with(|_, payload| Bytes::copy_from_slice(payload))
            .expect("doorbell implies a record");
        assert_eq!(bytes.len(), PULL_BYTES);
        lat.push(start.elapsed().as_micros() as u64);
    }
    reactor.shutdown();
    std::fs::remove_file(&path).ok();
    lat.sort_unstable();
    lat
}

/// OS thread count of this process, from `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Threads added to serve `SOAK_CONNS` connections star-style: one
/// `Peer` writer thread per connection.
fn star_threads_for_conns() -> u64 {
    let before = os_threads();
    let mut peers = Vec::new();
    let mut far_ends = Vec::new();
    for i in 0..SOAK_CONNS {
        let (near, far) = pair();
        peers.push(
            Peer::spawn(
                near,
                FaultInjector::none(),
                metrics(),
                format!("bench-star-{i}"),
            )
            .expect("spawn peer"),
        );
        far_ends.push(far);
    }
    let after = os_threads();
    for p in &peers {
        p.close();
    }
    after.saturating_sub(before)
}

/// Threads added to serve `SOAK_CONNS` connections reactor-style: the
/// event loop owns them all.
fn reactor_threads_for_conns() -> u64 {
    let before = os_threads();
    let reactor =
        Reactor::spawn("bench-soak", FaultInjector::none(), metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    handle.add_listener(listener, Box::new(|_, _| Box::new(|_| {})));
    let mut conns = Vec::new();
    for _ in 0..SOAK_CONNS {
        let mut c = TcpStream::connect(addr).expect("dial");
        // One frame each, so every connection is accepted and adopted
        // by the loop before we count.
        let injector = FaultInjector::none();
        let m = metrics();
        send_frame(&mut c, &Frame::RunWave { wave: 1 }, &injector, &m).expect("send");
        conns.push(c);
    }
    // Adoption is asynchronous; give the loop a beat to drain accepts.
    std::thread::sleep(Duration::from_millis(200));
    let after = os_threads();
    reactor.shutdown();
    after.saturating_sub(before)
}

/// Latency rounds per transport; each side's reported p50/p99 is the
/// minimum across rounds.
const LAT_ROUNDS: usize = 3;

/// Run `measure` LAT_ROUNDS times and keep the lowest p50 and p99 seen.
fn best_percentiles(measure: fn() -> Vec<u64>) -> (u64, u64) {
    let mut best = (u64::MAX, u64::MAX);
    for _ in 0..LAT_ROUNDS {
        let lat = measure();
        best.0 = best.0.min(percentile(&lat, 0.50));
        best.1 = best.1.min(percentile(&lat, 0.99));
    }
    best
}

fn main() {
    println!("net_bench: star vs reactor over loopback");

    let star_fps = star_frames_per_s();
    let reactor_fps = reactor_frames_per_s();
    println!(
        "frames/s:  star {star_fps:>12.0}   reactor {reactor_fps:>12.0}  ({SMALL_FRAMES} small frames)"
    );

    // Best of LAT_ROUNDS independent rounds per side: a shared runner's
    // scheduler can smear any single round's tail by 5x, but it can only
    // ever *add* latency, so the per-round minimum is the stable
    // estimate of what the transport actually costs.
    let (star_p50, star_p99) = best_percentiles(star_pull_latencies);
    let (reactor_p50, reactor_p99) = best_percentiles(reactor_pull_latencies);
    let (shm_p50, shm_p99) = best_percentiles(shm_pull_latencies);
    println!(
        "pull RTT:  star p50 {star_p50} us p99 {star_p99} us   reactor p50 {reactor_p50} us p99 {reactor_p99} us   shm p50 {shm_p50} us p99 {shm_p99} us  ({PULL_RTTS} x {PULL_BYTES} B, best of {LAT_ROUNDS} rounds)"
    );

    let star_threads = star_threads_for_conns();
    let reactor_threads = reactor_threads_for_conns();
    println!(
        "threads:   star +{star_threads}   reactor +{reactor_threads}  (for {SOAK_CONNS} connections)"
    );

    let payload = Json::obj()
        .field("figure", "net")
        .field(
            "title",
            "Wire transport: star (thread-per-peer) vs reactor (p2p data plane)",
        )
        .field("small_frames", SMALL_FRAMES as u64)
        .field("star_frames_per_s", star_fps)
        .field("reactor_frames_per_s", reactor_fps)
        .field("pull_rtts", PULL_RTTS as u64)
        .field("pull_bytes", PULL_BYTES as u64)
        .field("star_pull_p50_us", star_p50)
        .field("star_pull_p99_us", star_p99)
        .field("reactor_pull_p50_us", reactor_p50)
        .field("reactor_pull_p99_us", reactor_p99)
        .field("shm_pull_p50_us", shm_p50)
        .field("shm_pull_p99_us", shm_p99)
        .field("conns", SOAK_CONNS as u64)
        .field("star_threads_added", star_threads)
        .field("reactor_threads_added", reactor_threads);
    insitu_bench::emit::emit("net", &payload);

    if std::env::var("NET_BENCH_GATE").as_deref() == Ok("1") {
        // The reactor's direct pull path must not regress past the
        // two-hop star baseline (generous 1.5x headroom for CI noise).
        let ceiling = star_p99.saturating_mul(3) / 2;
        if reactor_p99 > ceiling {
            eprintln!(
                "GATE FAIL: reactor pull p99 {reactor_p99} us exceeds 1.5x star baseline ({star_p99} us)"
            );
            std::process::exit(1);
        }
        println!("gate:      reactor pull p99 within 1.5x star baseline");
    }
    std::io::stdout().flush().ok();
}
