//! Golden wire bytes: one canonical frame of every kind, pinned to its
//! exact encoding in `golden_frames.txt`.
//!
//! Each fixture line is `<kind byte> <variant> <hex of the complete
//! frame>`. The test checks both directions — encoding the canonical
//! frame yields the golden bytes, and decoding the golden bytes yields
//! the canonical frame — so any change to the codec that alters a byte
//! on the wire fails here. A deliberate wire change bumps
//! `WIRE_VERSION` and re-records the fixture.

use insitu_domain::BoundingBox;
use insitu_fabric::{LedgerSnapshot, Locality, TrafficClass};
use insitu_net::{Frame, FrameDecoder, NodeReport, RunState, RunSummary, WIRE_VERSION};
use insitu_obs::{Event, EventKind, LinkClass};

const FIXTURE: &str = include_str!("golden_frames.txt");

fn s(v: &str) -> String {
    v.to_string()
}

fn summary(run: u64, state: RunState) -> RunSummary {
    RunSummary {
        run,
        name: format!("run-{run}"),
        state,
        nodes: 2 + run as u32,
        detail: format!("detail {}", state.slug()),
        link_stalls: run,
        health: vec![s("link-stall: no pull progress for 2000ms")],
    }
}

/// One event per `EventKind`. The first has no parent, bbox, `src`,
/// `dst` or link; the second has all of them (shm link); the third
/// rides an rdma link.
fn events() -> Vec<Event> {
    let kinds = [
        EventKind::Put { indexed: false },
        EventKind::Put { indexed: true },
        EventKind::Get { cont: false },
        EventKind::Get { cont: true },
        EventKind::Schedule { hit: false },
        EventKind::Schedule { hit: true },
        EventKind::DhtLookup { cores: 7 },
        EventKind::Pull { wait_us: 1234 },
        EventKind::Fault { kind: "drop-pull" },
        EventKind::NetSend,
        EventKind::NetRecv,
        EventKind::SubPush,
        EventKind::SubDeliver,
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let i = i as u64;
            let mut e = Event::new(i + 1, kind);
            e.app = i as u32 % 3;
            e.var = 0xA000 + i;
            e.version = i / 2;
            e.piece = (1 << 32) | i;
            e.bytes = 4096 * i;
            e.start_us = 100 * i;
            e.duration_us = 10 + i;
            e.pid = i as u32 % 2;
            if i > 0 {
                e.parent = Some(i);
            }
            if i == 1 {
                e.bbox = Some(BoundingBox::new(&[0, 4, 8], &[3, 7, 15]));
                e.src = Some(5);
                e.dst = Some(6);
            }
            e.link = match i % 3 {
                0 => None,
                1 => Some(LinkClass::Shm),
                _ => Some(LinkClass::Rdma),
            };
            e
        })
        .collect()
}

/// The canonical frame of every kind, in kind-byte order.
fn canonical() -> Vec<Frame> {
    vec![
        Frame::Hello {
            node: 3,
            peer_addr: s("127.0.0.1:4100"),
            host: s("boot-id-1"),
        },
        Frame::Welcome {
            nodes: 2,
            strategy: s("data-centric"),
            get_timeout_ms: 30_000,
            dag: s("APP 1 producer 2\n"),
            config: s("DOMAIN 16 16 16\n"),
            run_epoch: 9,
            peers: vec![s("127.0.0.1:4100"), s("127.0.0.1:4101")],
            hosts: vec![s("boot-id-1"), s("boot-id-2")],
        },
        Frame::Relay {
            to: 4,
            src: 1,
            tag: 0xDEAD_BEEF,
            payload: vec![1, 2, 3, 4, 5],
        },
        Frame::PutNotify {
            name: 0x1111,
            version: 2,
            piece: (3 << 32) | 1,
            owner: 3,
            bytes: 32_768,
        },
        Frame::PullRequest {
            name: 0x1111,
            version: 2,
            piece: (3 << 32) | 1,
            from_node: 1,
        },
        Frame::PullData {
            name: 0x1111,
            version: 2,
            piece: (3 << 32) | 1,
            owner: 3,
            to_node: 1,
            data: (0..24).collect(),
        },
        Frame::PullNack {
            name: 0x1111,
            version: 2,
            piece: (3 << 32) | 1,
            to_node: 1,
        },
        Frame::DhtInsert {
            var: 0x2222,
            version: 5,
            owner: 6,
            piece: 7,
            lbs: vec![0, 8, 16],
            ubs: vec![7, 15, 31],
        },
        Frame::GetDone {
            var: 0x2222,
            version: 5,
        },
        Frame::Evict {
            var: 0x2222,
            version: 4,
        },
        Frame::RunWave { wave: 12 },
        Frame::Barrier { wave: 12, node: 1 },
        Frame::Report(NodeReport {
            node: 1,
            ledger: LedgerSnapshot::from_parts(
                [10, 20, 30, 40],
                [50, 60, 70, 80],
                [
                    (0, TrafficClass::InterApp, Locality::SharedMemory, 1024),
                    (1, TrafficClass::IntraApp, Locality::Network, 2048),
                    (1, TrafficClass::Dht, Locality::Network, 96),
                    (2, TrafficClass::Control, Locality::SharedMemory, 48),
                ],
            ),
            verify_failures: 0,
            staged: 3,
            gets: 16,
            errors: vec![s("task 4: get timed out")],
        }),
        Frame::Shutdown {
            ok: false,
            reason: s("producer failed"),
        },
        Frame::Submit {
            name: s("nightly"),
            dag: s("APP 1 producer 2\n"),
            config: s("ITERATIONS 4\n"),
            strategy: s("round-robin"),
            get_timeout_ms: 5_000,
            priority: 2,
        },
        Frame::Submitted {
            run: 17,
            queued_ahead: 3,
        },
        Frame::Cancel { run: 17 },
        Frame::Status { run: 17 },
        Frame::ListRuns,
        Frame::RunStatus(summary(17, RunState::Running)),
        Frame::RunList {
            runs: RunState::ALL
                .iter()
                .enumerate()
                .map(|(i, &state)| summary(i as u64 + 1, state))
                .collect(),
        },
        Frame::RunResult { run: 17 },
        Frame::RunReport {
            run: 17,
            state: RunState::Done,
            ledger_json: s("{\"shm\":1}"),
            metrics_json: s("{\"counters\":{}}"),
            profile_json: s("{\"iterations\":[]}"),
            errors: vec![s("e1"), s("e2")],
        },
        Frame::RpcErr {
            message: s("unknown run 99"),
        },
        Frame::Telemetry {
            node: 1,
            batch: 2,
            last: true,
            dropped_events: 3,
            dropped_spans: 4,
            counters: vec![(s("net.frames"), 42), (s("net.bytes_sent"), 9000)],
            events: events(),
        },
        Frame::TelemetryAck { node: 1, batch: 2 },
        Frame::Watch {
            run: 17,
            interval_ms: 250,
            once: true,
        },
        Frame::Progress {
            run: 17,
            state: RunState::Cancelled,
            done: true,
            wave: 3,
            waves: 8,
            pulls: 100,
            pull_bytes: 1 << 20,
            shm_wait_p50_us: 11,
            shm_wait_p99_us: 12,
            rdma_wait_p50_us: 13,
            rdma_wait_p99_us: 14,
            pulls_in_flight: 2,
            bytes_in_flight: 8192,
            queue_depth: 1,
            sub_active: 1,
            sub_pushes: 5,
            sub_lagged: 0,
            link_stalls: 1,
            health: vec![s("link-stall: no pull progress for 2000ms")],
        },
        Frame::ShmOffer {
            src_node: 1,
            dst_node: 0,
            segment: 1 << 32,
            path: s("/dev/shm/insitu-1-2-s1-d0"),
            slots: 256,
            arena_bytes: 4 << 20,
        },
        Frame::ShmAck {
            src_node: 1,
            dst_node: 0,
            segment: 1 << 32,
            seq: 7,
            attached: true,
        },
        Frame::ShmDoorbell {
            src_node: 1,
            dst_node: 0,
            segment: 1 << 32,
            seq: 8,
        },
        Frame::Subscribe {
            sub_id: 0xFEED,
            var: 0x2222,
            every_k: 2,
            subscriber: 6,
            lbs: vec![0, 0],
            ubs: vec![15, 15],
        },
        Frame::SubAck {
            sub_id: 0xFEED,
            to_node: 1,
        },
        Frame::SubPush {
            sub_id: 0xFEED,
            var: 0x2222,
            version: 4,
            src: 1,
            subscriber: 6,
            lbs: vec![0, 0],
            ubs: vec![1, 1],
            data: (0..32).map(|i| i * 3).collect(),
        },
        Frame::SubCancel { sub_id: 0xFEED },
        Frame::SubLagged {
            sub_id: 0xFEED,
            version: 3,
            subscriber: 6,
        },
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len() % 2 == 0, "odd-length hex");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(kind, variant, bytes)` for every fixture line.
fn golden() -> Vec<(u8, String, Vec<u8>)> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split_whitespace();
            let kind = cols.next().unwrap().parse().expect("kind byte");
            let variant = cols.next().expect("variant").to_string();
            let bytes = unhex(cols.next().expect("hex"));
            assert!(cols.next().is_none(), "extra column in {l:?}");
            (kind, variant, bytes)
        })
        .collect()
}

#[test]
fn canonical_frames_cover_every_kind_once() {
    let kinds: Vec<u8> = canonical().iter().map(Frame::kind).collect();
    assert_eq!(kinds, (1..=36).collect::<Vec<u8>>());
    let fixture: Vec<u8> = golden().iter().map(|(k, _, _)| *k).collect();
    assert_eq!(fixture, kinds);
}

#[test]
fn encoding_matches_the_golden_bytes() {
    for (frame, (kind, variant, bytes)) in canonical().iter().zip(golden()) {
        assert_eq!(frame.kind(), kind, "{variant}");
        let dbg = format!("{frame:?}");
        assert!(
            dbg == variant
                || dbg.starts_with(&format!("{variant} "))
                || dbg.starts_with(&format!("{variant}(")),
            "fixture line {kind} names {variant}, frame is {dbg}"
        );
        assert_eq!(
            hex(&frame.encode()),
            hex(&bytes),
            "encoding of {variant} (kind {kind})"
        );
    }
}

#[test]
fn decoding_the_golden_bytes_yields_the_canonical_frames() {
    for (frame, (kind, variant, bytes)) in canonical().iter().zip(golden()) {
        assert_eq!(bytes[4], WIRE_VERSION, "{variant}");
        let decoded = Frame::decode(bytes[4], bytes[5], &bytes[6..])
            .unwrap_or_else(|e| panic!("decode of {variant} (kind {kind}): {e}"));
        assert_eq!(&decoded, frame, "{variant}");
        let mut stream = &bytes[..];
        assert_eq!(&Frame::read_from(&mut stream).unwrap(), frame, "{variant}");
    }
    // The whole fixture as one coalesced byte run decodes in order.
    let mut dec = FrameDecoder::new();
    for (_, _, bytes) in golden() {
        dec.push(&bytes);
    }
    for frame in canonical() {
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }
    assert_eq!(dec.next_frame().unwrap(), None);
}

#[test]
fn canonical_telemetry_covers_every_event_shape() {
    let evs = events();
    assert!(evs.iter().any(|e| e.bbox.is_none()
        && e.src.is_none()
        && e.dst.is_none()
        && e.parent.is_none()
        && e.link.is_none()));
    assert!(evs
        .iter()
        .any(|e| e.bbox.is_some() && e.src.is_some() && e.dst.is_some()));
    assert!(evs.iter().any(|e| e.link == Some(LinkClass::Shm)));
    assert!(evs.iter().any(|e| e.link == Some(LinkClass::Rdma)));
}
