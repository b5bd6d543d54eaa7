//! Wire-level fault injection against a live [`SocketTransport`].
//!
//! A raw "peer" thread completes the rank-exchange handshake by hand
//! (via [`hpf_net::frame::encode_frame`], bypassing the well-behaved
//! `FrameWriter`) and then misbehaves: drops a frame, duplicates one,
//! truncates one, or dies without saying goodbye. Each fault must be
//! *detected* — surfaced as a typed error naming the link — within the
//! configured deadline; none may be silently absorbed or hang the
//! receiver.

use hpf_net::frame::{encode_frame, Enc, FrameKind, HEADER_LEN};
use hpf_net::{
    NetError, NetErrorKind, NetListener, SocketConfig, SocketTransport, Transport, WireMsg,
};
use hpf_ir::Value;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn test_config() -> SocketConfig {
    SocketConfig {
        io_deadline: Duration::from_secs(2),
        connect_deadline: Duration::from_secs(5),
    }
}

fn hello(from: u32, to: u32, nproc: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(from);
    e.u32(to);
    e.u32(nproc);
    e.buf
}

fn one_value(v: f64) -> Vec<u8> {
    let mut e = Enc::new();
    e.value(Value::Real(v));
    e.buf
}

/// Bring up rank 0 of a 2-rank world where "rank 1" is a raw socket under
/// the test's control. The returned transport has completed the handshake;
/// `misbehave` then runs on the peer's stream.
fn rank0_with_raw_peer(
    misbehave: impl FnOnce(UnixStream) + Send + 'static,
) -> (SocketTransport, JoinHandle<()>) {
    let listener = NetListener::bind("fault").unwrap();
    let path = listener.path().to_path_buf();
    let peer = std::thread::spawn(move || {
        let mut s = UnixStream::connect(&path).expect("connect to rank 0");
        // Handshake by hand: introduce ourselves as rank 1 of 2 (frame
        // seq 0 on this direction of the link) and swallow the echo.
        s.write_all(&encode_frame(FrameKind::Hello, 0, &hello(1, 0, 2)))
            .unwrap();
        let mut echo = vec![0u8; HEADER_LEN + 12];
        s.read_exact(&mut echo).expect("hello echo from rank 0");
        misbehave(s);
    });
    let paths = vec![listener.path().to_path_buf(), listener.path().to_path_buf()];
    let t = SocketTransport::connect_mesh(0, 2, &listener, &paths, test_config())
        .expect("mesh with raw peer");
    (t, peer)
}

fn expect_fault(r: Result<WireMsg, NetError>, kind: NetErrorKind, needle: &str) {
    let e = r.expect_err("fault must surface as an error, not a message");
    assert_eq!(e.kind, kind, "wrong error kind: {}", e);
    let text = e.to_string();
    assert!(
        text.contains(needle),
        "error must name the fault ({:?} not in {:?})",
        needle,
        text
    );
    // Operation context: the error names the link it happened on.
    assert_eq!(e.link, Some((0, 1)), "error must carry the link: {}", text);
    assert!(text.contains("link 0<->1"), "display names the link: {}", text);
}

/// A dropped frame (the peer skips a sequence number) is detected as a
/// codec fault, not delivered-with-a-gap.
#[test]
fn dropped_frame_is_detected() {
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        // Data frames on this direction continue after the Hello (seq 0):
        // seq 1 is next but the peer "loses" it and sends seq 2.
        s.write_all(&encode_frame(FrameKind::One, 2, &one_value(3.25)))
            .unwrap();
    });
    expect_fault(t.recv(1), NetErrorKind::Codec, "dropped frame");
    peer.join().unwrap();
    t.finish().unwrap();
}

/// A duplicated frame (replayed sequence number) is detected after the
/// original copy was delivered once.
#[test]
fn duplicated_frame_is_detected() {
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        let f = encode_frame(FrameKind::One, 1, &one_value(7.5));
        s.write_all(&f).unwrap();
        s.write_all(&f).unwrap();
    });
    assert_eq!(t.recv(1).unwrap(), WireMsg::One(Value::Real(7.5)));
    expect_fault(t.recv(1), NetErrorKind::Codec, "duplicated frame");
    peer.join().unwrap();
    t.finish().unwrap();
}

/// A truncated frame — header promising more payload than ever arrives,
/// then the stream ends — is detected as truncation.
#[test]
fn truncated_frame_is_detected() {
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        let f = encode_frame(FrameKind::One, 1, &one_value(1.0));
        // Full header, half the payload, then hang up mid-frame.
        s.write_all(&f[..HEADER_LEN + 4]).unwrap();
        drop(s);
    });
    expect_fault(t.recv(1), NetErrorKind::Codec, "truncated frame");
    peer.join().unwrap();
    t.finish().unwrap();
}

/// A peer that dies without the Bye frame is reported as a closed link —
/// promptly, not after the full io deadline times out a quiet link.
#[test]
fn dead_peer_is_detected() {
    let (mut t, peer) = rank0_with_raw_peer(drop);
    let start = Instant::now();
    expect_fault(t.recv(1), NetErrorKind::Closed, "without goodbye");
    assert!(
        start.elapsed() < test_config().io_deadline,
        "EOF detection must not wait out the deadline"
    );
    peer.join().unwrap();
    t.finish().unwrap();
}

/// A silent (but alive) peer trips the receive deadline within bounded
/// time instead of hanging.
#[test]
fn silent_peer_hits_the_deadline() {
    let (mut t, peer) = rank0_with_raw_peer(|s| {
        // Hold the connection open, say nothing, until the test is over.
        std::thread::sleep(Duration::from_secs(4));
        drop(s);
    });
    let start = Instant::now();
    expect_fault(t.recv(1), NetErrorKind::Deadline, "no message within");
    let waited = start.elapsed();
    assert!(
        waited >= test_config().io_deadline,
        "deadline fired early: {:?}",
        waited
    );
    assert!(
        waited < test_config().io_deadline + Duration::from_secs(2),
        "deadline error took too long: {:?}",
        waited
    );
    t.finish().unwrap();
    peer.join().unwrap();
}

// ---------------------------------------------------------------------
// Fault *visibility*: beyond surfacing as errors, every injected fault
// must leave a named fault event on the transport's timeline, so the
// merged observability trace tells the same story the errors told.
// ---------------------------------------------------------------------

/// Inject a fault, let the receive fail, and return the merged trace the
/// runtime would build from this rank's timeline.
fn trace_after_fault(
    misbehave: impl FnOnce(UnixStream) + Send + 'static,
    kind: NetErrorKind,
    needle: &str,
) -> hpf_obs::Trace {
    let (mut t, peer) = rank0_with_raw_peer(misbehave);
    expect_fault(t.recv(1), kind, needle);
    let events = t.take_fault_events();
    peer.join().unwrap();
    let _ = t.finish();
    hpf_obs::Trace::from_ranks(vec![(0, events)])
}

/// Each frame-level fault produces exactly one fault event carrying the
/// frame codec's stable name and the peer it happened with.
#[test]
fn injected_faults_are_named_in_the_trace() {
    for (name, needle, fault) in [
        (
            "seq-gap",
            "dropped frame",
            Box::new(|mut s: UnixStream| {
                s.write_all(&encode_frame(FrameKind::One, 2, &one_value(3.25)))
                    .unwrap();
            }) as Box<dyn FnOnce(UnixStream) + Send>,
        ),
        (
            "truncated",
            "truncated frame",
            Box::new(|mut s: UnixStream| {
                let f = encode_frame(FrameKind::One, 1, &one_value(1.0));
                s.write_all(&f[..HEADER_LEN + 4]).unwrap();
                drop(s);
            }),
        ),
        (
            "bad-checksum",
            "checksum",
            Box::new(|mut s: UnixStream| {
                let mut f = encode_frame(FrameKind::One, 1, &one_value(2.0));
                let last = f.len() - 1;
                f[last] ^= 0xff;
                s.write_all(&f).unwrap();
            }),
        ),
    ] {
        let trace = trace_after_fault(fault, NetErrorKind::Codec, needle);
        assert_eq!(trace.fault_names(), vec![name], "fault {} must be named", name);
        let Some(hpf_obs::TraceEvent {
            rank: Some(0),
            body: hpf_obs::Body::Fault { peer, .. },
            ..
        }) = trace.events.last()
        else {
            panic!("{}: trace must end with rank 0's fault event", name);
        };
        assert_eq!(*peer, Some(1), "{}: fault names the peer", name);
    }
}

/// A killed worker yields a trace whose final fault event carries the
/// last sequence number this side acknowledged on the link: the Hello
/// (seq 0) plus every data frame that arrived intact before the death.
#[test]
fn killed_peer_trace_ends_with_last_acked_seq() {
    // Peer delivers one good frame (seq 1), then dies without a Bye.
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        s.write_all(&encode_frame(FrameKind::One, 1, &one_value(9.0)))
            .unwrap();
        drop(s);
    });
    assert_eq!(t.recv(1).unwrap(), WireMsg::One(Value::Real(9.0)));
    expect_fault(t.recv(1), NetErrorKind::Closed, "without goodbye");
    assert_eq!(t.acked_frames(1), 2, "Hello + one data frame acked");
    let trace = hpf_obs::Trace::from_ranks(vec![(0, t.take_fault_events())]);
    let Some(hpf_obs::TraceEvent {
        body:
            hpf_obs::Body::Fault {
                name,
                last_seq,
                peer: fault_peer,
                ..
            },
        ..
    }) = trace.events.last()
    else {
        panic!("trace must end with the death of the link");
    };
    assert_eq!(name, "closed");
    assert_eq!(*fault_peer, Some(1));
    assert_eq!(*last_seq, Some(1), "last acked data frame had seq 1");
    peer.join().unwrap();
    let _ = t.finish();

    // A peer that dies straight after the handshake acked only the Hello.
    let (mut t, peer) = rank0_with_raw_peer(drop);
    expect_fault(t.recv(1), NetErrorKind::Closed, "without goodbye");
    let events = t.take_fault_events();
    let Some(hpf_obs::Body::Fault { last_seq, .. }) = events.last().map(|e| &e.body) else {
        panic!("missing fault event");
    };
    assert_eq!(*last_seq, Some(0), "only the Hello (seq 0) was acked");
    peer.join().unwrap();
    let _ = t.finish();
}

/// A silent peer's deadline trip is visible in the trace too, named after
/// the error kind (no finer codec tag applies).
#[test]
fn deadline_fault_is_named_in_the_trace() {
    let trace = trace_after_fault(
        |s| {
            std::thread::sleep(Duration::from_secs(4));
            drop(s);
        },
        NetErrorKind::Deadline,
        "no message within",
    );
    assert_eq!(trace.fault_names(), vec!["deadline"]);
}

/// Draining is destructive: once taken, fault events are gone.
#[test]
fn take_fault_events_drains() {
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        s.write_all(&encode_frame(FrameKind::One, 2, &one_value(0.5)))
            .unwrap();
    });
    expect_fault(t.recv(1), NetErrorKind::Codec, "dropped frame");
    assert_eq!(t.faults().len(), 1);
    assert_eq!(t.take_fault_events().len(), 1);
    assert!(t.take_fault_events().is_empty(), "second drain must be empty");
    assert!(t.faults().is_empty());
    peer.join().unwrap();
    let _ = t.finish();
}

/// A corrupted payload (checksum mismatch) is detected rather than
/// decoded into garbage values.
#[test]
fn corrupted_payload_is_detected() {
    let (mut t, peer) = rank0_with_raw_peer(|mut s| {
        let mut f = encode_frame(FrameKind::One, 1, &one_value(2.0));
        let last = f.len() - 1;
        f[last] ^= 0xff;
        s.write_all(&f).unwrap();
    });
    expect_fault(t.recv(1), NetErrorKind::Codec, "checksum");
    peer.join().unwrap();
    t.finish().unwrap();
}
