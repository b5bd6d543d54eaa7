//! The event-stream codec the socket driver uses to ship each worker its
//! rank's slice of the reference trace: every `Event` variant round-trips,
//! whole kernel traces round-trip, and malformed input is an `Err`.

use phpf::compile::{compile_source, Options, Version};
use phpf::ir::{Memory, ScalarTy, StmtId};
use phpf::net::frame::{Dec, Enc};
use phpf::spmd::{decode_events, encode_events, Env, Event, Slot, SpmdExec, SpmdProgram, Tag};

const TOMCATV: &str = include_str!("../examples/hpf/tomcatv_small.hpf");
const DGEFA: &str = include_str!("../examples/hpf/dgefa_small.hpf");
const APPSP: &str = include_str!("../examples/hpf/appsp_small.hpf");

/// A program with a comm op, scalars and an array longer than `u32::MAX`
/// elements (never allocated: decoding only checks offsets against it).
const IDS: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, H
REAL A(16), H(6000000000)
REAL s, m
INTEGER i, k
DO i = 2, 15
  A(i) = A(i-1) + s
END DO
"#;

fn compile(src: &str) -> SpmdProgram {
    compile_source(src, Options::new(Version::SelectedAlignment))
        .expect("compiles")
        .spmd
}

fn encode(events: &[Event]) -> Vec<u8> {
    let mut e = Enc::new();
    assert_eq!(encode_events(&mut e, events, usize::MAX), events.len());
    e.buf
}

fn decode(bytes: &[u8], sp: &SpmdProgram, nproc: usize) -> Result<Vec<Event>, String> {
    let mut d = Dec::new(bytes);
    let events = decode_events(&mut d, sp, nproc).map_err(|e| e.to_string())?;
    d.done().map_err(|e| e.to_string())?;
    Ok(events)
}

/// One event of every variant, with the edge cases the wire form must
/// carry: every message tag, empty sections, `Combine` with and without
/// `loc`, env depths 0-3 and 6 (past the inline bindings) and element
/// offsets above `u32::MAX`.
fn every_variant(sp: &SpmdProgram) -> Vec<Event> {
    let var = |n: &str| sp.program.vars.lookup(n).expect("declared");
    let (a, h, s, m, i, k) = (var("a"), var("h"), var("s"), var("m"), var("i"), var("k"));
    let big = Slot::Elem(h, u32::MAX as usize + 7);
    assert!(!sp.comms.is_empty(), "the id program needs a comm op");
    let stmt = StmtId(sp.program.num_stmts() as u32 - 1);
    let mut events = vec![
        Event::Send {
            to: 3,
            slot: Slot::Scalar(s),
            tag: Tag::Reduce(2),
        },
        Event::Recv {
            from: 0,
            slot: Slot::Elem(a, 15),
            tag: Tag::Op(0),
        },
        Event::Send {
            to: 1,
            slot: big,
            tag: Tag::Control(0),
        },
        Event::Recv {
            from: 2,
            slot: Slot::Scalar(m),
            tag: Tag::Broadcast(1),
        },
        Event::Send {
            to: 0,
            slot: Slot::Elem(a, 1),
            tag: Tag::Untracked(300),
        },
        Event::SendVec {
            to: 2,
            op: 0,
            slots: vec![],
        },
        Event::SendVec {
            to: 2,
            op: 0,
            slots: vec![Slot::Elem(a, 0), big, Slot::Scalar(m)],
        },
        Event::RecvVec {
            from: 1,
            op: 0,
            slots: vec![],
        },
        Event::RecvVec {
            from: 1,
            op: 0,
            slots: vec![big, Slot::Elem(a, 3)],
        },
        Event::RecvPartial {
            from: 2,
            has_loc: true,
            level: 1,
        },
        Event::RecvPartial {
            from: 1,
            has_loc: false,
            level: 0,
        },
        Event::Combine {
            op: phpf::analysis::RedOp::Sum,
            acc: s,
            loc: None,
            count: 3,
        },
        Event::Combine {
            op: phpf::analysis::RedOp::MaxLoc,
            acc: m,
            loc: Some(k),
            count: 1,
        },
        Event::Combine {
            op: phpf::analysis::RedOp::Prod,
            acc: s,
            loc: None,
            count: 0,
        },
        Event::Combine {
            op: phpf::analysis::RedOp::Max,
            acc: m,
            loc: None,
            count: 2,
        },
        Event::Combine {
            op: phpf::analysis::RedOp::Min,
            acc: m,
            loc: None,
            count: 2,
        },
    ];
    let envs = [
        Env::new(),
        Env::from([(i, -4)]),
        Env::from([(i, 1), (k, i64::MAX)]),
        Env::from([(k, 0), (i, i64::MIN), (k, 9)]),
        Env::from([(i, 1), (k, 2), (i, 3), (k, -4), (i, 1 << 40), (k, -(1 << 40))]),
    ];
    for env in envs {
        events.push(Event::Exec {
            stmt,
            env: env.clone(),
        });
        events.push(Event::CondExec {
            stmt: StmtId(0),
            env,
        });
    }
    events
}

#[test]
fn every_event_variant_round_trips() {
    let sp = compile(IDS);
    let events = every_variant(&sp);
    assert_eq!(decode(&encode(&events), &sp, 4).unwrap(), events);
    assert_eq!(decode(&encode(&[]), &sp, 4).unwrap(), Vec::<Event>::new());
}

#[test]
fn chunks_respect_the_byte_bound_and_concatenate_to_the_list() {
    let sp = compile(IDS);
    let one = every_variant(&sp);
    let events: Vec<Event> = (0..50).flat_map(|_| one.iter().cloned()).collect();
    let bound = 200;
    let mut rest = &events[..];
    let mut decoded = Vec::new();
    let mut chunks = 0;
    while !rest.is_empty() {
        let mut e = Enc::new();
        let n = encode_events(&mut e, rest, bound);
        assert!(n >= 1, "a chunk always takes at least one event");
        // Stopping once the bound is reached overshoots by under one event.
        let one = encode(&rest[n - 1..n]).len() - 4;
        assert!(e.buf.len() < bound + one, "chunk of {} bytes", e.buf.len());
        decoded.extend(decode(&e.buf, &sp, 4).unwrap());
        rest = &rest[n..];
        chunks += 1;
    }
    assert!(chunks > 10);
    assert_eq!(decoded, events);
}

fn fills(sp: &SpmdProgram) -> impl Fn(&mut Memory) + Sync + '_ {
    move |m: &mut Memory| {
        for (v, info) in sp.program.vars.arrays() {
            if info.ty == ScalarTy::Real {
                let n = info.shape().unwrap().len() as usize;
                let data: Vec<f64> = (0..n)
                    .map(|k| 1.0 + ((k * 37 + 11) % 23) as f64 * 0.125)
                    .collect();
                m.fill_real(v, &data);
            }
        }
    }
}

#[test]
fn kernel_traces_round_trip_per_rank() {
    for (name, src) in [("tomcatv", TOMCATV), ("dgefa", DGEFA), ("appsp", APPSP)] {
        let sp = compile(src);
        let nproc = sp.maps.grid.total();
        for vectorize in [true, false] {
            let mut exec = SpmdExec::new(&sp, fills(&sp)).with_trace();
            if !vectorize {
                exec = exec.without_vectorization();
            }
            exec.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            let trace = exec.trace.take().unwrap();
            assert!(trace
                .iter()
                .any(|t| t.iter().any(|e| matches!(e, Event::Exec { .. }))));
            for (rank, events) in trace.iter().enumerate() {
                let back = decode(&encode(events), &sp, nproc)
                    .unwrap_or_else(|e| panic!("{name} rank {rank} (vectorize {vectorize}): {e}"));
                assert!(
                    back == *events,
                    "{name} rank {rank} (vectorize {vectorize}) differs"
                );
            }
        }
    }
}

#[test]
fn truncated_chunk_is_an_error() {
    let sp = compile(IDS);
    let bytes = encode(&every_variant(&sp));
    for cut in [0, 3, 4, 5, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            decode(&bytes[..cut], &sp, 4).is_err(),
            "cut at {cut} decoded"
        );
    }
}

#[test]
fn bad_tags_are_errors() {
    let sp = compile(IDS);
    let s = sp.program.vars.lookup("s").unwrap();
    // Unknown event tag.
    let mut bytes = encode(&[Event::RecvPartial {
        from: 0,
        has_loc: false,
        level: 0,
    }]);
    bytes[4] = 42;
    let err = decode(&bytes, &sp, 4).unwrap_err();
    assert!(err.contains("unknown event tag 42"), "{err}");
    // Unknown slot tag.
    let mut bytes = encode(&[Event::Send {
        to: 0,
        slot: Slot::Scalar(s),
        tag: Tag::Control(0),
    }]);
    // Count, event tag, one-byte varint `to`, then the slot tag.
    bytes[4 + 1 + 1] = 9;
    let err = decode(&bytes, &sp, 4).unwrap_err();
    assert!(err.contains("unknown slot tag 9"), "{err}");
    // Unknown message tag: after the two-byte scalar slot.
    bytes[4 + 1 + 1] = 0;
    bytes[4 + 1 + 1 + 2] = 5;
    let err = decode(&bytes, &sp, 4).unwrap_err();
    assert!(err.contains("unknown message tag 5"), "{err}");
    // Unknown reduction op.
    let mut bytes = encode(&[Event::Combine {
        op: phpf::analysis::RedOp::Sum,
        acc: s,
        loc: None,
        count: 1,
    }]);
    bytes[4 + 1] = 17;
    let err = decode(&bytes, &sp, 4).unwrap_err();
    assert!(err.contains("reduction op"), "{err}");
}

#[test]
fn out_of_range_ids_are_errors() {
    let sp = compile(IDS);
    let var = |n: &str| sp.program.vars.lookup(n).unwrap();
    let (a, s) = (var("a"), var("s"));
    let nstmts = sp.program.num_stmts() as u32;
    let cases = [
        (
            Event::Exec {
                stmt: StmtId(nstmts),
                env: Env::new(),
            },
            "statement",
        ),
        (
            Event::CondExec {
                stmt: StmtId(u32::MAX),
                env: Env::new(),
            },
            "statement",
        ),
        (
            Event::Send {
                to: 4,
                slot: Slot::Scalar(s),
                tag: Tag::Op(0),
            },
            "peer rank 4",
        ),
        (
            Event::RecvPartial {
                from: 7,
                has_loc: true,
                level: 0,
            },
            "peer rank 7",
        ),
        (
            Event::SendVec {
                to: 0,
                op: sp.comms.len(),
                slots: vec![],
            },
            "comm op",
        ),
        (
            Event::Recv {
                from: 0,
                slot: Slot::Elem(a, 16),
                tag: Tag::Op(0),
            },
            "offset 16",
        ),
        (
            Event::Recv {
                from: 0,
                slot: Slot::Scalar(a),
                tag: Tag::Op(0),
            },
            "array, not a scalar",
        ),
        (
            Event::Recv {
                from: 0,
                slot: Slot::Elem(s, 0),
                tag: Tag::Op(0),
            },
            "scalar, not an array",
        ),
        (
            Event::Send {
                to: 0,
                slot: Slot::Scalar(phpf::ir::VarId(sp.program.vars.len() as u32)),
                tag: Tag::Op(0),
            },
            "out of range",
        ),
        (
            Event::Recv {
                from: 0,
                slot: Slot::Scalar(s),
                tag: Tag::Op(sp.comms.len()),
            },
            "comm op",
        ),
        (
            Event::Exec {
                stmt: StmtId(0),
                env: Env::from([(a, 1)]),
            },
            "array, not a scalar",
        ),
    ];
    for (ev, want) in cases {
        let err = decode(&encode(std::slice::from_ref(&ev)), &sp, 4)
            .expect_err(&format!("{ev:?} decoded"));
        assert!(err.contains(want), "{ev:?}: {err}");
    }
}

fn uvar_bytes(v: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.uvar(v);
    e.buf
}

/// The varints every id, count, offset and loop value travels as: edge
/// values round-trip at their expected lengths, and over-long, overflowing
/// or truncated input is an error.
#[test]
fn varint_edge_cases() {
    for (v, len) in [(0, 1), (127, 1), (128, 2), (u32::MAX as u64, 5), (u64::MAX, 10)] {
        let bytes = uvar_bytes(v);
        assert_eq!(bytes.len(), len, "{v}");
        let mut d = Dec::new(&bytes);
        assert_eq!(d.uvar().unwrap(), v);
        d.done().unwrap();
    }
    for (v, len) in [(0, 1), (-1, 1), (63, 1), (-64, 1), (64, 2), (i64::MIN, 10), (i64::MAX, 10)] {
        let mut e = Enc::new();
        e.ivar(v);
        assert_eq!(e.buf.len(), len, "{v}");
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.ivar().unwrap(), v);
        d.done().unwrap();
    }
    // Eleven bytes: ten continuation bytes, then a terminator.
    let mut long = vec![0x80; 10];
    long.push(0);
    assert!(Dec::new(&long).uvar().is_err());
    // Ten bytes whose last one carries more than the 64th bit.
    let mut over = vec![0xff; 9];
    over.push(0x02);
    assert!(Dec::new(&over).uvar().is_err());
    // Truncated: a continuation bit with nothing after it.
    let max = uvar_bytes(u64::MAX);
    for cut in [0, 1, 9] {
        assert!(Dec::new(&max[..cut]).uvar().is_err(), "cut at {cut}");
        assert!(Dec::new(&max[..cut]).ivar().is_err(), "cut at {cut}");
    }
}
