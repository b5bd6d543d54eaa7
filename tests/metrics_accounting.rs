//! Unit tests for the communication-metrics accounting: each pattern's
//! traffic lands under its own key, reduction combines are tallied apart,
//! one processor means zero messages, and a placed operation that never
//! crosses a processor boundary counts zero without erroring.

use phpf::compile::{compile_source, Options, Version};
use phpf::spmd::validate_replay;

/// The wire metrics of a validated thread-backend run.
fn run(src: &str, version: Version) -> (phpf::compile::Compiled, phpf::spmd::CommMetrics) {
    let c = compile_source(src, Options::new(version)).expect("compiles");
    let r = validate_replay(&c.spmd, |m| {
        for (v, info) in c.spmd.program.vars.arrays() {
            let shape = info.shape().unwrap();
            let data: Vec<f64> = (0..shape.len()).map(|k| 1.0 + (k as f64) * 0.25).collect();
            m.fill_real(v, &data);
        }
    });
    let metrics = r.expect("runs").metrics;
    (c, metrics)
}

const STENCIL: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
REAL t
DO i = 2, 15
  t = B(i-1) + B(i+1)
  A(i) = t * 0.5
END DO
"#;

#[test]
fn shift_traffic_counted_under_shift() {
    let (c, m) = run(STENCIL, Version::SelectedAlignment);
    assert!(
        c.spmd
            .comms
            .iter()
            .any(|op| op.pattern.name() == "shift"),
        "stencil places shift ops: {:?}",
        c.spmd.comms
    );
    let shift = m.per_pattern.get("shift").expect("shift key recorded");
    assert!(shift.messages > 0, "boundary exchange happened");
    assert!(shift.bytes > 0);
    assert_eq!(m.untracked_messages, 0, "all traffic attributed");
    // Every attributed wire message sits in exactly one per-op counter.
    let per_op_total: u64 = m.per_op.iter().map(|o| o.messages).sum();
    let shift_total: u64 = m
        .per_pattern
        .iter()
        .filter(|(k, _)| !["reduce", "control", "untracked", "element"].contains(k))
        .map(|(_, v)| v.messages)
        .sum();
    assert_eq!(per_op_total, shift_total);
}

#[test]
fn broadcast_traffic_counted_under_broadcast() {
    // Every processor's writes read the fixed corner element A(1,1):
    // a one-to-many transfer.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, BLOCK) :: A, B
REAL A(8,8), B(8,8)
INTEGER i, j
DO j = 1, 8
  DO i = 1, 8
    B(i,j) = A(1,1) + 1.0
  END DO
END DO
"#;
    let (c, m) = run(src, Version::SelectedAlignment);
    assert!(
        c.spmd.comms.iter().any(|op| op.pattern.name() == "broadcast"),
        "fixed-element read classifies as broadcast: {:?}",
        c.spmd.comms
    );
    let b = m.per_pattern.get("broadcast").expect("broadcast recorded");
    // Three of four processors fetch the corner from its owner; hoisted to
    // one coalesced message each.
    assert!(b.messages >= 3, "broadcast messages: {:?}", m.per_pattern);
    assert_eq!(m.untracked_messages, 0);
}

#[test]
fn transpose_traffic_counted_under_transpose() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK, *) :: A
!HPF$ DISTRIBUTE (*, BLOCK) :: B
REAL A(8,8), B(8,8)
INTEGER i, j
DO i = 1, 8
  DO j = 1, 8
    A(i,j) = B(i,j)
  END DO
END DO
"#;
    let (c, m) = run(src, Version::SelectedAlignment);
    assert!(
        c.spmd.comms.iter().any(|op| op.pattern.name() == "transpose"),
        "orthogonal redistributions classify as transpose: {:?}",
        c.spmd.comms
    );
    let t = m.per_pattern.get("transpose").expect("transpose recorded");
    assert!(t.messages > 0);
    assert_eq!(m.untracked_messages, 0);
}

#[test]
fn point_to_point_counted_under_point_to_point() {
    // An indirect (non-affine) subscript defeats every structured
    // classification: the gather through IDX is point-to-point. IDX holds
    // a reversal, so most fetches cross a processor boundary.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER IDX(16)
INTEGER i
DO i = 1, 16
  A(i) = B(IDX(i))
END DO
"#;
    let c = compile_source(src, Options::new(Version::SelectedAlignment)).expect("compiles");
    assert!(
        c.spmd
            .comms
            .iter()
            .any(|op| op.pattern.name() == "point-to-point"),
        "indirect gather is point-to-point: {:?}",
        c.spmd.comms
    );
    let prog = &c.spmd.program;
    let b = prog.vars.lookup("b").unwrap();
    let idx = prog.vars.lookup("idx").unwrap();
    let b0: Vec<f64> = (0..16).map(|k| k as f64).collect();
    let r = validate_replay(&c.spmd, |m| {
        m.fill_real(b, &b0);
        for k in 0..16i64 {
            m.array_mut(idx)
                .set(k as usize, phpf::ir::Value::Int(16 - k))
                .unwrap();
        }
    });
    let m = r.expect("runs").metrics;
    let p2p = m
        .per_pattern
        .get("point-to-point")
        .expect("point-to-point recorded");
    assert!(p2p.messages > 0, "{:?}", m.per_pattern);
    assert_eq!(m.untracked_messages, 0);
}

#[test]
fn reduce_traffic_tallied_apart_from_ops() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
REAL s
INTEGER i
s = 0.0
DO i = 1, 16
  s = s + A(i)
END DO
"#;
    let (c, m) = run(src, Version::SelectedAlignment);
    assert!(!c.spmd.reduces.is_empty(), "sum reduction recognized");
    let r = m.per_pattern.get("reduce").expect("reduce traffic recorded");
    assert!(r.messages > 0, "partial sums were combined");
    // Combine traffic is not attributed to any placed operation.
    let per_op_total: u64 = m.per_op.iter().map(|o| o.messages).sum();
    assert!(per_op_total + r.messages <= m.messages());
}

#[test]
fn single_processor_sends_nothing() {
    let src = STENCIL.replace("P(4)", "P(1)");
    let (_, m) = run(&src, Version::SelectedAlignment);
    assert_eq!(m.messages(), 0, "{:?}", m.per_pattern);
    assert_eq!(m.bytes(), 0);
    assert_eq!(m.untracked_messages, 0);
    assert_eq!(m.max_in_flight, 0);
}

#[test]
fn placed_op_with_no_crossing_counts_zero() {
    // The shifted read B(i-1) for i in 2..8 stays inside processor 0's
    // block (elements 1..8 of 16 on P(2)): the operation is placed but no
    // wire message ever materializes.
    let src = r#"
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
DO i = 2, 8
  A(i) = B(i-1)
END DO
"#;
    let (c, m) = run(src, Version::SelectedAlignment);
    assert!(!c.spmd.comms.is_empty(), "shift op placed");
    assert_eq!(m.messages(), 0, "{:?}", m.per_pattern);
    assert!(m.per_op.iter().all(|o| o.messages == 0 && o.elements == 0));
}

#[test]
fn per_processor_totals_mirror_aggregates() {
    let (_, m) = run(STENCIL, Version::SelectedAlignment);
    let sent: u64 = m.per_proc.iter().map(|p| p.sent_messages).sum();
    let recv: u64 = m.per_proc.iter().map(|p| p.recv_messages).sum();
    assert_eq!(sent, m.messages());
    assert_eq!(recv, m.messages());
    let sent_b: u64 = m.per_proc.iter().map(|p| p.sent_bytes).sum();
    assert_eq!(sent_b, m.bytes());
}
