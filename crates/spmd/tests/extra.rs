//! Additional hpf-spmd coverage: executor behaviours the kernels don't
//! reach, cost-simulator accounting, combining statistics.

use hpf_analysis::Analysis;
use hpf_comm::MachineParams;
use hpf_dist::MappingTable;
use hpf_ir::parse_program;
use hpf_spmd::{
    combine_messages, costsim, lower, validate_against_sequential, validate_replay, SpmdExec,
    SpmdProgram,
};
use phpf_core::CoreConfig;

fn lowered(src: &str, cfg: CoreConfig) -> SpmdProgram {
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf_core::map_program(&p, &a, &maps, cfg);
    lower(&p, &a, &maps, d)
}

#[test]
fn union_guard_statements_execute_everywhere() {
    // z uses only replicated data: PrivateNoAlign, executed by all pids,
    // every local copy consistent.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(8), E(8)
INTEGER i
REAL z
DO i = 1, 8
  z = E(i) * 3.0
  A(i) = z
END DO
"#;
    let sp = lowered(src, CoreConfig::full());
    let e = sp.program.vars.lookup("e").unwrap();
    let mut exec = SpmdExec::new(&sp, move |m| {
        m.fill_real(e, &[1., 2., 3., 4., 5., 6., 7., 8.]);
    });
    exec.run().unwrap();
    // All copies of z agree (last iteration's value).
    let z = sp.program.vars.lookup("z").unwrap();
    let vals: Vec<_> = exec.mems.iter().map(|m| m.scalar(z)).collect();
    assert!(vals.iter().all(|v| *v == vals[0]));
    assert_eq!(vals[0], hpf_ir::Value::Real(24.0));
}

#[test]
fn costsim_accounts_reduction_combines() {
    let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ ALIGN B(i) WITH A(i,1)
!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A
REAL A(8,8), B(8)
INTEGER i, j
REAL s
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
    let sp = lower(&p, &a, &maps, d);
    assert_eq!(sp.reduces.len(), 1);
    let with = costsim::estimate(&sp, &a, &MachineParams::sp2());
    // Strip the reduce ops: comm time must drop.
    let mut sp2 = lowered(src, CoreConfig::full());
    sp2.reduces.clear();
    let a2 = Analysis::run(&sp2.program);
    let without = costsim::estimate(&sp2, &a2, &MachineParams::sp2());
    assert!(with.comm_s > without.comm_s);
}

#[test]
fn costsim_zero_trip_loops_cost_nothing() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(8), B(8)
INTEGER i
DO i = 5, 4
  A(i) = B(i)
END DO
"#;
    let sp = lowered(src, CoreConfig::full());
    let a = Analysis::run(&sp.program);
    let r = costsim::estimate(&sp, &a, &MachineParams::sp2());
    assert_eq!(r.compute_s, 0.0);
    // Vectorized comm at level 0 may still carry a startup for an empty
    // section in the model; its volume must be zero-ish.
    assert!(r.bytes <= 64.0, "bytes {}", r.bytes);
}

#[test]
fn combine_stats_expose_elimination() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, BLOCK) :: X, R1, R2, R3
REAL X(8,8), R1(8,8), R2(8,8), R3(8,8)
INTEGER i, j
DO j = 2, 7
  DO i = 2, 7
    R1(i,j) = X(i,j+1)
    R2(i,j) = X(i,j+1)
    R3(i,j) = X(i,j+1)
  END DO
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
    let mut sp = lower(&p, &a, &maps, d);
    let stats = combine_messages(&mut sp, &a);
    assert_eq!(stats.before, 3);
    assert_eq!(stats.after, 1);
    assert_eq!(stats.eliminated(), 2);
    // Still semantically correct afterwards.
    let x = p.vars.lookup("x").unwrap();
    validate_against_sequential(&sp, move |m| {
        let data: Vec<f64> = (0..64).map(|k| k as f64).collect();
        m.fill_real(x, &data);
    })
    .unwrap();
}

#[test]
fn replicated_lhs_written_by_everyone() {
    // E is replicated: every processor executes the write and holds the
    // result — no communication needed afterwards.
    let src = r#"
!HPF$ PROCESSORS P(4)
REAL E(8)
INTEGER i
DO i = 1, 8
  E(i) = i * 1.5
END DO
"#;
    let sp = lowered(src, CoreConfig::full());
    assert!(sp.comms.is_empty());
    let mut exec = SpmdExec::new(&sp, |_| {});
    exec.run().unwrap();
    assert_eq!(validate_replay(&sp, |_| {}).unwrap().metrics.messages(), 0);
    let e = sp.program.vars.lookup("e").unwrap();
    for m in &exec.mems {
        assert_eq!(m.real_slice(e)[7], 12.0);
    }
}

#[test]
fn guard_report_roundtrip() {
    // The Guard debug surface used by reports covers all variants.
    use hpf_spmd::Guard;
    let g = Guard::owner_of(hpf_ir::ArrayRef::new(hpf_ir::VarId(0), vec![]));
    assert!(g.is_partitioned());
    assert!(!Guard::Everyone.is_partitioned());
    assert!(!Guard::Union.is_partitioned());
}
