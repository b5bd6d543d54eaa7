//! Additional hpf-analysis coverage: liveness through nested control,
//! reductions inside deeper nests, induction interactions.

use hpf_analysis::{Analysis, Privatizable, RedOp};
use hpf_ir::{parse_program, Program, StmtId};

fn loop_of(p: &Program, var: &str) -> StmtId {
    let v = p.vars.lookup(var).unwrap();
    p.preorder()
        .into_iter()
        .find(|&s| p.loop_var(s) == Some(v))
        .unwrap()
}

#[test]
fn nested_reductions_both_recognized() {
    let src = r#"
REAL A(8,8)
INTEGER i, j
REAL rowsum, total
total = 0.0
DO i = 1, 8
  rowsum = 0.0
  DO j = 1, 8
    rowsum = rowsum + A(i,j)
  END DO
  total = total + rowsum
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    assert_eq!(a.reductions.len(), 2);
    let ops: Vec<RedOp> = a.reductions.iter().map(|r| r.op).collect();
    assert!(ops.iter().all(|&o| o == RedOp::Sum));
    // The inner reduction's operand is A(i,j); the outer's is the scalar
    // rowsum (no array operand).
    let inner = a
        .reductions
        .iter()
        .find(|r| p.loop_var(r.loop_id) == p.vars.lookup("j"))
        .unwrap();
    assert!(inner.operand.is_some());
    let outer = a
        .reductions
        .iter()
        .find(|r| p.loop_var(r.loop_id) == p.vars.lookup("i"))
        .unwrap();
    assert!(outer.operand.is_none());
}

#[test]
fn induction_variables_multiple_in_one_loop() {
    let src = r#"
REAL D(64)
INTEGER i, m, k2
m = 0
k2 = 10
DO i = 1, 8
  m = m + 1
  k2 = k2 + 2
  D(m) = 1.0
  D(k2) = 2.0
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let l = loop_of(&p, "i");
    let m = p.vars.lookup("m").unwrap();
    let k2 = p.vars.lookup("k2").unwrap();
    let ivm = a.induction.of(l, m).unwrap();
    let ivk = a.induction.of(l, k2).unwrap();
    assert_eq!((ivm.init, ivm.step), (0, 1));
    assert_eq!((ivk.init, ivk.step), (10, 2));
    // Closed forms: m = i, k2 = 10 + 2i.
    let i = p.vars.lookup("i").unwrap();
    assert_eq!(ivm.after.coeff(i), 1);
    assert_eq!(ivm.after.c0, 0);
    assert_eq!(ivk.after.coeff(i), 2);
    assert_eq!(ivk.after.c0, 10);
}

#[test]
fn privatizability_with_partial_redefinition() {
    // t defined on both branches before use: privatizable; defined on only
    // one branch: cross-iteration flow possible -> rejected.
    let both = r#"
REAL A(8), B(8), D(8)
INTEGER i
REAL t
DO i = 1, 8
  IF (B(i) > 0.0) THEN
    t = B(i)
  ELSE
    t = A(i)
  END IF
  D(i) = t
END DO
"#;
    let p = parse_program(both).unwrap();
    let a = Analysis::run(&p);
    let mut pc = a.priv_check();
    let l = loop_of(&p, "i");
    let t = p.vars.lookup("t").unwrap();
    for def in hpf_ir::visit::defs_of(&p, t) {
        assert!(
            pc.scalar_privatizable(l, def).without_copy_out(),
            "both-branch def {:?}",
            def
        );
    }

    let one = r#"
REAL A(8), B(8), D(8)
INTEGER i
REAL t
t = 0.0
DO i = 1, 8
  IF (B(i) > 0.0) THEN
    t = B(i)
  END IF
  D(i) = t
END DO
"#;
    let p2 = parse_program(one).unwrap();
    let a2 = Analysis::run(&p2);
    let mut pc2 = a2.priv_check();
    let l2 = loop_of(&p2, "i");
    let t2 = p2.vars.lookup("t").unwrap();
    let def_in_loop = hpf_ir::visit::defs_of(&p2, t2)
        .into_iter()
        .find(|&d| p2.nesting_level(d) > 0)
        .unwrap();
    assert_eq!(
        pc2.scalar_privatizable(l2, def_in_loop),
        Privatizable::No,
        "single-branch def leaks the previous iteration's value"
    );
}

#[test]
fn controldep_through_else_branch() {
    let src = r#"
REAL A(8), B(8)
INTEGER i
DO i = 1, 8
  IF (B(i) > 0.0) THEN
    A(i) = 1.0
  ELSE
    IF (B(i) < -1.0) THEN
      A(i) = 2.0
    END IF
  END IF
END DO
"#;
    let p = parse_program(src).unwrap();
    let ifs: Vec<_> = p
        .preorder()
        .into_iter()
        .filter(|&s| matches!(p.stmt(s), hpf_ir::Stmt::If { .. }))
        .collect();
    let outer_deps = hpf_analysis::controldep::dependents(&p, ifs[0]);
    // The inner IF and both assignments are dependent on the outer IF.
    assert!(outer_deps.contains(&ifs[1]));
    assert_eq!(
        outer_deps
            .iter()
            .filter(|&&s| p.stmt(s).is_assign())
            .count(),
        2
    );
}

#[test]
fn reaching_defs_through_goto() {
    let src = r#"
REAL B(8)
INTEGER i
REAL t, u
DO i = 1, 8
  t = 1.0
  IF (B(i) > 0.0) GOTO 50
  t = 2.0
50 CONTINUE
  u = t
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let t = p.vars.lookup("t").unwrap();
    let u_def = hpf_ir::visit::defs_of(&p, p.vars.lookup("u").unwrap())[0];
    let defs = a.rd.reaching_defs(&a.cfg, u_def, t);
    assert_eq!(defs.len(), 2, "both t defs reach the use via the goto");
}

#[test]
fn memory_carried_inference_via_no_value_deps() {
    // NO_VALUE_DEPS lets the compiler infer C's privatizability without a
    // NEW clause (Sec. 3.1's weaker directive).
    let src = r#"
REAL R(8,8), C(8)
INTEGER i, k
!HPF$ NO_VALUE_DEPS
DO k = 1, 8
  DO i = 1, 8
    C(i) = R(i,k) * 0.5
  END DO
  DO i = 1, 8
    R(i,k) = C(i)
  END DO
END DO
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let mut pc = a.priv_check();
    let l = loop_of(&p, "k");
    let c = p.vars.lookup("c").unwrap();
    assert!(pc.array_privatizable(&a.dom, &a.induction, l, c));
}
