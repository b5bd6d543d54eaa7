//! Additional hpf-ir coverage: parser corners, pretty round trips on
//! every construct, program query edge cases, interpreter details.

use hpf_ir::interp::{run_program, Value};
use hpf_ir::pretty::print_program;
use hpf_ir::{parse_program, BinOp, Expr, Stmt};

#[test]
fn double_precision_and_dotted_ops() {
    let src = r#"
DOUBLE PRECISION x, y
LOGICAL q
x = 2.0d0
y = x ** 2
q = y .GT. 3.9 .AND. y .LT. 4.1
"#;
    let p = parse_program(src).unwrap();
    let (mem, _) = run_program(&p, |_| {}).unwrap();
    assert_eq!(mem.scalar(p.vars.lookup("y").unwrap()), Value::Real(4.0));
    assert_eq!(mem.scalar(p.vars.lookup("q").unwrap()), Value::Bool(true));
}

#[test]
fn go_to_two_words() {
    let src = r#"
INTEGER k
k = 0
10 k = k + 1
IF (k < 3) GO TO 10
"#;
    let p = parse_program(src).unwrap();
    let (mem, _) = run_program(&p, |_| {}).unwrap();
    assert_eq!(mem.scalar(p.vars.lookup("k").unwrap()), Value::Int(3));
}

#[test]
fn lower_bound_declarations() {
    let src = r#"
REAL A(0:7), B(-2:2)
INTEGER i
DO i = 0, 7
  A(i) = i * 1.0
END DO
DO i = -2, 2
  B(i) = i * 1.0
END DO
"#;
    let p = parse_program(src).unwrap();
    let (mem, _) = run_program(&p, |_| {}).unwrap();
    assert_eq!(
        mem.real_slice(p.vars.lookup("b").unwrap()),
        &[-2.0, -1.0, 0.0, 1.0, 2.0]
    );
}

#[test]
fn pretty_roundtrip_every_construct() {
    let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (BLOCK, CYCLIC(2)) :: A
!HPF$ ALIGN B(i,j) WITH A(i,j)
REAL A(8,8), B(8,8)
INTEGER i, j
REAL s
DO i = 1, 8
  DO j = 1, 8, 2
    IF (A(i,j) > 0.0) THEN
      s = MAX(s, A(i,j))
    ELSE
      IF (A(i,j) < -1.0) GOTO 100
      B(i,j) = -A(i,j)
    END IF
100 CONTINUE
  END DO
END DO
"#;
    let p1 = parse_program(src).unwrap();
    let text = print_program(&p1);
    let p2 = parse_program(&text).unwrap_or_else(|e| panic!("{}\n{}", e, text));
    assert_eq!(p1.num_stmts(), p2.num_stmts());
    // Semantics agree on a sample input.
    let run = |p: &hpf_ir::Program| {
        let a = p.vars.lookup("a").unwrap();
        let (mem, _) = run_program(p, |m| {
            let data: Vec<f64> = (0..64).map(|k| (k as f64) * 0.3 - 8.0).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        (
            mem.real_slice(p.vars.lookup("b").unwrap()).to_vec(),
            mem.scalar(p.vars.lookup("s").unwrap()),
        )
    };
    assert_eq!(run(&p1), run(&p2));
}

#[test]
fn independent_attaches_to_following_loop_only() {
    let src = r#"
REAL C(4), D(4)
INTEGER i, j
!HPF$ INDEPENDENT, NEW(c)
DO i = 1, 4
  C(1) = 1.0
END DO
!HPF$ INDEPENDENT, NEW(d)
DO j = 1, 4
  D(1) = 1.0
END DO
"#;
    let p = parse_program(src).unwrap();
    let loops: Vec<_> = p
        .preorder()
        .into_iter()
        .filter(|&s| p.stmt(s).is_loop())
        .collect();
    assert_eq!(loops.len(), 2);
    let c = p.vars.lookup("c").unwrap();
    let d = p.vars.lookup("d").unwrap();
    assert!(p.directives.is_new_var(loops[0], c));
    assert!(!p.directives.is_new_var(loops[0], d));
    assert!(p.directives.is_new_var(loops[1], d));
    assert!(!p.directives.is_new_var(loops[1], c));
}

#[test]
fn containing_block_and_levels() {
    let src = r#"
INTEGER i
REAL x
DO i = 1, 2
  x = 1.0
  x = 2.0
END DO
"#;
    let p = parse_program(src).unwrap();
    let [outer, _, inner] = p.preorder()[..] else {
        panic!("a loop and its two statements");
    };
    let (block, pos) = p.containing_block(inner);
    assert_eq!(block.len(), 2);
    assert_eq!(pos, 1);
    let (rootblk, rpos) = p.containing_block(outer);
    assert_eq!(rootblk, &p.body[..]);
    assert_eq!(rpos, 0);
}

#[test]
fn interp_power_and_mod() {
    let src = r#"
INTEGER a, b
REAL r
a = 2 ** 10
b = MOD(17, 5)
r = 2.0 ** (-1.0)
"#;
    let p = parse_program(src).unwrap();
    let (mem, _) = run_program(&p, |_| {}).unwrap();
    assert_eq!(mem.scalar(p.vars.lookup("a").unwrap()), Value::Int(1024));
    assert_eq!(mem.scalar(p.vars.lookup("b").unwrap()), Value::Int(2));
    assert_eq!(mem.scalar(p.vars.lookup("r").unwrap()), Value::Real(0.5));
}

#[test]
fn validate_catches_rank_mismatch_and_bad_goto() {
    // Build an invalid program by hand: the parser rejects both faults.
    let mut p = hpf_ir::Program::new();
    let a2 = p.vars.declare(hpf_ir::VarInfo::array(
        "A",
        hpf_ir::ScalarTy::Real,
        hpf_ir::ArrayShape::of_extents(&[4, 4]),
    ))
    .unwrap();
    let s = p.add_stmt(Stmt::Assign {
        lhs: hpf_ir::LValue::Array(hpf_ir::ArrayRef::new(a2, vec![Expr::int(1)])),
        rhs: Expr::real(0.0),
    });
    let g = p.add_stmt(Stmt::Goto(hpf_ir::Label(99)));
    p.body = vec![s, g];
    p.rebuild_topology();
    let errs = p.validate();
    assert!(errs.iter().any(|e| e.contains("rank mismatch")));
    assert!(errs.iter().any(|e| e.contains("undefined label")));
}

#[test]
fn transfers_outside_nested_structures() {
    // goto from a doubly nested if, out of the middle loop but not the
    // outer one.
    let src = r#"
REAL W(8)
INTEGER i, j
DO i = 1, 4
  DO j = 1, 4
    IF (W(j) > 0.0) THEN
      GOTO 200
    END IF
  END DO
200 CONTINUE
END DO
"#;
    let p = parse_program(src).unwrap();
    let loops: Vec<_> = p
        .preorder()
        .into_iter()
        .filter(|&s| p.stmt(s).is_loop())
        .collect();
    let iff = p
        .preorder()
        .into_iter()
        .find(|&s| matches!(p.stmt(s), Stmt::If { .. }))
        .unwrap();
    // Escapes the inner j loop...
    assert!(p.transfers_outside(iff, loops[1]));
    // ...but not the outer i loop.
    assert!(!p.transfers_outside(iff, loops[0]));
}

#[test]
fn comparison_chain_precedence() {
    let src = r#"
LOGICAL q
INTEGER a
a = 5
q = (a > 1) .AND. (a < 10) .OR. (a == 0)
"#;
    let p = parse_program(src).unwrap();
    let (mem, _) = run_program(&p, |_| {}).unwrap();
    assert_eq!(mem.scalar(p.vars.lookup("q").unwrap()), Value::Bool(true));
    let _ = BinOp::And;
}
