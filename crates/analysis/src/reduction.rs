//! Reduction recognition.
//!
//! Two patterns are recognized, matching what the paper's benchmarks need:
//!
//! 1. **Accumulation**: `s = s ⊕ e` where `⊕ ∈ {+, *, MAX, MIN}` and `e`
//!    does not read `s`, with `s` not otherwise defined or read in the
//!    loop (Figure 5, TOMCATV residual norms).
//! 2. **Maxloc** (DGEFA partial pivoting): an `IF` of the form
//!    `IF (f(e) > s) THEN { s = f(e); l = idx }` — a max reduction carrying
//!    the location of the maximum along with it.
//!
//! The mapping of reduction scalars is Sec. 2.3 of the paper and lives in
//! `phpf-core`; this module only identifies the operations and the
//! *partial-reduction operand* — the partitioned rhs array reference whose
//! ownership governs where each partial reduction executes.

use hpf_ir::{ArrayRef, BinOp, Expr, Intrinsic, LValue, Program, Stmt, StmtId, VarId};

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Sum,
    Prod,
    Max,
    Min,
    /// Max with carried location index (`maxloc`).
    MaxLoc,
}

impl RedOp {
    pub fn name(self) -> &'static str {
        match self {
            RedOp::Sum => "SUM",
            RedOp::Prod => "PRODUCT",
            RedOp::Max => "MAX",
            RedOp::Min => "MIN",
            RedOp::MaxLoc => "MAXLOC",
        }
    }
}

/// One recognized reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    pub op: RedOp,
    /// The accumulator scalar.
    pub var: VarId,
    /// Location variable for `MaxLoc` reductions.
    pub loc_var: Option<VarId>,
    /// The innermost loop carrying the reduction.
    pub loop_id: StmtId,
    /// Statements forming the reduction (the accumulation assignment, or
    /// the IF plus its body for maxloc).
    pub stmts: Vec<StmtId>,
    /// A partitioned rhs array reference inside the reduction whose owner
    /// performs the partial accumulation (the paper's "special array
    /// reference"); `None` when the operand is scalar/replicated.
    pub operand: Option<ArrayRef>,
}

/// Recognize all reductions in the program.
pub fn find_reductions(p: &Program) -> Vec<Reduction> {
    let mut out = Vec::new();
    for l in p.preorder() {
        if !p.stmt(l).is_loop() {
            continue;
        }
        let Stmt::Do { body, .. } = p.stmt(l) else {
            continue;
        };
        for &s in body {
            if let Some(r) = match_accumulation(p, l, s) {
                out.push(r);
            } else if let Some(r) = match_maxloc(p, l, s) {
                out.push(r);
            }
        }
    }
    out
}

/// `s = s ⊕ e`, with `e` free of `s`, `s` read/written nowhere else in `l`.
fn match_accumulation(p: &Program, l: StmtId, s: StmtId) -> Option<Reduction> {
    let Stmt::Assign {
        lhs: LValue::Scalar(v),
        rhs,
    } = p.stmt(s)
    else {
        return None;
    };
    let (op, operand_expr): (RedOp, &Expr) = match rhs {
        Expr::Binary(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Scalar(x), e) if x == v => (RedOp::Sum, e),
            (e, Expr::Scalar(x)) if x == v => (RedOp::Sum, e),
            _ => return None,
        },
        Expr::Binary(BinOp::Mul, a, b) => match (&**a, &**b) {
            (Expr::Scalar(x), e) if x == v => (RedOp::Prod, e),
            (e, Expr::Scalar(x)) if x == v => (RedOp::Prod, e),
            _ => return None,
        },
        Expr::Intrinsic(i @ (Intrinsic::Max | Intrinsic::Min), args) => {
            let red = if *i == Intrinsic::Max {
                RedOp::Max
            } else {
                RedOp::Min
            };
            match (&args[0], &args[1]) {
                (Expr::Scalar(x), e) if x == v => (red, e),
                (e, Expr::Scalar(x)) if x == v => (red, e),
                _ => return None,
            }
        }
        _ => return None,
    };
    if operand_expr.scalar_reads().contains(v) {
        return None;
    }
    if !exclusive_in_loop(p, l, s, *v) {
        return None;
    }
    Some(Reduction {
        op,
        var: *v,
        loc_var: None,
        loop_id: l,
        stmts: vec![s],
        operand: operand_expr.array_refs().first().map(|r| (*r).clone()),
    })
}

/// `IF (e > s) THEN { s = e' ; loc = idx }` with `e` structurally equal to
/// `e'` (maxloc); `>=`, `<`, `<=` variants accepted (min via `<`).
fn match_maxloc(p: &Program, l: StmtId, s: StmtId) -> Option<Reduction> {
    let Stmt::If {
        cond,
        then_body,
        else_body,
    } = p.stmt(s)
    else {
        return None;
    };
    if !else_body.is_empty() || then_body.is_empty() || then_body.len() > 2 {
        return None;
    }
    let Expr::Binary(rel, a, b) = cond else {
        return None;
    };
    // Normalize to candidate > accumulator.
    let (cand, acc_expr, is_max) = match rel {
        BinOp::Gt | BinOp::Ge => (&**a, &**b, true),
        BinOp::Lt | BinOp::Le => (&**a, &**b, false),
        _ => return None,
    };
    let Expr::Scalar(acc) = acc_expr else {
        return None;
    };
    // First body statement must assign the accumulator the candidate value.
    let Stmt::Assign {
        lhs: LValue::Scalar(v0),
        rhs: r0,
    } = p.stmt(then_body[0])
    else {
        return None;
    };
    if v0 != acc || r0 != cand {
        return None;
    }
    // Optional second statement records the location.
    let mut loc_var = None;
    if then_body.len() == 2 {
        let Stmt::Assign {
            lhs: LValue::Scalar(lv),
            ..
        } = p.stmt(then_body[1])
        else {
            return None;
        };
        loc_var = Some(*lv);
    }
    if !exclusive_in_loop(p, l, s, *acc) {
        return None;
    }
    let _ = is_max; // min-loc treated uniformly
    let mut stmts = vec![s];
    stmts.extend_from_slice(then_body);
    Some(Reduction {
        op: RedOp::MaxLoc,
        var: *acc,
        loc_var,
        loop_id: l,
        stmts,
        operand: cand.array_refs().first().map(|r| (*r).clone()),
    })
}

/// `var` is defined/read in loop `l` only within the reduction statement
/// subtree rooted at `s`.
fn exclusive_in_loop(p: &Program, l: StmtId, s: StmtId, var: VarId) -> bool {
    for t in p.preorder() {
        if t == l || !p.is_self_or_ancestor(l, t) || p.is_self_or_ancestor(s, t) {
            continue;
        }
        if p.stmt(t).written_var() == Some(var) {
            return false;
        }
        let mut reads = Vec::new();
        hpf_ir::visit::collect_stmt_scalar_reads(p.stmt(t), t, &mut reads);
        if reads.iter().any(|r| r.var == var) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parsed, var};

    #[test]
    fn sum_reduction_figure5() {
        let (p, _) = parsed(
            "REAL A(8,8), B(8)
INTEGER i, j
REAL s
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO",
        );
        let reds = find_reductions(&p);
        assert_eq!(reds.len(), 1);
        let r = &reds[0];
        assert_eq!(r.op, RedOp::Sum);
        assert_eq!(r.var, var(&p, "s"));
        assert_eq!(r.operand.as_ref().unwrap().array, var(&p, "a"));
        // Carried by the j loop.
        assert_eq!(p.loop_var(r.loop_id), Some(var(&p, "j")));
    }

    #[test]
    fn maxloc_dgefa_pattern() {
        let (p, _) = parsed(
            "REAL A(8)
INTEGER j
REAL tmax
INTEGER l
tmax = 0.0
DO j = 1, 8
  IF (ABS(A(j)) > tmax) THEN
    tmax = ABS(A(j))
    l = j
  END IF
END DO",
        );
        let reds = find_reductions(&p);
        assert_eq!(reds.len(), 1);
        let r = &reds[0];
        assert_eq!(r.op, RedOp::MaxLoc);
        assert_eq!(r.var, var(&p, "tmax"));
        assert_eq!(r.loc_var, Some(var(&p, "l")));
        assert_eq!(r.operand.as_ref().unwrap().array, var(&p, "a"));
    }

    #[test]
    fn operand_reading_accumulator_rejected() {
        // s = s + s*2 — not a reduction.
        let (p, _) = parsed(
            "INTEGER j
REAL s
DO j = 1, 8
  s = s + s * 2.0
END DO",
        );
        assert!(find_reductions(&p).is_empty());
    }

    #[test]
    fn extra_use_in_loop_rejected() {
        // s escapes into D every iteration: not a plain reduction.
        let (p, _) = parsed(
            "REAL A(8), D(8)
INTEGER j
REAL s
DO j = 1, 8
  s = s + A(j)
  D(j) = s
END DO",
        );
        assert!(find_reductions(&p).is_empty());
    }

    #[test]
    fn max_intrinsic_reduction() {
        let (p, _) = parsed(
            "REAL A(8)
INTEGER j
REAL s
DO j = 1, 8
  s = MAX(s, A(j))
END DO",
        );
        let reds = find_reductions(&p);
        assert_eq!(reds.len(), 1);
        assert_eq!(reds[0].op, RedOp::Max);
    }
}
