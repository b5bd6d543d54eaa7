//! Automatic array privatizability analysis.
//!
//! The paper's phpf "currently relies on directives from the programmer to
//! infer that arrays are privatizable" and names automatic array
//! privatization as future work ("In the future, we plan to integrate our
//! mapping techniques with automatic array privatization"). This module
//! implements that integration with a simplified Tu–Padua-style test: an
//! array `A` is privatizable with respect to loop `L` when
//!
//! 1. every reference to `A` lies inside `L` (conservative no-live-out:
//!    nothing before or after the loop sees the array);
//! 2. every read of `A` inside `L` is *covered* by an unconditional write
//!    inside the same iteration of `L`: a textually preceding write,
//!    nested only in `DO` loops (no `IF` guards), whose per-dimension
//!    subscript range (over the loops strictly inside `L`) contains the
//!    read's range, with `L`'s own index held symbolic so the containment
//!    is proven for *each* iteration.
//!
//! The range containment uses the same affine interval machinery as the
//! Banerjee dependence test.

use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::induction::InductionAnalysis;
use hpf_ir::{Affine, ArrayRef, LValue, Program, Stmt, StmtId, VarId};

/// All arrays automatically provable privatizable w.r.t. `l`.
pub fn auto_privatizable_arrays(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    l: StmtId,
) -> Vec<VarId> {
    let mut out = Vec::new();
    // Candidates: arrays written inside l.
    let mut candidates: Vec<VarId> = Vec::new();
    for s in p.preorder() {
        if s == l || !p.is_self_or_ancestor(l, s) {
            continue;
        }
        if let Stmt::Assign {
            lhs: LValue::Array(r),
            ..
        } = p.stmt(s)
        {
            if !candidates.contains(&r.array) {
                candidates.push(r.array);
            }
        }
    }
    for v in candidates {
        if array_privatizable(p, cfg, dom, ia, l, v) {
            out.push(v);
        }
    }
    out
}

/// The per-array test described in the module docs.
pub fn array_privatizable(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    l: StmtId,
    v: VarId,
) -> bool {
    // (1) No references outside the loop.
    for s in p.preorder() {
        if p.is_self_or_ancestor(l, s) {
            continue;
        }
        if references_array(p, s, v) {
            return false;
        }
    }
    // Collect writes and reads inside l.
    let mut writes: Vec<(StmtId, ArrayRef)> = Vec::new();
    let mut reads: Vec<(StmtId, ArrayRef)> = Vec::new();
    for s in p.preorder() {
        if s == l || !p.is_self_or_ancestor(l, s) {
            continue;
        }
        if let Stmt::Assign { lhs, rhs } = p.stmt(s) {
            if let LValue::Array(r) = lhs {
                if r.array == v {
                    writes.push((s, r.clone()));
                }
            }
            for r in rhs.array_refs() {
                if r.array == v {
                    reads.push((s, r.clone()));
                }
            }
        } else {
            // Reads in conditions / bounds.
            for e in p.stmt(s).read_exprs() {
                for r in e.array_refs() {
                    if r.array == v {
                        reads.push((s, r.clone()));
                    }
                }
            }
        }
    }
    if writes.is_empty() {
        return false;
    }
    // (2) Every read covered by an unconditional, textually preceding
    // write in the same iteration of l.
    let pre = p.preorder();
    let pos = |s: StmtId| pre.iter().position(|&x| x == s).unwrap();
    for (rs, rr) in &reads {
        let covered = writes.iter().any(|(ws, wr)| {
            pos(*ws) < pos(*rs)
                && write_unconditional_in(p, l, *ws)
                && ranges_contained(p, cfg, dom, ia, l, *ws, wr, *rs, rr)
        });
        if !covered {
            return false;
        }
    }
    true
}

fn references_array(p: &Program, s: StmtId, v: VarId) -> bool {
    if let Stmt::Assign {
        lhs: LValue::Array(r),
        ..
    } = p.stmt(s)
    {
        if r.array == v {
            return true;
        }
    }
    p.stmt(s)
        .read_exprs()
        .iter()
        .any(|e| e.array_refs().iter().any(|r| r.array == v))
}

/// The write executes on every iteration of `l`: its ancestors up to `l`
/// are all `DO` loops (no `IF`s, no `GOTO`-reachable skips at this level —
/// conservative: any IF ancestor disqualifies).
fn write_unconditional_in(p: &Program, l: StmtId, ws: StmtId) -> bool {
    let mut cur = p.parent(ws);
    while let Some(c) = cur {
        if c == l {
            return true;
        }
        if !p.stmt(c).is_loop() {
            return false;
        }
        cur = p.parent(c);
    }
    false
}

/// Per-dimension containment of the read's subscript range in the write's
/// range, over the loops strictly inside `l` (the `l` index stays
/// symbolic, so containment holds in each iteration).
#[allow(clippy::too_many_arguments)]
fn ranges_contained(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    l: StmtId,
    ws: StmtId,
    wr: &ArrayRef,
    rs: StmtId,
    rr: &ArrayRef,
) -> bool {
    for (wsub, rsub) in wr.subs.iter().zip(&rr.subs) {
        let (Some(wa), Some(ra)) = (
            ia.affine_view(p, cfg, dom, ws, wsub),
            ia.affine_view(p, cfg, dom, rs, rsub),
        ) else {
            return false;
        };
        let (w_min, w_max) = range_inside(p, ia, cfg, dom, l, ws, &wa);
        let (r_min, r_max) = range_inside(p, ia, cfg, dom, l, rs, &ra);
        // Containment: w_min <= r_min and r_max <= w_max, proven by
        // minimizing the differences over any shared symbols.
        let nonneg = |a: Affine| matches!(minimize(p, ia, cfg, dom, ws, rs, a).as_const(), Some(c) if c >= 0);
        if !(nonneg(r_min.sub(&w_min)) && nonneg(w_max.sub(&r_max))) {
            return false;
        }
    }
    true
}

/// Interval over the loops strictly inside `l`.
fn range_inside(
    p: &Program,
    ia: &InductionAnalysis,
    cfg: &Cfg,
    dom: &Dominators,
    l: StmtId,
    stmt: StmtId,
    aff: &Affine,
) -> (Affine, Affine) {
    let mut lo = aff.clone();
    let mut hi = aff.clone();
    let loops: Vec<StmtId> = p
        .enclosing_loops(stmt)
        .into_iter()
        .filter(|&lp| lp != l && p.is_self_or_ancestor(l, lp))
        .collect();
    for &lp in loops.iter().rev() {
        let var = p.loop_var(lp).unwrap();
        let Stmt::Do { lo: lb, hi: ub, .. } = p.stmt(lp) else {
            continue;
        };
        let (Some(lb), Some(ub)) = (
            ia.affine_view(p, cfg, dom, lp, lb),
            ia.affine_view(p, cfg, dom, lp, ub),
        ) else {
            continue;
        };
        let c = lo.coeff(var);
        if c != 0 {
            lo = lo.substitute(var, if c > 0 { &lb } else { &ub });
        }
        let c = hi.coeff(var);
        if c != 0 {
            hi = hi.substitute(var, if c > 0 { &ub } else { &lb });
        }
    }
    (lo, hi)
}

/// Minimize an affine form over the bound ranges of the loops of either
/// statement (shared symbols resolved pessimistically).
fn minimize(
    p: &Program,
    ia: &InductionAnalysis,
    cfg: &Cfg,
    dom: &Dominators,
    a_stmt: StmtId,
    b_stmt: StmtId,
    mut a: Affine,
) -> Affine {
    let mut loops: Vec<StmtId> = p.enclosing_loops(a_stmt);
    for l in p.enclosing_loops(b_stmt) {
        if !loops.contains(&l) {
            loops.push(l);
        }
    }
    for _ in 0..loops.len() + 1 {
        let mut changed = false;
        for &l in loops.iter().rev() {
            let var = p.loop_var(l).unwrap();
            let c = a.coeff(var);
            if c == 0 {
                continue;
            }
            let Stmt::Do { lo, hi, .. } = p.stmt(l) else { continue };
            let (Some(lb), Some(ub)) = (
                ia.affine_view(p, cfg, dom, l, lo),
                ia.affine_view(p, cfg, dom, l, hi),
            ) else {
                continue;
            };
            a = a.substitute(var, if c > 0 { &lb } else { &ub });
            changed = true;
        }
        if !changed {
            break;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{var, Analysis};
    use hpf_ir::parse_program;

    fn setup(src: &str) -> (Program, StmtId) {
        let p = parse_program(src).unwrap();
        let l = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop())
            .unwrap();
        (p, l)
    }

    /// The APPSP pattern without any NEW directive: C is automatically
    /// provable privatizable w.r.t. the k loop.
    #[test]
    fn appsp_pattern_detected_without_directive() {
        let (p, kloop) = setup(
            r#"
REAL RSD(5,8,8,8), C(8,8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j) = RSD(1,i,j,k) + 1.0
    END DO
  END DO
  DO j = 3, 7
    DO i = 2, 7
      RSD(1,i,j,k) = C(i,j-1) * 2.0
    END DO
  END DO
END DO
"#,
        );
        let a = Analysis::run(&p);
        let c = var(&p, "c");
        assert_eq!(
            auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop),
            vec![c]
        );
    }

    /// Reads outside the write's covered range (upward-exposed) reject.
    #[test]
    fn upward_exposed_read_rejected() {
        let (p, kloop) = setup(
            r#"
REAL R(8,8), C(8,8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 3, 7
    DO i = 2, 7
      R(i,k) = C(i,j-1)
    END DO
  END DO
  DO j = 2, 7
    DO i = 2, 7
      C(i,j) = R(i,k) + 1.0
    END DO
  END DO
END DO
"#,
        );
        let a = Analysis::run(&p);
        // The read precedes the write: cross-iteration flow possible.
        let c = var(&p, "c");
        assert!(!auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop).contains(&c));
    }

    /// A conditional write does not cover.
    #[test]
    fn conditional_write_rejected() {
        let (p, kloop) = setup(
            r#"
REAL R(8,8), C(8,8), W(8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      IF (W(i) > 0.0) THEN
        C(i,j) = 1.0
      END IF
    END DO
  END DO
  DO j = 2, 7
    DO i = 2, 7
      R(i,k) = C(i,j)
    END DO
  END DO
END DO
"#,
        );
        let a = Analysis::run(&p);
        let c = var(&p, "c");
        assert!(!auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop).contains(&c));
    }

    /// Use after the loop (live-out) rejects.
    #[test]
    fn live_out_rejected() {
        let (p, kloop) = setup(
            r#"
REAL R(8,8), C(8,8), S(8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j) = 1.0
    END DO
  END DO
  DO j = 2, 7
    DO i = 2, 7
      R(i,k) = C(i,j)
    END DO
  END DO
END DO
S(1) = C(2,2)
"#,
        );
        let a = Analysis::run(&p);
        let c = var(&p, "c");
        assert!(!auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop).contains(&c));
    }

    /// A read whose range the write fully covers (same subscripts) passes
    /// even with offsets, while an uncovered widening read fails.
    #[test]
    fn range_containment_checked() {
        // Write covers [2,7]; read at j+1 ranges [3,8] — NOT contained.
        let (p, kloop) = setup(
            r#"
REAL R(9,9), C(9,9)
INTEGER i, j, k
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j) = 1.0
    END DO
  END DO
  DO j = 2, 7
    DO i = 2, 7
      R(i,k) = C(i,j+1)
    END DO
  END DO
END DO
"#,
        );
        let a = Analysis::run(&p);
        let c = var(&p, "c");
        assert!(!auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop).contains(&c));
    }

    /// A never-read scratch array trivially qualifies (nothing observes
    /// its values).
    #[test]
    fn write_only_array_qualifies() {
        let (p, kloop) = setup(
            r#"
REAL R(8,8), W(8)
INTEGER i, k
DO k = 2, 7
  DO i = 2, 7
    R(i,k) = W(i)
  END DO
END DO
"#,
        );
        let a = Analysis::run(&p);
        let r = var(&p, "r");
        assert!(auto_privatizable_arrays(&p, &a.cfg, &a.dom, &a.induction, kloop).contains(&r));
    }
}
