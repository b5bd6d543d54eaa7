//! Data-dependence tests on affine array subscripts.
//!
//! Used for (a) legality of message vectorization — communication for a
//! read reference may be hoisted out of a loop only if no write inside the
//! loop can produce the value read — and (b) the paper's Section 3.1
//! inference: an assignment whose subscripts are invariant in a parallel
//! loop (or affine in inner indices only) creates *memory-based*
//! loop-carried dependences that privatization must remove.

use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::induction::InductionAnalysis;
use hpf_ir::{Affine, ArrayRef, LValue, Program, Stmt, StmtId, VarId};

/// Outcome of a dependence test between two references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepTest {
    /// Provably no dependence.
    Independent,
    /// Dependence possible (or subscripts not analyzable).
    MayDepend,
}

/// Per-dimension GCD/ZIV test: can `a(I) == b(I')` for some integer
/// assignments to the index variables (treated as unconstrained integers,
/// hence conservative)?
pub fn dim_may_equal(a: &Affine, b: &Affine) -> bool {
    // a - b = 0  <=>  sum(ci * vi) = b.c0 - a.c0 where the vi of the two
    // references are *independent* instances.
    let diff = b.c0 - a.c0;
    let coeffs: Vec<i64> = a
        .terms
        .values()
        .copied()
        .chain(b.terms.values().map(|&c| -c))
        .collect();
    if coeffs.is_empty() {
        return diff == 0; // ZIV
    }
    let g = coeffs.iter().fold(0i64, |acc, &c| gcd(acc, c.abs()));
    if g == 0 {
        return diff == 0;
    }
    diff % g == 0
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Test whether a write reference may touch the same element as a read
/// reference of the same array. Subscripts are resolved through the
/// induction-variable closed forms; a non-affine subscript pair is
/// conservatively dependent. Two tests are applied per dimension: the GCD
/// test on unconstrained integers, and a Banerjee-style bounds test that
/// substitutes loop bounds to prove the subscript ranges disjoint (needed
/// for triangular loops like DGEFA's, where writes touch columns `k+1..n`
/// while the read touches column `k`).
/// `within` is the loop whose iterations may differ between the two
/// references: loop indices of `within` and anything nested inside it are
/// expanded to their bound ranges, while indices of loops *outside*
/// `within` stay symbolic (both references see the same value).
#[allow(clippy::too_many_arguments)]
pub fn refs_may_conflict(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    within: StmtId,
    write_stmt: StmtId,
    write: &ArrayRef,
    read_stmt: StmtId,
    read: &ArrayRef,
) -> DepTest {
    debug_assert_eq!(write.array, read.array);
    for (ws, rs) in write.subs.iter().zip(&read.subs) {
        let wa = ia.affine_view(p, cfg, dom, write_stmt, ws);
        let ra = ia.affine_view(p, cfg, dom, read_stmt, rs);
        match (wa, ra) {
            (Some(wa), Some(ra)) => {
                if !dim_may_equal(&wa, &ra) {
                    return DepTest::Independent;
                }
                if ranges_disjoint(p, ia, cfg, dom, within, write_stmt, &wa, read_stmt, &ra) {
                    return DepTest::Independent;
                }
            }
            _ => return DepTest::MayDepend,
        }
    }
    DepTest::MayDepend
}

/// Interval of an affine subscript over the iteration space of its
/// statement's enclosing loops: substitute each loop index by its lower or
/// upper bound depending on the sign of its coefficient, innermost first
/// (inner bounds may reference outer indices). Returns `(min, max)` as
/// affine forms over the remaining symbols.
pub fn affine_range(
    p: &Program,
    ia: &InductionAnalysis,
    cfg: &Cfg,
    dom: &Dominators,
    within: StmtId,
    stmt: StmtId,
    aff: &Affine,
) -> (Affine, Affine) {
    let mut lo = aff.clone();
    let mut hi = aff.clone();
    let loops: Vec<StmtId> = p
        .enclosing_loops(stmt)
        .into_iter()
        .filter(|&l| p.is_self_or_ancestor(within, l))
        .collect();
    for &l in loops.iter().rev() {
        let var = p.loop_var(l).unwrap();
        let Stmt::Do {
            lo: lb, hi: ub, ..
        } = p.stmt(l)
        else {
            continue;
        };
        let (Some(lb), Some(ub)) = (
            ia.affine_view(p, cfg, dom, l, lb),
            ia.affine_view(p, cfg, dom, l, ub),
        ) else {
            // Unknown bounds: leave the variable in place (the comparison
            // below will fail to prove disjointness, which is safe).
            continue;
        };
        let c_lo = lo.coeff(var);
        if c_lo != 0 {
            lo = lo.substitute(var, if c_lo > 0 { &lb } else { &ub });
        }
        let c_hi = hi.coeff(var);
        if c_hi != 0 {
            hi = hi.substitute(var, if c_hi > 0 { &ub } else { &lb });
        }
    }
    (lo, hi)
}

/// Can the two subscript ranges be proven disjoint via interval
/// separation? (`write_min > read_max` or `read_min > write_max`, where
/// the difference must reduce to a positive constant.)
#[allow(clippy::too_many_arguments)]
fn ranges_disjoint(
    p: &Program,
    ia: &InductionAnalysis,
    cfg: &Cfg,
    dom: &Dominators,
    within: StmtId,
    write_stmt: StmtId,
    wa: &Affine,
    read_stmt: StmtId,
    ra: &Affine,
) -> bool {
    let (w_min, w_max) = affine_range(p, ia, cfg, dom, within, write_stmt, wa);
    let (r_min, r_max) = affine_range(p, ia, cfg, dom, within, read_stmt, ra);
    // The differences may still carry *shared* loop indices (loops
    // enclosing `within`, seen identically by both references, and bound
    // ranges that reference them). Minimize the difference over those
    // shared ranges: if the minimum is still positive, the ranges are
    // provably separated (e.g. DGEFA: writes at columns j >= k+1 never
    // touch the read at column k because min(j) - k = 1 > 0).
    let sep = |a: Affine| {
        let m = minimize_over_loops(p, ia, cfg, dom, write_stmt, read_stmt, a);
        matches!(m.as_const(), Some(c) if c > 0)
    };
    sep(w_min.sub(&r_max)) || sep(r_min.sub(&w_max))
}

/// Substitute every loop index of either statement's enclosing loops so as
/// to minimize the affine form; returns the minimized form (constant when
/// all symbols resolve).
fn minimize_over_loops(
    p: &Program,
    ia: &InductionAnalysis,
    cfg: &Cfg,
    dom: &Dominators,
    a_stmt: StmtId,
    b_stmt: StmtId,
    mut a: Affine,
) -> Affine {
    // Innermost-first over the union of enclosing loop chains.
    let mut loops: Vec<StmtId> = p.enclosing_loops(a_stmt);
    for l in p.enclosing_loops(b_stmt) {
        if !loops.contains(&l) {
            loops.push(l);
        }
    }
    // Repeat until fixpoint (bounds may introduce outer indices).
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

/// All statements inside loop `l` (strictly below it) that write to `array`.
pub fn writes_to_array_in_loop(p: &Program, l: StmtId, array: VarId) -> Vec<StmtId> {
    p.preorder()
        .into_iter()
        .filter(|&s| {
            s != l
                && p.is_self_or_ancestor(l, s)
                && matches!(
                    p.stmt(s),
                    Stmt::Assign {
                        lhs: LValue::Array(r),
                        ..
                    } if r.array == array
                )
        })
        .collect()
}

/// Is a flow dependence possible from any write of `read.array` inside
/// loop `l` to the given read reference? If so, communication for the read
/// cannot be vectorized out of `l`.
pub fn flow_dep_in_loop(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    l: StmtId,
    read_stmt: StmtId,
    read: &ArrayRef,
) -> bool {
    for w in writes_to_array_in_loop(p, l, read.array) {
        let Stmt::Assign {
            lhs: LValue::Array(wr),
            ..
        } = p.stmt(w)
        else {
            continue;
        };
        if refs_may_conflict(p, cfg, dom, ia, l, w, wr, read_stmt, read) == DepTest::MayDepend {
            return true;
        }
    }
    false
}

/// Section 3.1: arrays whose writes inside parallel loop `l` have every
/// subscript either invariant w.r.t. `l` or affine in strictly inner loop
/// indices — such writes repeat the same locations every iteration of `l`
/// and force memory-based loop-carried dependences removable only by
/// privatizing the array.
pub fn arrays_with_memory_carried_writes(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    l: StmtId,
) -> Vec<VarId> {
    let lv = p.loop_var(l).expect("l must be a DO loop");
    let mut out: Vec<VarId> = Vec::new();
    for s in p.preorder() {
        if s == l || !p.is_self_or_ancestor(l, s) {
            continue;
        }
        let Stmt::Assign {
            lhs: LValue::Array(r),
            ..
        } = p.stmt(s)
        else {
            continue;
        };
        let all_invariant_of_l = r.subs.iter().all(|sub| {
            match ia.affine_view(p, cfg, dom, s, sub) {
                Some(a) => !a.depends_on(lv),
                None => false,
            }
        });
        if all_invariant_of_l && !out.contains(&r.array) {
            out.push(r.array);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constprop::ConstProp;
    use crate::{parsed, var};
    use crate::reach::ReachingDefs;
    use hpf_ir::Expr;

    fn full(p: &Program) -> (Cfg, Dominators, InductionAnalysis) {
        let cfg = Cfg::build(p);
        let dom = Dominators::compute(&cfg);
        let rd = ReachingDefs::compute(p, &cfg);
        let cp = ConstProp::compute(p, &cfg);
        let ia = InductionAnalysis::compute(p, &cfg, &rd, &cp);
        (cfg, dom, ia)
    }

    #[test]
    fn gcd_test_dimensions() {
        use hpf_ir::VarId;
        let i = VarId(0);
        // 2i vs 2i+1: never equal.
        let a = Affine::var(i).scale(2);
        let b = Affine::var(i).scale(2).add(&Affine::constant(1));
        assert!(!dim_may_equal(&a, &b));
        // i vs i+1: equal for I' = I - 1.
        let c = Affine::var(i).add(&Affine::constant(1));
        assert!(dim_may_equal(&a.scale(0).add(&Affine::var(i)), &c));
        // Constants.
        assert!(dim_may_equal(&Affine::constant(3), &Affine::constant(3)));
        assert!(!dim_may_equal(&Affine::constant(3), &Affine::constant(4)));
    }

    #[test]
    fn vectorization_blocked_by_write() {
        // A written in loop, read A(i) may see the write: comm for A(i)
        // cannot be hoisted.
        let (p, s) = parsed(
            "REAL A(16)
INTEGER i
REAL x
DO i = 1, 15
  A(i+1) = 1.0
  x = A(i)
END DO",
        );
        let [a, i] = ["a", "i"].map(|n| var(&p, n));
        let (lp, rd_stmt) = (s[0], s[2]);
        let (cfg, dom, ia) = full(&p);
        let read = ArrayRef::new(a, vec![Expr::scalar(i)]);
        assert!(flow_dep_in_loop(&p, &cfg, &dom, &ia, lp, rd_stmt, &read));
    }

    #[test]
    fn vectorization_allowed_without_write() {
        // B never written: B(i) hoistable.
        let (p, s) = parsed(
            "REAL A(16), B(16)
INTEGER i
REAL x
DO i = 1, 16
  x = B(i)
  A(i) = x
END DO",
        );
        let [bb, i] = ["b", "i"].map(|n| var(&p, n));
        let (lp, rd_stmt) = (s[0], s[1]);
        let (cfg, dom, ia) = full(&p);
        let read = ArrayRef::new(bb, vec![Expr::scalar(i)]);
        assert!(!flow_dep_in_loop(&p, &cfg, &dom, &ia, lp, rd_stmt, &read));
    }

    #[test]
    fn disjoint_strides_independent() {
        // A(2i) = ...; x = A(2i+1) — provably independent.
        let (p, s) = parsed(
            "REAL A(40)
INTEGER i
REAL x
DO i = 1, 15
  A(2*i) = 1.0
  x = A(2*i+1)
END DO",
        );
        let [a, i] = ["a", "i"].map(|n| var(&p, n));
        let (lp, rd_stmt) = (s[0], s[2]);
        let (cfg, dom, ia) = full(&p);
        let read = ArrayRef::new(
            a,
            vec![Expr::int(2).mul(Expr::scalar(i)).add(Expr::int(1))],
        );
        assert!(!flow_dep_in_loop(&p, &cfg, &dom, &ia, lp, rd_stmt, &read));
    }

    #[test]
    fn triangular_ranges_disjoint_dgefa() {
        // The write range [k+1, n] never touches the read at k: the read
        // hoists out of the j loop (and the k-loop write blocks hoisting
        // only above k).
        let (p, s) = parsed(
            "REAL A(16)
INTEGER k, j
REAL x
DO k = 1, 15
  x = A(k)
  DO j = k+1, 16
    A(j) = x
  END DO
END DO",
        );
        let [a, k] = ["a", "k"].map(|n| var(&p, n));
        let [kloop, rd_stmt, jloop, _] = s[..] else {
            panic!("four statements");
        };
        let (cfg, dom, ia) = full(&p);
        let read = ArrayRef::new(a, vec![Expr::scalar(k)]);
        // No flow dep from the j-loop writes into the read of A(k)...
        assert!(!flow_dep_in_loop(&p, &cfg, &dom, &ia, jloop, rd_stmt, &read));
        // ...but across k iterations the write range does reach A(k).
        assert!(flow_dep_in_loop(&p, &cfg, &dom, &ia, kloop, rd_stmt, &read));
    }

    #[test]
    fn memory_carried_writes_found() {
        // The APPSP pattern: C's subscripts don't involve k: memory-carried
        // in the k loop.
        let (p, s) = parsed(
            "REAL C(8,8)
INTEGER k, i
DO k = 1, 8
  DO i = 1, 8
    C(i,1) = 0.0
  END DO
END DO",
        );
        let c = var(&p, "c");
        let (lp, iloop) = (s[0], s[1]);
        let (cfg, dom, ia) = full(&p);
        assert_eq!(
            arrays_with_memory_carried_writes(&p, &cfg, &dom, &ia, lp),
            vec![c]
        );
        // But not in the i loop itself (subscript varies with i).
        assert!(arrays_with_memory_carried_writes(&p, &cfg, &dom, &ia, iloop).is_empty());
    }
}
