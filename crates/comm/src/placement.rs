//! Loop-level placement of communication: message vectorization, and the
//! paper's `SubscriptAlignLevel` / `AlignLevel` machinery (Figure 4).
//!
//! Levels are the paper's: the outermost loop is level 1; "level 0" means
//! outside all loops. Communication *placed at level k* executes once per
//! iteration of the level-`k` loop (once overall for `k = 0`), aggregating
//! the messages of all deeper loops into one — that is message
//! vectorization, and the cost model rewards it with one startup instead
//! of many.

use hpf_analysis::{depend, Cfg, ConstProp, Dominators, InductionAnalysis};
use hpf_dist::{ArrayMapping, GridDimRule};
use hpf_ir::{Expr, Program, Stmt, StmtId, VarId};

/// The innermost loop nesting level (1-based) in which `var`'s value may
/// change, seen from statement `at`; 0 when invariant across all enclosing
/// loops. A loop's own index changes at that loop's level; any other scalar
/// changes at the level of the innermost enclosing loop that contains a
/// definition of it.
pub fn var_change_level(p: &Program, at: StmtId, var: VarId) -> usize {
    let loops = p.enclosing_loops(at);
    for (d, &l) in loops.iter().enumerate().rev() {
        if p.loop_var(l) == Some(var) {
            return d + 1;
        }
        let defined_inside = p.preorder().into_iter().any(|s| {
            s != l && p.is_self_or_ancestor(l, s) && p.stmt(s).written_var() == Some(var)
        });
        if defined_inside {
            return d + 1;
        }
    }
    0
}

/// The paper's `SubscriptAlignLevel(s)`: the nesting level of the outermost
/// loop throughout which the value of subscript `s` is well defined.
/// `VarLevel(s)` when `s` is an affine function of loop indices,
/// `VarLevel(s) + 1` otherwise.
pub fn subscript_align_level(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    at: StmtId,
    sub: &Expr,
) -> usize {
    let loops = p.enclosing_loops(at);
    let level_of_loop = |l: StmtId| loops.iter().position(|&x| x == l).map(|d| d + 1);
    if let Some(aff) = ia.affine_view(p, cfg, dom, at, sub) {
        let mut lvl = 0;
        let mut affine_in_indices = true;
        for v in aff.vars() {
            // Is v the index of an enclosing loop?
            let as_index = loops
                .iter()
                .find(|&&l| p.loop_var(l) == Some(v))
                .and_then(|&l| level_of_loop(l));
            match as_index {
                Some(d) => lvl = lvl.max(d),
                None => {
                    let d = var_change_level(p, at, v);
                    if d == 0 {
                        // invariant symbol: contributes nothing
                    } else {
                        affine_in_indices = false;
                        lvl = lvl.max(d);
                    }
                }
            }
        }
        if affine_in_indices {
            return lvl;
        }
        return lvl + 1;
    }
    // Not affine: VarLevel over every scalar read in the subscript.
    let mut reads = Vec::new();
    collect_reads(sub, &mut reads);
    let var_lvl = reads
        .into_iter()
        .map(|v| var_change_level(p, at, v))
        .max()
        .unwrap_or(0);
    var_lvl + 1
}

/// The placement barrier of one subscript: how far communication for the
/// containing reference may be hoisted. A subscript that is an affine
/// function of loop indices poses NO barrier (its values over the whole
/// iteration space are statically known — hoisting across those loops is
/// exactly message vectorization); a subscript whose value is *computed*
/// inside some loop pins the communication inside that loop
/// (`SubscriptAlignLevel`).
pub fn subscript_placement_barrier(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    at: StmtId,
    sub: &Expr,
) -> usize {
    let loops = p.enclosing_loops(at);
    if let Some(aff) = ia.affine_view(p, cfg, dom, at, sub) {
        let affine_in_indices = aff.vars().all(|v| {
            loops.iter().any(|&l| p.loop_var(l) == Some(v))
                || var_change_level(p, at, v) == 0
        });
        if affine_in_indices {
            return 0;
        }
    }
    subscript_align_level(p, cfg, dom, ia, at, sub)
}

/// Barrier for a whole reference: maximum subscript barrier over the
/// partitioned dimensions.
fn placement_barrier(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    mapping: &ArrayMapping,
    at: StmtId,
    r: &hpf_ir::ArrayRef,
) -> usize {
    let mut b = 0;
    for rule in &mapping.rules {
        if let GridDimRule::ByDim { array_dim, .. } = rule {
            if let Some(sub) = r.subs.get(*array_dim) {
                b = b.max(subscript_placement_barrier(p, cfg, dom, ia, at, sub));
            }
        }
    }
    b
}

fn collect_reads(e: &Expr, out: &mut Vec<VarId>) {
    e.walk(&mut |x| {
        if let Expr::Scalar(v) = x {
            out.push(*v);
        }
    });
}

/// The paper's `AlignLevel(r)`: maximum `SubscriptAlignLevel` over the
/// subscripts appearing in *partitioned* dimensions of `r` under `mapping`.
/// `dims_filter`, when given, restricts which grid dimensions count
/// (partial privatization considers only the dimensions being privatized —
/// Sec. 3.2).
#[allow(clippy::too_many_arguments)]
pub fn align_level(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    mapping: &ArrayMapping,
    at: StmtId,
    r: &hpf_ir::ArrayRef,
    dims_filter: Option<&[usize]>,
) -> usize {
    let mut lvl = 0;
    for (g, rule) in mapping.rules.iter().enumerate() {
        if let Some(filter) = dims_filter {
            if !filter.contains(&g) {
                continue;
            }
        }
        if let GridDimRule::ByDim { array_dim, .. } = rule {
            if let Some(sub) = r.subs.get(*array_dim) {
                lvl = lvl.max(subscript_align_level(p, cfg, dom, ia, at, sub));
            }
        }
    }
    lvl
}

/// Placement of communication for one read reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Loop level the communication is placed at (0 = outside all loops).
    pub level: usize,
    /// Nesting level of the referencing statement.
    pub stmt_level: usize,
}

impl Placement {
    /// True when the message still sits in the innermost loop around the
    /// statement (the expensive case the paper's algorithm avoids).
    pub fn is_inner_loop(&self) -> bool {
        self.level == self.stmt_level && self.stmt_level > 0
    }
}

/// Compute the outermost legal placement for communication satisfying a
/// read of `r` at `stmt`. Hoisting above the loop at level `d` requires
/// (a) the subscripts to be well defined throughout that loop
/// (`d >= AlignLevel(r)`), and (b) no flow dependence from writes to the
/// same array inside that loop.
#[allow(clippy::too_many_arguments)]
pub fn place_comm(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    mapping: &ArrayMapping,
    stmt: StmtId,
    r: &hpf_ir::ArrayRef,
) -> Placement {
    let loops = p.enclosing_loops(stmt);
    let stmt_level = loops.len();
    let barrier = placement_barrier(p, cfg, dom, ia, mapping, stmt, r);
    let mut level = stmt_level;
    for d in (1..=stmt_level).rev() {
        if d < barrier {
            break;
        }
        let l = loops[d - 1];
        if depend::flow_dep_in_loop(p, cfg, dom, ia, l, stmt, r) {
            break;
        }
        level = d - 1;
    }
    Placement { level, stmt_level }
}

/// Human-readable tag of a placement, used by trace events: where a
/// message executes relative to the statement it feeds.
pub fn placement_tag(level: usize, stmt_level: usize) -> String {
    if stmt_level == 0 {
        "straight-line".to_string()
    } else if level >= stmt_level {
        "inner-loop".to_string()
    } else {
        format!("hoisted L{}->L{}", stmt_level, level)
    }
}

/// Constant trip count of a loop, when its bounds fold to constants at the
/// loop header.
pub fn trip_count(p: &Program, cfg: &Cfg, cp: &ConstProp, l: StmtId) -> Option<i64> {
    let Stmt::Do { lo, hi, step, .. } = p.stmt(l) else {
        return None;
    };
    let env = |v: VarId| cp.const_at(cfg, l, v);
    let lo = match hpf_analysis::constprop::fold_expr(lo, &env)? {
        hpf_ir::Value::Int(v) => v,
        _ => return None,
    };
    let hi = match hpf_analysis::constprop::fold_expr(hi, &env)? {
        hpf_ir::Value::Int(v) => v,
        _ => return None,
    };
    let st = match hpf_analysis::constprop::fold_expr(step, &env)? {
        hpf_ir::Value::Int(v) => v,
        _ => return None,
    };
    if st == 0 {
        return None;
    }
    let n = (hi - lo) / st + 1;
    Some(n.max(0))
}

/// Message aggregation factor of a placement: the product of the trip
/// counts of the loops the communication was hoisted across (how many
/// element-messages were merged into one vectorized message).
pub fn vectorization_factor(
    p: &Program,
    cfg: &Cfg,
    cp: &ConstProp,
    stmt: StmtId,
    placement: Placement,
) -> Option<i64> {
    let loops = p.enclosing_loops(stmt);
    let mut f = 1i64;
    for &l in &loops[placement.level..placement.stmt_level] {
        f *= trip_count(p, cfg, cp, l)?;
    }
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::{parse_program, ArrayRef, LValue};

    fn rhs_ref(p: &Program, s: StmtId, name: &str) -> ArrayRef {
        let v = p.vars.lookup(&name.to_ascii_lowercase()).unwrap();
        match p.stmt(s) {
            Stmt::Assign { rhs, .. } => rhs
                .array_refs()
                .into_iter()
                .find(|r| r.array == v)
                .unwrap()
                .clone(),
            _ => panic!(),
        }
    }

    fn nth_assign(p: &Program, n: usize) -> StmtId {
        p.preorder()
            .into_iter()
            .filter(|&s| p.stmt(s).is_assign())
            .nth(n)
            .unwrap()
    }

    /// Figure 4 of the paper: AlignLevel(A(i,j,k)) = 2, AlignLevel(B(s,j,k)) = 3.
    #[test]
    fn figure4_align_levels() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (BLOCK, BLOCK, *) :: A, B
REAL A(8,8,8), B(8,8,8), W(8)
INTEGER i, j, k, s
DO i = 1, 8
  DO j = 1, 8
    s = W(j)
    DO k = 1, 8
      A(i,j,k) = 1.0
      B(s,j,k) = 1.0
    END DO
  END DO
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        // statements: s=W(j) [0], A(i,j,k)=1 [1], B(s,j,k)=1 [2]
        let sa = nth_assign(&p, 1);
        let sb = nth_assign(&p, 2);
        let ra = match p.stmt(sa) {
            Stmt::Assign {
                lhs: LValue::Array(r),
                ..
            } => r.clone(),
            _ => panic!(),
        };
        let rb = match p.stmt(sb) {
            Stmt::Assign {
                lhs: LValue::Array(r),
                ..
            } => r.clone(),
            _ => panic!(),
        };
        let av = p.vars.lookup("a").unwrap();
        let bv = p.vars.lookup("b").unwrap();
        let la = align_level(&p, &a.cfg, &a.dom, &a.induction, maps.of(av), sa, &ra, None);
        let lb = align_level(&p, &a.cfg, &a.dom, &a.induction, maps.of(bv), sb, &rb, None);
        assert_eq!(la, 2);
        assert_eq!(lb, 3);
    }

    #[test]
    fn partial_privatization_filter_lowers_align_level() {
        // Figure 6: with only the second grid dimension considered, the
        // AlignLevel of RSD(1,i,j,k) is 1 (k loop) instead of 2 (j loop).
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, *, BLOCK, BLOCK) :: RSD
REAL RSD(5,8,8,8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 3, 7
    DO i = 2, 7
      RSD(1,i,j,k) = 1.0
    END DO
  END DO
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let s = nth_assign(&p, 0);
        let r = match p.stmt(s) {
            Stmt::Assign {
                lhs: LValue::Array(r),
                ..
            } => r.clone(),
            _ => panic!(),
        };
        let rsd = p.vars.lookup("rsd").unwrap();
        let full = align_level(&p, &a.cfg, &a.dom, &a.induction, maps.of(rsd), s, &r, None);
        // grid dim 0 carries j (level 2), grid dim 1 carries k (level 1).
        assert_eq!(full, 2);
        let only_k = align_level(
            &p,
            &a.cfg,
            &a.dom,
            &a.induction,
            maps.of(rsd),
            s,
            &r,
            Some(&[1]),
        );
        assert_eq!(only_k, 1);
    }

    #[test]
    fn hoistable_read_fully_vectorized() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16)
INTEGER i
DO i = 1, 16
  A(i) = B(i)
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let s = nth_assign(&p, 0);
        let r = rhs_ref(&p, s, "B");
        let b = p.vars.lookup("b").unwrap();
        let pl = place_comm(&p, &a.cfg, &a.dom, &a.induction, maps.of(b), s, &r);
        assert_eq!(pl.level, 0);
        assert_eq!(pl.stmt_level, 1);
        assert!(!pl.is_inner_loop());
        let f = vectorization_factor(&p, &a.cfg, &a.constprop, s, pl);
        assert_eq!(f, Some(16));
    }

    #[test]
    fn flow_dep_blocks_hoisting() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER i
DO i = 2, 16
  A(i) = A(i-1)
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let s = nth_assign(&p, 0);
        let r = rhs_ref(&p, s, "A");
        let av = p.vars.lookup("a").unwrap();
        let pl = place_comm(&p, &a.cfg, &a.dom, &a.induction, maps.of(av), s, &r);
        assert!(pl.is_inner_loop());
    }

    #[test]
    fn subscript_defined_in_loop_blocks_hoisting() {
        // x = W(i); A(i) = B(x): B's subscript is defined inside the loop,
        // so comm for B(x) cannot leave it.
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
REAL A(16), B(16), W(16)
INTEGER i, x
DO i = 1, 16
  x = W(i)
  A(i) = B(x)
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let s = nth_assign(&p, 1);
        let r = rhs_ref(&p, s, "B");
        let b = p.vars.lookup("b").unwrap();
        let pl = place_comm(&p, &a.cfg, &a.dom, &a.induction, maps.of(b), s, &r);
        assert!(pl.is_inner_loop());
        // And the align level says the same: valid only at level >= 2.
        let al = align_level(&p, &a.cfg, &a.dom, &a.induction, maps.of(b), s, &r, None);
        assert_eq!(al, 2);
    }

    #[test]
    fn var_change_levels() {
        let src = r#"
REAL W(8)
INTEGER i, j, s, c
c = 1
DO i = 1, 8
  DO j = 1, 8
    s = j + c
    W(j) = s
  END DO
END DO
"#;
        let p = parse_program(src).unwrap();
        let s_assign = nth_assign(&p, 2); // W(j) = s
        let i = p.vars.lookup("i").unwrap();
        let j = p.vars.lookup("j").unwrap();
        let s = p.vars.lookup("s").unwrap();
        let c = p.vars.lookup("c").unwrap();
        assert_eq!(var_change_level(&p, s_assign, i), 1);
        assert_eq!(var_change_level(&p, s_assign, j), 2);
        assert_eq!(var_change_level(&p, s_assign, s), 2);
        assert_eq!(var_change_level(&p, s_assign, c), 0);
    }
}
