//! Scalar expansion — the classical alternative to privatization.
//!
//! The paper's related work (Sec. 6) contrasts its approach with scalar
//! expansion [Padua & Wolfe] and the subspace model [Knobe & Dally], which
//! eliminate storage dependences by *adding an expansion dimension indexed
//! by a loop induction variable* instead of creating per-processor private
//! copies. This module implements the transformation so the trade-off can
//! be measured: expansion buys the same parallelism but costs O(trip)
//! extra storage per scalar, and the expanded dimension must itself be
//! mapped (aligned/distributed) — which is exactly the problem the paper's
//! privatization framework avoids.

use hpf_analysis::Analysis;
use hpf_ir::{
    ArrayRef, ArrayShape, Expr, LValue, Program, Stmt, StmtId, Value, VarId, VarInfo, VarKind,
};

/// Expand scalar `var` over loop `l`: every definition and use of the
/// scalar inside `l` becomes an element access `var__x(iv)` indexed by the
/// loop variable. Requires constant loop bounds (the expansion dimension
/// must be declarable). Returns the new array's id.
pub fn expand_scalar(
    p: &mut Program,
    a: &Analysis<'_>,
    l: StmtId,
    var: VarId,
) -> Result<VarId, String> {
    let Stmt::Do { lo, hi, var: iv, .. } = p.stmt(l) else {
        return Err("expansion target is not a DO loop".into());
    };
    let iv = *iv;
    let env = |w: VarId| a.constprop.const_at(&a.cfg, l, w);
    let lo_v = match hpf_analysis::constprop::fold_expr(lo, &env) {
        Some(Value::Int(v)) => v,
        _ => return Err("loop lower bound is not a constant".into()),
    };
    let hi_v = match hpf_analysis::constprop::fold_expr(hi, &env) {
        Some(Value::Int(v)) => v,
        _ => return Err("loop upper bound is not a constant".into()),
    };
    if hi_v < lo_v {
        return Err("empty loop".into());
    }
    let info = p.vars.info(var).clone();
    if matches!(info.kind, VarKind::Array(_)) {
        return Err("expansion target is an array".into());
    }
    let new_name = format!("{}__x", info.name);
    let arr = p
        .vars
        .declare(VarInfo {
            name: new_name.clone(),
            ty: info.ty,
            kind: VarKind::Array(ArrayShape {
                dims: vec![(lo_v, hi_v)],
            }),
        })
        .ok_or_else(|| format!("{} already exists", new_name))?;

    // Rewrite the loop subtree.
    let subtree: Vec<StmtId> = p
        .preorder()
        .into_iter()
        .filter(|&s| s != l && p.is_self_or_ancestor(l, s))
        .collect();
    for s in subtree {
        rewrite_stmt(p, s, var, arr, iv);
    }
    p.rebuild_topology();
    Ok(arr)
}

fn rewrite_stmt(p: &mut Program, s: StmtId, var: VarId, arr: VarId, iv: VarId) {
    let stmt = p.stmt_mut(s);
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            *rhs = rewrite_expr(rhs, var, arr, iv);
            match lhs {
                LValue::Scalar(v) if *v == var => {
                    *lhs = LValue::Array(ArrayRef::new(arr, vec![Expr::scalar(iv)]));
                }
                LValue::Array(r) => {
                    for sub in &mut r.subs {
                        *sub = rewrite_expr(sub, var, arr, iv);
                    }
                }
                _ => {}
            }
        }
        Stmt::Do { lo, hi, step, .. } => {
            *lo = rewrite_expr(lo, var, arr, iv);
            *hi = rewrite_expr(hi, var, arr, iv);
            *step = rewrite_expr(step, var, arr, iv);
        }
        Stmt::If { cond, .. } => {
            *cond = rewrite_expr(cond, var, arr, iv);
        }
        _ => {}
    }
}

fn rewrite_expr(e: &Expr, var: VarId, arr: VarId, iv: VarId) -> Expr {
    match e {
        Expr::Scalar(v) if *v == var => Expr::array(arr, vec![Expr::scalar(iv)]),
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) | Expr::Scalar(_) => e.clone(),
        Expr::Array(r) => Expr::Array(ArrayRef {
            array: r.array,
            subs: r.subs.iter().map(|s| rewrite_expr(s, var, arr, iv)).collect(),
        }),
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(rewrite_expr(x, var, arr, iv))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rewrite_expr(a, var, arr, iv)),
            Box::new(rewrite_expr(b, var, arr, iv)),
        ),
        Expr::Intrinsic(i, args) => Expr::Intrinsic(
            *i,
            args.iter().map(|x| rewrite_expr(x, var, arr, iv)).collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::interp::run_program;
    use hpf_ir::parse_program;

    const SRC: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16), C(16)
INTEGER i
REAL x
DO i = 1, 16
  x = B(i) + C(i)
  A(i) = x * 0.5
END DO
"#;

    #[test]
    fn expansion_preserves_semantics() {
        let p1 = parse_program(SRC).unwrap();
        let mut p2 = parse_program(SRC).unwrap();
        {
            let a = Analysis::run(&p2);
            let l = p2
                .preorder()
                .into_iter()
                .find(|&s| p2.stmt(s).is_loop())
                .unwrap();
            let x = p2.vars.lookup("x").unwrap();
            // Analysis borrows p2 immutably; clone the pieces we need.
            let arr = expand_scalar_cloned(&p2, &a, l, x);
            p2 = arr.unwrap();
        }
        assert!(p2.vars.lookup("x__x").is_some());
        // No remaining scalar reads of x inside the program body.
        let x = p2.vars.lookup("x").unwrap();
        assert!(hpf_ir::visit::uses_of_scalar(&p2, x).is_empty());

        let data: Vec<f64> = (0..16).map(|k| 1.0 + k as f64 * 0.5).collect();
        let run = |p: &Program| {
            let b = p.vars.lookup("b").unwrap();
            let c = p.vars.lookup("c").unwrap();
            let (mem, _) = run_program(p, |m| {
                m.fill_real(b, &data);
                m.fill_real(c, &data);
            })
            .unwrap();
            mem.real_slice(p.vars.lookup("a").unwrap()).to_vec()
        };
        assert_eq!(run(&p1), run(&p2));
    }

    // Helper: run expansion on a clone to dodge the borrow of Analysis.
    fn expand_scalar_cloned(
        p: &Program,
        a: &Analysis<'_>,
        l: StmtId,
        var: VarId,
    ) -> Result<Program, String> {
        let mut p2 = p.clone();
        expand_scalar(&mut p2, a, l, var)?;
        Ok(p2)
    }

    #[test]
    fn expanded_program_maps_cleanly() {
        let p = parse_program(SRC).unwrap();
        let a = Analysis::run(&p);
        let l = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop())
            .unwrap();
        let x = p.vars.lookup("x").unwrap();
        let p2 = expand_scalar_cloned(&p, &a, l, x).unwrap();

        // The expanded program still maps (x__x is replicated by default —
        // the expansion dimension would itself need alignment to avoid
        // replicated storage, which is exactly the paper's critique of
        // expansion-style approaches). SPMD-level validation lives in
        // tests/scalar_expansion.rs.
        let a2 = Analysis::run(&p2);
        let maps = hpf_dist::MappingTable::from_program(&p2, None).unwrap();
        let _d = crate::map_program(&p2, &a2, &maps, crate::CoreConfig::full());
        let xx = p2.vars.lookup("x__x").unwrap();
        assert!(maps.of(xx).is_fully_replicated());
    }

    #[test]
    fn non_constant_bounds_rejected() {
        let src = r#"
REAL B(16)
INTEGER i, n
REAL x
n = 16
DO i = 1, 16
  DO i = 1, 16
  END DO
END DO
"#;
        // A loop whose bound is a variable that const-prop CAN resolve is
        // fine; make one it cannot resolve (read from an array).
        let src2 = r#"
REAL B(16)
INTEGER NARR(2)
INTEGER i
REAL x
DO i = 1, NARR(1)
  x = B(i)
  B(i) = x
END DO
"#;
        let _ = src;
        let p = parse_program(src2).unwrap();
        let a = Analysis::run(&p);
        let l = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop())
            .unwrap();
        let x = p.vars.lookup("x").unwrap();
        let mut p2 = p.clone();
        assert!(expand_scalar(&mut p2, &a, l, x).is_err());
    }

    #[test]
    fn array_target_rejected() {
        let p = parse_program(SRC).unwrap();
        let a = Analysis::run(&p);
        let l = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop())
            .unwrap();
        let arr = p.vars.lookup("a").unwrap();
        let mut p2 = p.clone();
        assert!(expand_scalar(&mut p2, &a, l, arr).is_err());
    }
}
