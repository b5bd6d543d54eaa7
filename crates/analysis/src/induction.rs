//! Induction-variable recognition and closed forms.
//!
//! An induction variable of loop `L` is a scalar updated exactly once per
//! iteration as `m = m ± c` (unconditionally — not nested inside an `IF` or
//! an inner loop), whose value at loop entry is known. The paper privatizes
//! such variables *without alignment* and replaces the right-hand side of
//! their update by the closed-form expression in terms of the loop index
//! (Figure 1: `m = m + 1` inside `do i = 2, n-1` becomes `i + 1` when
//! `m = 2` on entry).
//!
//! [`InductionAnalysis::affine_view`] is the main consumer-facing API: it
//! extends [`Affine::from_expr`] by substituting closed forms for induction
//! variables, so that subscripts like `D(m)` become affine (`i + 1`) for
//! ownership and alignment analysis.

use crate::cfg::Cfg;
use crate::constprop::ConstProp;
use crate::dom::Dominators;
use crate::reach::ReachingDefs;
use hpf_ir::{Affine, BinOp, Expr, LValue, Program, Stmt, StmtId, Value, VarId};
use std::collections::HashMap;

/// One recognized induction variable.
#[derive(Debug, Clone, PartialEq)]
pub struct InductionVar {
    pub var: VarId,
    /// The loop whose iterations drive the variable.
    pub loop_id: StmtId,
    /// The update statement `var = var ± c`.
    pub def: StmtId,
    /// Per-iteration increment (signed).
    pub step: i64,
    /// Value on loop entry.
    pub init: i64,
    /// Value as an affine function of the loop index *after* the update has
    /// executed in the current iteration.
    pub after: Affine,
    /// Value *before* the update in the current iteration.
    pub before: Affine,
}

/// All induction variables of a program.
#[derive(Debug, Clone, Default)]
pub struct InductionAnalysis {
    /// Keyed by update statement.
    pub by_def: HashMap<StmtId, InductionVar>,
    /// Keyed by (loop, var).
    pub by_loop_var: HashMap<(StmtId, VarId), StmtId>,
}

impl InductionAnalysis {
    pub fn compute(
        p: &Program,
        cfg: &Cfg,
        rd: &ReachingDefs,
        cp: &ConstProp,
    ) -> InductionAnalysis {
        let mut out = InductionAnalysis::default();
        for l in p.preorder() {
            let Stmt::Do { lo, step, body, .. } = p.stmt(l) else {
                continue;
            };
            // Require unit loop step and affine lower bound for the closed
            // form.
            if step.as_int() != Some(1) {
                continue;
            }
            let Some(lo_aff) = Affine::from_expr(lo) else {
                continue;
            };
            let loop_var = p.loop_var(l).unwrap();
            // Candidate updates: direct children of the loop body.
            for &s in body {
                let Stmt::Assign {
                    lhs: LValue::Scalar(v),
                    rhs,
                } = p.stmt(s)
                else {
                    continue;
                };
                let Some(c) = Self::match_update(rhs, *v) else {
                    continue;
                };
                // Must be the only def of v anywhere inside the loop.
                let defs_in_loop: Vec<StmtId> = p
                    .preorder()
                    .into_iter()
                    .filter(|&d| {
                        p.is_self_or_ancestor(l, d)
                            && d != l
                            && p.stmt(d).written_var() == Some(*v)
                    })
                    .collect();
                if defs_in_loop != vec![s] {
                    continue;
                }
                // Entry value must be a known integer constant.
                let Some(Value::Int(v0)) = cp.const_at_loop_entry(p, cfg, l, *v) else {
                    continue;
                };
                // after(i) = v0 + c * (i - lo + 1)
                let i_aff = Affine::var(loop_var);
                let after = i_aff
                    .sub(&lo_aff)
                    .add(&Affine::constant(1))
                    .scale(c)
                    .add(&Affine::constant(v0));
                let before = after.sub(&Affine::constant(c));
                let iv = InductionVar {
                    var: *v,
                    loop_id: l,
                    def: s,
                    step: c,
                    init: v0,
                    after,
                    before,
                };
                out.by_loop_var.insert((l, *v), s);
                out.by_def.insert(s, iv);
            }
        }
        let _ = rd; // reaching defs reserved for future generalized IVs
        out
    }

    /// Match `rhs` as `var + c`, `c + var` or `var - c`.
    fn match_update(rhs: &Expr, var: VarId) -> Option<i64> {
        match rhs {
            Expr::Binary(BinOp::Add, a, b) => match (&**a, &**b) {
                (Expr::Scalar(v), e) if *v == var => affine_const(e),
                (e, Expr::Scalar(v)) if *v == var => affine_const(e),
                _ => None,
            },
            Expr::Binary(BinOp::Sub, a, b) => match (&**a, &**b) {
                (Expr::Scalar(v), e) if *v == var => affine_const(e).map(|c| -c),
                _ => None,
            },
            _ => None,
        }
    }

    /// Is `def` a recognized induction update?
    pub fn is_induction_def(&self, def: StmtId) -> bool {
        self.by_def.contains_key(&def)
    }

    /// The induction variable record for `var` in `l`, if recognized.
    pub fn of(&self, l: StmtId, var: VarId) -> Option<&InductionVar> {
        self.by_loop_var
            .get(&(l, var))
            .and_then(|d| self.by_def.get(d))
    }

    /// Affine view of an expression at a statement: like
    /// [`Affine::from_expr`], but scalar reads of induction variables are
    /// replaced by their closed forms (choosing the before/after value by
    /// dominance of the update over `at`).
    pub fn affine_view(
        &self,
        p: &Program,
        cfg: &Cfg,
        dom: &Dominators,
        at: StmtId,
        e: &Expr,
    ) -> Option<Affine> {
        let mut a = Affine::from_expr(e)?;
        // Substitute closed forms for any induction variable whose loop
        // encloses `at`.
        let loops = p.enclosing_loops(at);
        loop {
            let mut subst: Option<(VarId, Affine)> = None;
            for v in a.vars() {
                for &l in &loops {
                    if let Some(iv) = self.of(l, v) {
                        let use_after = iv.def == at
                            || dom.dominates(cfg.node_of(iv.def), cfg.node_of(at));
                        let cf = if use_after {
                            iv.after.clone()
                        } else {
                            iv.before.clone()
                        };
                        subst = Some((v, cf));
                        break;
                    }
                }
                if subst.is_some() {
                    break;
                }
            }
            match subst {
                Some((v, cf)) => a = a.substitute(v, &cf),
                None => break,
            }
        }
        Some(a)
    }

    /// Rewrite the program, replacing each induction update's RHS by its
    /// closed form (the paper's transformation). Returns the number of
    /// rewrites.
    pub fn apply_closed_forms(&self, p: &mut Program) -> usize {
        let mut n = 0;
        for (&def, iv) in &self.by_def {
            if let Stmt::Assign { rhs, .. } = p.stmt_mut(def) {
                *rhs = iv.after.to_expr();
                n += 1;
            }
        }
        n
    }
}

fn affine_const(e: &Expr) -> Option<i64> {
    Affine::from_expr(e)?.as_const()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parsed, var};
    use hpf_ir::interp::run_program;

    fn analyse(p: &Program) -> (Cfg, Dominators, InductionAnalysis) {
        let cfg = Cfg::build(p);
        let dom = Dominators::compute(&cfg);
        let rd = ReachingDefs::compute(p, &cfg);
        let cp = ConstProp::compute(p, &cfg);
        let ia = InductionAnalysis::compute(p, &cfg, &rd, &cp);
        (cfg, dom, ia)
    }

    /// The paper's Figure 1 induction variable: closed form m = i + 1
    /// after the update.
    #[test]
    fn figure1_closed_form() {
        let (p, s) = parsed(
            "REAL D(20)
INTEGER i, m
m = 2
DO i = 2, 19
  m = m + 1
  D(m) = 1.0
END DO",
        );
        let [i, m] = ["i", "m"].map(|n| var(&p, n));
        let [_, lp, upd, use_site] = s[..] else {
            panic!("four statements");
        };
        let (cfg, dom, ia) = analyse(&p);
        let iv = ia.of(lp, m).expect("m recognized");
        assert_eq!(iv.step, 1);
        assert_eq!(iv.init, 2);
        // after = i + 1
        assert_eq!(iv.after.c0, 1);
        assert_eq!(iv.after.coeff(i), 1);
        // The subscript of D(m) is affine i+1 at the use site.
        let view = ia
            .affine_view(&p, &cfg, &dom, use_site, &Expr::scalar(m))
            .unwrap();
        assert_eq!(view, iv.after);
        assert!(ia.is_induction_def(upd));
    }

    #[test]
    fn before_value_used_above_update() {
        // At the use (before the update) m = init + 2*(i-1).
        let (p, s) = parsed(
            "REAL D(20)
INTEGER i, m
m = 2
DO i = 1, 8
  D(m) = 1.0
  m = m + 2
END DO",
        );
        let [i, m] = ["i", "m"].map(|n| var(&p, n));
        let use_site = s[2];
        let (cfg, dom, ia) = analyse(&p);
        let view = ia
            .affine_view(&p, &cfg, &dom, use_site, &Expr::scalar(m))
            .unwrap();
        // before = init + 2*(i-1) = 2i
        assert_eq!(view.coeff(i), 2);
        assert_eq!(view.c0, 0);
    }

    #[test]
    fn conditional_update_rejected() {
        let (p, s) = parsed(
            "INTEGER i, m
LOGICAL c
m = 0
DO i = 1, 8
  IF (c) THEN
    m = m + 1
  END IF
END DO",
        );
        let (lp, m) = (s[1], var(&p, "m"));
        let (_, _, ia) = analyse(&p);
        assert!(ia.of(lp, m).is_none());
    }

    #[test]
    fn unknown_init_rejected() {
        let (p, s) = parsed(
            "INTEGER A(4)
INTEGER i, m
m = A(1)
DO i = 1, 8
  m = m + 1
END DO",
        );
        let (lp, m) = (s[1], var(&p, "m"));
        let (_, _, ia) = analyse(&p);
        assert!(ia.of(lp, m).is_none());
    }

    #[test]
    fn closed_form_rewrite_preserves_semantics() {
        let build = || {
            parsed(
                "INTEGER D(20)
INTEGER i, m
m = 2
DO i = 2, 19
  m = m + 1
  D(m) = m * 3
END DO",
            )
            .0
        };
        let p1 = build();
        let mut p2 = build();
        let (_, _, ia) = analyse(&p2);
        assert_eq!(ia.apply_closed_forms(&mut p2), 1);
        let (m1, _) = run_program(&p1, |_| {}).unwrap();
        let (m2, _) = run_program(&p2, |_| {}).unwrap();
        let d1 = var(&p1, "d");
        let d2 = var(&p2, "d");
        assert_eq!(m1.array(d1), m2.array(d2));
    }
}
