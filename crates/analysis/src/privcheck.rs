//! Privatizability analysis.
//!
//! A scalar definition inside loop `L` is privatizable w.r.t. `L` when no
//! value flows across iterations of `L` through the variable: every use
//! reached by the definition lies inside `L` and is reached exclusively by
//! same-iteration definitions (checked by re-solving reaching definitions
//! with `L`'s back edges cut). If the variable is additionally not live on
//! any path leaving `L`, it is privatizable *without copy-out* — the form
//! the paper's mapping algorithm requires (Sec. 2.2), with the reduction
//! handling of Sec. 2.3 using the weaker "w.r.t. the loop immediately
//! surrounding the reduction loop" variant.
//!
//! Arrays are handled as in phpf: privatizability w.r.t. a loop is taken
//! from the `NEW` clause of an `INDEPENDENT` directive, or inferred from a
//! "no value-based loop-carried dependences" assertion combined with
//! memory-carried writes (Sec. 3.1).

use crate::cfg::Cfg;
use crate::depend;
use crate::dom::Dominators;
use crate::induction::InductionAnalysis;
use crate::liveness::Liveness;
use crate::reach::ReachingDefs;
use hpf_ir::{Program, StmtId, VarId};
use std::collections::HashMap;

/// Verdict for one (definition, loop) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Privatizable {
    /// Cross-iteration flow: cannot privatize.
    No,
    /// Privatizable; `copy_out` says whether the last iteration's value is
    /// live after the loop and would need copying out.
    Yes { copy_out: bool },
}

impl Privatizable {
    pub fn without_copy_out(self) -> bool {
        matches!(self, Privatizable::Yes { copy_out: false })
    }

    pub fn is_privatizable(self) -> bool {
        matches!(self, Privatizable::Yes { .. })
    }
}

/// Privatizability oracle with per-loop cut-reaching-defs caching.
pub struct PrivCheck<'p> {
    p: &'p Program,
    cfg: &'p Cfg,
    rd: &'p ReachingDefs,
    live: &'p Liveness,
    cut_cache: HashMap<StmtId, ReachingDefs>,
}

impl<'p> PrivCheck<'p> {
    pub fn new(
        p: &'p Program,
        cfg: &'p Cfg,
        rd: &'p ReachingDefs,
        live: &'p Liveness,
    ) -> Self {
        PrivCheck {
            p,
            cfg,
            rd,
            live,
            cut_cache: HashMap::new(),
        }
    }

    fn cut_rd(&mut self, l: StmtId) -> &ReachingDefs {
        let (p, cfg) = (self.p, self.cfg);
        self.cut_cache
            .entry(l)
            .or_insert_with(|| ReachingDefs::compute_with_cut(p, cfg, cfg.back_edges_of(l)))
    }

    /// Is the scalar definition at `def` privatizable w.r.t. loop `l`?
    ///
    /// `def` must lie inside `l`. The `NEW` clause of an `INDEPENDENT`
    /// directive on `l` asserts privatizability directly (including
    /// copy-out-freedom — HPF semantics: NEW objects are undefined after
    /// the loop).
    pub fn scalar_privatizable(&mut self, l: StmtId, def: StmtId) -> Privatizable {
        debug_assert!(self.p.stmt(l).is_loop());
        let Some(var) = self.rd.def_var(def) else {
            return Privatizable::No;
        };
        if !self.p.is_self_or_ancestor(l, def) || def == l {
            return Privatizable::No;
        }
        if self.p.directives.is_new_var(l, var) {
            return Privatizable::Yes { copy_out: false };
        }

        // Every use inside `l` that reads `var` must be reached only by
        // defs inside `l`, and the reaching sets must be identical with the
        // back edges of `l` cut (no cross-iteration flow).
        let uses: Vec<StmtId> = self
            .p
            .preorder()
            .into_iter()
            .filter(|&s| self.p.is_self_or_ancestor(l, s) && self.rd.stmt_reads(s, var))
            .collect();
        // Gather full-graph reaching sets first (immutable borrow of self.rd).
        let full: Vec<(StmtId, Vec<StmtId>)> = uses
            .iter()
            .map(|&u| (u, self.rd.reaching_defs(self.cfg, u, var)))
            .collect();
        let cfg = self.cfg;
        let p = self.p;
        let cut = self.cut_rd(l);
        for (u, full_defs) in full {
            for d in &full_defs {
                if !p.is_self_or_ancestor(l, *d) || *d == l {
                    // An outside value (or the loop's own index def) flows in.
                    // Loop-index defs are fine only when var is the index —
                    // conservatively reject.
                    return Privatizable::No;
                }
            }
            let mut cut_defs = cut.reaching_defs(cfg, u, var);
            let mut full_sorted = full_defs;
            cut_defs.sort();
            full_sorted.sort();
            if cut_defs != full_sorted {
                // Some def only reaches around the back edge: cross-iteration
                // value flow.
                return Privatizable::No;
            }
        }

        let copy_out = self.live.live_after_loop(self.p, self.cfg, l, var);
        Privatizable::Yes { copy_out }
    }

    /// Array privatizability w.r.t. loop `l`: from the `NEW` clause, or
    /// inferred from `no_value_deps` + memory-carried writes.
    pub fn array_privatizable(
        &mut self,
        dom: &Dominators,
        ia: &InductionAnalysis,
        l: StmtId,
        array: VarId,
    ) -> bool {
        if self.p.directives.is_new_var(l, array) {
            return true;
        }
        if let Some(info) = self.p.directives.independent_of(l) {
            if info.no_value_deps {
                return depend::arrays_with_memory_carried_writes(self.p, self.cfg, dom, ia, l)
                    .contains(&array);
            }
        }
        false
    }

    /// All arrays privatizable w.r.t. loop `l`.
    pub fn privatizable_arrays(
        &mut self,
        dom: &Dominators,
        ia: &InductionAnalysis,
        l: StmtId,
    ) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        if let Some(info) = self.p.directives.independent_of(l) {
            for &v in &info.new_vars {
                if self.p.vars.info(v).is_array() && !out.contains(&v) {
                    out.push(v);
                }
            }
            if info.no_value_deps {
                for v in
                    depend::arrays_with_memory_carried_writes(self.p, self.cfg, dom, ia, l)
                {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constprop::ConstProp;
    use crate::{parsed, var};

    struct Ctx {
        p: Program,
        cfg: Cfg,
        rd: ReachingDefs,
        live: Liveness,
    }

    /// The analyses of `src`, its statement `def` (in preorder) and the
    /// loop, its first statement or the first after one scalar
    /// initialisation.
    fn ctx(src: &str, loop_at: usize, def: usize) -> (Ctx, StmtId, StmtId) {
        let (p, s) = parsed(src);
        let (lp, d) = (s[loop_at], s[def]);
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let live = Liveness::compute(&p, &cfg);
        (Ctx { p, cfg, rd, live }, lp, d)
    }

    #[test]
    fn def_before_use_privatizable() {
        // x privatizable, no copy-out.
        let (c, lp, dx) = ctx(
            "REAL B(8), C(8), D(8)
INTEGER i
REAL x
DO i = 1, 8
  x = B(i) + C(i)
  D(i) = x
END DO",
            0,
            1,
        );
        let mut pc = PrivCheck::new(&c.p, &c.cfg, &c.rd, &c.live);
        assert_eq!(
            pc.scalar_privatizable(lp, dx),
            Privatizable::Yes { copy_out: false }
        );
    }

    /// x read before written: the value flows from the previous iteration.
    const CROSS_ITERATION: &str = "REAL B(8), D(8)
INTEGER i
REAL x
x = 0.0
DO i = 1, 8
  D(i) = x
  x = B(i)
END DO";

    #[test]
    fn cross_iteration_flow_rejected() {
        let (c, lp, dx) = ctx(CROSS_ITERATION, 1, 3);
        let mut pc = PrivCheck::new(&c.p, &c.cfg, &c.rd, &c.live);
        assert_eq!(pc.scalar_privatizable(lp, dx), Privatizable::No);
    }

    #[test]
    fn live_after_loop_needs_copy_out() {
        let (c, lp, dx) = ctx(
            "REAL B(8), D(8)
INTEGER i
REAL x, y
DO i = 1, 8
  x = B(i)
  D(i) = x
END DO
y = x",
            0,
            1,
        );
        let mut pc = PrivCheck::new(&c.p, &c.cfg, &c.rd, &c.live);
        assert_eq!(
            pc.scalar_privatizable(lp, dx),
            Privatizable::Yes { copy_out: true }
        );
    }

    #[test]
    fn reduction_accumulator_not_privatizable() {
        // s flows across iterations.
        let (c, lp, ds) = ctx(
            "REAL A(8)
INTEGER j
REAL s
s = 0.0
DO j = 1, 8
  s = s + A(j)
END DO",
            1,
            2,
        );
        let mut pc = PrivCheck::new(&c.p, &c.cfg, &c.rd, &c.live);
        assert_eq!(pc.scalar_privatizable(lp, ds), Privatizable::No);
    }

    #[test]
    fn new_clause_overrides() {
        // Same cross-iteration shape, but NEW(x) asserts privatizability.
        let src = CROSS_ITERATION.replace("DO i", "!HPF$ INDEPENDENT, NEW(x)\nDO i");
        let (c, lp, dx) = ctx(&src, 1, 3);
        let mut pc = PrivCheck::new(&c.p, &c.cfg, &c.rd, &c.live);
        assert!(pc.scalar_privatizable(lp, dx).without_copy_out());
    }

    #[test]
    fn array_privatizability_from_new_and_inference() {
        // APPSP-like: privatizable work array via NEW and via NO_VALUE_DEPS.
        let build = |use_new: bool| {
            let directive = if use_new { "INDEPENDENT, NEW(c)" } else { "NO_VALUE_DEPS" };
            let (p, s) = parsed(&format!(
                "REAL C(8,8), R(8,8)
INTEGER k, i
!HPF$ {directive}
DO k = 1, 8
  DO i = 1, 8
    C(i,1) = 0.0
  END DO
  DO i = 1, 8
    R(i,k) = C(i,1)
  END DO
END DO"
            ));
            let cw = var(&p, "c");
            (p, s[0], cw)
        };
        for use_new in [true, false] {
            let (p, lp, cw) = build(use_new);
            let cfg = Cfg::build(&p);
            let rd = ReachingDefs::compute(&p, &cfg);
            let live = Liveness::compute(&p, &cfg);
            let dom = Dominators::compute(&cfg);
            let cp = ConstProp::compute(&p, &cfg);
            let ia = InductionAnalysis::compute(&p, &cfg, &rd, &cp);
            let mut pc = PrivCheck::new(&p, &cfg, &rd, &live);
            assert!(
                pc.array_privatizable(&dom, &ia, lp, cw),
                "use_new={}",
                use_new
            );
            assert_eq!(pc.privatizable_arrays(&dom, &ia, lp), vec![cw]);
        }
    }
}
