//! Static single assignment view of scalars: dominance frontiers and pruned
//! phi placement, plus per-definition version numbering.
//!
//! The phpf compiler "uses the SSA representation to associate a separate
//! mapping decision with each assignment to a scalar" (paper, Sec. 2.2).
//! Here the mapping algorithm keys decisions by the defining [`StmtId`]
//! (each statement defines at most one scalar, so a def site *is* an SSA
//! name); this module supplies the phi structure used to reason about
//! merge points and to enforce the paper's restriction that all reaching
//! definitions of a use receive an identical mapping.

use crate::cfg::{Cfg, NodeId};
use crate::dom::Dominators;
use crate::liveness::Liveness;
use hpf_ir::{Program, StmtId, VarId};
use std::collections::{HashMap, HashSet};

/// A phi site: control-flow join where multiple definitions of `var` merge
/// and the variable is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhiSite {
    pub node: NodeId,
    pub var: VarId,
}

/// SSA summary for a program.
#[derive(Debug, Clone)]
pub struct Ssa {
    /// Version number of each scalar definition site (per-variable counter
    /// in reverse postorder).
    pub version: HashMap<StmtId, u32>,
    /// Pruned phi sites.
    pub phis: Vec<PhiSite>,
}

impl Ssa {
    pub fn compute(p: &Program, cfg: &Cfg, dom: &Dominators, live: &Liveness) -> Ssa {
        let frontier = dominance_frontiers(cfg, dom);

        // Definition sites per variable.
        let mut defs_of: HashMap<VarId, Vec<NodeId>> = HashMap::new();
        let mut version = HashMap::new();
        let mut counter: HashMap<VarId, u32> = HashMap::new();
        for &n in &cfg.rpo() {
            if let Some(s) = cfg.stmt_of(n) {
                if let Some(v) = p.stmt(s).written_var() {
                    defs_of.entry(v).or_default().push(n);
                    let c = counter.entry(v).or_insert(0);
                    *c += 1;
                    version.insert(s, *c);
                }
            }
        }

        // Iterated dominance frontier per variable, pruned by liveness.
        let mut phis = Vec::new();
        for (&var, def_nodes) in &defs_of {
            let mut placed: HashSet<NodeId> = HashSet::new();
            let mut work: Vec<NodeId> = def_nodes.clone();
            while let Some(n) = work.pop() {
                for &f in &frontier[n.index()] {
                    if placed.insert(f) {
                        if live.live_in(f, var) {
                            phis.push(PhiSite { node: f, var });
                        }
                        // A phi is itself a definition.
                        work.push(f);
                    }
                }
            }
        }
        phis.sort_by_key(|p| (p.node, p.var));
        Ssa { version, phis }
    }

    /// SSA version of a definition site (1-based per variable).
    pub fn version_of(&self, def: StmtId) -> Option<u32> {
        self.version.get(&def).copied()
    }

    /// Phi sites for one variable.
    pub fn phis_of(&self, var: VarId) -> impl Iterator<Item = &PhiSite> {
        self.phis.iter().filter(move |p| p.var == var)
    }
}

/// Standard dominance-frontier computation (Cooper–Harvey–Kennedy).
pub fn dominance_frontiers(cfg: &Cfg, dom: &Dominators) -> Vec<Vec<NodeId>> {
    let mut df: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.len()];
    for ni in 0..cfg.len() {
        let n = NodeId(ni as u32);
        if !dom.is_reachable(n) {
            continue;
        }
        let preds = &cfg.nodes[ni].preds;
        if preds.len() < 2 {
            continue;
        }
        let Some(id) = dom.idom(n) else { continue };
        for &p in preds {
            if !dom.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while runner != id {
                if !df[runner.index()].contains(&n) {
                    df[runner.index()].push(n);
                }
                match dom.idom(runner) {
                    Some(d) => runner = d,
                    None => break,
                }
            }
        }
    }
    df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::Dominators;
    use crate::liveness::Liveness;
    use hpf_ir::{Expr, ProgramBuilder};

    fn analyse(p: &Program) -> (Cfg, Ssa) {
        let cfg = Cfg::build(p);
        let dom = Dominators::compute(&cfg);
        let live = Liveness::compute(p, &cfg);
        let ssa = Ssa::compute(p, &cfg, &dom, &live);
        (cfg, ssa)
    }

    #[test]
    fn phi_at_if_join() {
        let mut b = ProgramBuilder::new();
        let c = b.bool_scalar("c");
        let x = b.real_scalar("x");
        let y = b.real_scalar("y");
        b.if_then_else(
            Expr::scalar(c),
            |b| {
                b.assign_scalar(x, Expr::real(1.0));
            },
            |b| {
                b.assign_scalar(x, Expr::real(2.0));
            },
        );
        let join = b.assign_scalar(y, Expr::scalar(x));
        let p = b.finish();
        let (cfg, ssa) = analyse(&p);
        let phis: Vec<_> = ssa.phis_of(x).collect();
        assert_eq!(phis.len(), 1);
        assert_eq!(phis[0].node, cfg.node_of(join));
    }

    #[test]
    fn phi_pruned_when_dead() {
        // x defined on both branches but never read afterwards: no phi.
        let mut b = ProgramBuilder::new();
        let c = b.bool_scalar("c");
        let x = b.real_scalar("x");
        b.if_then_else(
            Expr::scalar(c),
            |b| {
                b.assign_scalar(x, Expr::real(1.0));
            },
            |b| {
                b.assign_scalar(x, Expr::real(2.0));
            },
        );
        b.assign_scalar(c, Expr::BoolLit(false));
        let p = b.finish();
        let (_, ssa) = analyse(&p);
        assert_eq!(ssa.phis_of(x).count(), 0);
    }

    #[test]
    fn loop_header_phi() {
        // s = 0 ; do i { s = s + 1 } ; y = s
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let s = b.real_scalar("s");
        let y = b.real_scalar("y");
        b.assign_scalar(s, Expr::real(0.0));
        let lp = b.do_loop(i, Expr::int(1), Expr::int(4), |b| {
            b.assign_scalar(s, Expr::scalar(s).add(Expr::real(1.0)));
        });
        b.assign_scalar(y, Expr::scalar(s));
        let p = b.finish();
        let (cfg, ssa) = analyse(&p);
        // A phi for s at the loop header (two defs merge around the back
        // edge and s is live there).
        assert!(ssa
            .phis_of(s)
            .any(|ph| ph.node == cfg.node_of(lp)));
    }

    #[test]
    fn versions_are_per_variable() {
        let mut b = ProgramBuilder::new();
        let x = b.real_scalar("x");
        let y = b.real_scalar("y");
        let d1 = b.assign_scalar(x, Expr::real(1.0));
        let d2 = b.assign_scalar(y, Expr::real(1.0));
        let d3 = b.assign_scalar(x, Expr::real(2.0));
        let p = b.finish();
        let (_, ssa) = analyse(&p);
        assert_eq!(ssa.version_of(d1), Some(1));
        assert_eq!(ssa.version_of(d2), Some(1));
        assert_eq!(ssa.version_of(d3), Some(2));
    }
}
