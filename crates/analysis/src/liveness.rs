//! Live-variable analysis for scalars (backward dataflow).
//!
//! The privatizability check needs "is the scalar live outside the loop":
//! if a value assigned inside the loop can be read after the loop exits,
//! privatizing it without copy-out would change program semantics.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use hpf_ir::visit::collect_stmt_scalar_reads;
use hpf_ir::{Program, StmtId, VarId};

/// Liveness solution: live-in set per CFG node (bit per scalar `VarId`).
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    nvars: usize,
}

impl Liveness {
    pub fn compute(p: &Program, cfg: &Cfg) -> Liveness {
        let nvars = p.vars.len();
        let nn = cfg.len();
        let mut use_sets = vec![BitSet::new(nvars); nn];
        let mut def_sets = vec![BitSet::new(nvars); nn];
        for ni in 0..nn {
            if let Some(s) = cfg.stmt_of(NodeId(ni as u32)) {
                let mut reads = Vec::new();
                collect_stmt_scalar_reads(p.stmt(s), s, &mut reads);
                for r in reads {
                    use_sets[ni].insert(r.var.index());
                }
                if let Some(v) = p.stmt(s).written_var() {
                    def_sets[ni].insert(v.index());
                }
            }
        }
        let mut live_in = vec![BitSet::new(nvars); nn];
        let mut live_out = vec![BitSet::new(nvars); nn];
        // Iterate backward (post-order ≈ reverse RPO).
        let order: Vec<NodeId> = cfg.rpo().into_iter().rev().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let ni = n.index();
                let mut newout = BitSet::new(nvars);
                for &s in &cfg.nodes[ni].succs {
                    newout.union_with(&live_in[s.index()]);
                }
                let mut newin = newout.clone();
                newin.subtract(&def_sets[ni]);
                newin.union_with(&use_sets[ni]);
                if newout != live_out[ni] {
                    live_out[ni] = newout;
                    changed = true;
                }
                if newin != live_in[ni] {
                    live_in[ni] = newin;
                    changed = true;
                }
            }
        }
        Liveness { live_in, nvars }
    }

    pub fn live_in(&self, n: NodeId, var: VarId) -> bool {
        self.live_in[n.index()].contains(var.index())
    }

    /// Is `var` live on some path that leaves loop `l`? Considers every CFG
    /// edge from a node inside the loop subtree (or its header) to a node
    /// outside it — including `GOTO`s that jump out of the loop.
    pub fn live_after_loop(&self, p: &Program, cfg: &Cfg, l: StmtId, var: VarId) -> bool {
        debug_assert!(p.stmt(l).is_loop());
        let inside = |s: StmtId| p.is_self_or_ancestor(l, s);
        for (ni, node) in cfg.nodes.iter().enumerate() {
            let from_inside = match cfg.stmt_of(NodeId(ni as u32)) {
                Some(s) => inside(s),
                None => false,
            };
            if !from_inside {
                continue;
            }
            for &succ in &node.succs {
                let to_outside = match cfg.stmt_of(succ) {
                    Some(s) => !inside(s),
                    None => succ == cfg.exit,
                };
                if to_outside && self.live_in[succ.index()].contains(var.index()) {
                    return true;
                }
            }
        }
        false
    }

    pub fn nvars(&self) -> usize {
        self.nvars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parsed, var};

    /// `src` parsed, its first statement (the loop) and its scalar `x`.
    fn loop_and_x(src: &str) -> (Program, StmtId, VarId) {
        let (p, s) = parsed(src);
        let x = var(&p, "x");
        (p, s[0], x)
    }

    #[test]
    fn scalar_dead_after_loop() {
        let (p, lp, x) = loop_and_x(
            "REAL A(8), B(8)
INTEGER i
REAL x
DO i = 1, 8
  x = A(i)
  B(i) = x
END DO",
        );
        let cfg = Cfg::build(&p);
        let lv = Liveness::compute(&p, &cfg);
        assert!(!lv.live_after_loop(&p, &cfg, lp, x));
    }

    #[test]
    fn scalar_live_after_loop() {
        let (p, lp, x) = loop_and_x(
            "REAL A(8)
INTEGER i
REAL x, y
DO i = 1, 8
  x = A(i)
END DO
y = x",
        );
        let cfg = Cfg::build(&p);
        let lv = Liveness::compute(&p, &cfg);
        assert!(lv.live_after_loop(&p, &cfg, lp, x));
    }

    #[test]
    fn live_through_goto_exit() {
        // x is overwritten before the back edge, so it is NOT live around
        // it; only the GOTO exit carries it to its use.
        let (p, lp, x) = loop_and_x(
            "REAL A(8)
INTEGER i
REAL x, y
DO i = 1, 8
  x = A(i)
  IF (x > 0.5) GOTO 100
  x = 0.0
END DO
y = 0.0
100 y = x",
        );
        let cfg = Cfg::build(&p);
        let lv = Liveness::compute(&p, &cfg);
        assert!(lv.live_after_loop(&p, &cfg, lp, x));
    }
}
