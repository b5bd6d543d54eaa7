//! Reaching definitions for scalar variables, with def-use / use-def chains.
//!
//! This is the dataflow substrate of the paper's mapping algorithm: the
//! pseudocode of its Figure 3 traverses "reached uses of a definition" and
//! "reaching definitions of a use" — both are provided here. The analysis
//! can also be run with a loop's back edges *cut*, which restricts flow to
//! a single iteration; the privatizability check uses the difference
//! between the cut and uncut solutions to detect cross-iteration flow.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use hpf_ir::visit::{collect_stmt_scalar_reads, ScalarRead};
use hpf_ir::{Program, StmtId, VarId};
use std::collections::HashMap;

/// Reaching-definitions solution.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// All scalar definition sites `(stmt, var)`; index = def id.
    pub def_sites: Vec<(StmtId, VarId)>,
    def_index: HashMap<StmtId, usize>,
    /// Reaching set at entry of each CFG node.
    in_sets: Vec<BitSet>,
    /// Scalar reads per statement, precomputed.
    reads: HashMap<StmtId, Vec<ScalarRead>>,
}

impl ReachingDefs {
    /// Solve over the full CFG.
    pub fn compute(p: &Program, cfg: &Cfg) -> ReachingDefs {
        Self::compute_with_cut(p, cfg, &[])
    }

    /// Solve with the given edges removed from the CFG (typically the back
    /// edges of one loop).
    pub fn compute_with_cut(
        p: &Program,
        cfg: &Cfg,
        cut: &[(NodeId, NodeId)],
    ) -> ReachingDefs {
        // Enumerate definition sites.
        let mut def_sites = Vec::new();
        let mut def_index = HashMap::new();
        for s in p.preorder() {
            if let Some(v) = p.stmt(s).written_var() {
                def_index.insert(s, def_sites.len());
                def_sites.push((s, v));
            }
        }
        let ndefs = def_sites.len();

        // Defs per variable (for kill sets).
        let mut defs_of_var: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (i, &(_, v)) in def_sites.iter().enumerate() {
            defs_of_var.entry(v).or_default().push(i);
        }

        // gen/kill per node.
        let nn = cfg.len();
        let mut gen = vec![BitSet::new(ndefs); nn];
        let mut kill = vec![BitSet::new(ndefs); nn];
        for ni in 0..nn {
            if let Some(s) = cfg.stmt_of(NodeId(ni as u32)) {
                if let Some(&d) = def_index.get(&s) {
                    gen[ni].insert(d);
                    let (_, v) = def_sites[d];
                    for &other in &defs_of_var[&v] {
                        if other != d {
                            kill[ni].insert(other);
                        }
                    }
                }
            }
        }

        // Iterate to fixpoint in RPO.
        let rpo = cfg.rpo();
        let mut in_sets = vec![BitSet::new(ndefs); nn];
        let mut out_sets = vec![BitSet::new(ndefs); nn];
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &rpo {
                let ni = n.index();
                // IN = union of preds' OUT (over uncut edges).
                let mut newin = BitSet::new(ndefs);
                for &pnode in &cfg.nodes[ni].preds {
                    if cut.contains(&(pnode, n)) {
                        continue;
                    }
                    newin.union_with(&out_sets[pnode.index()]);
                }
                let mut newout = newin.clone();
                newout.subtract(&kill[ni]);
                newout.union_with(&gen[ni]);
                if newin != in_sets[ni] {
                    in_sets[ni] = newin;
                    changed = true;
                }
                if newout != out_sets[ni] {
                    out_sets[ni] = newout;
                    changed = true;
                }
            }
        }

        // Precompute scalar reads per statement.
        let mut reads = HashMap::new();
        for s in p.preorder() {
            let mut v = Vec::new();
            collect_stmt_scalar_reads(p.stmt(s), s, &mut v);
            reads.insert(s, v);
        }

        ReachingDefs {
            def_sites,
            def_index,
            in_sets: {
                // Index by node; store directly.
                in_sets
            },
            reads,
        }
    }

    /// The definition id of a statement, if it defines a scalar.
    pub fn def_id(&self, s: StmtId) -> Option<usize> {
        self.def_index.get(&s).copied()
    }

    /// Variable defined by a definition statement.
    pub fn def_var(&self, s: StmtId) -> Option<VarId> {
        self.def_id(s).map(|d| self.def_sites[d].1)
    }

    /// Definitions of `var` reaching the *entry* of `stmt` (use-def chain:
    /// a read of `var` in `stmt` sees exactly these definitions).
    pub fn reaching_defs(&self, cfg: &Cfg, stmt: StmtId, var: VarId) -> Vec<StmtId> {
        let n = cfg.node_of(stmt);
        self.in_sets[n.index()]
            .iter()
            .filter_map(|d| {
                let (s, v) = self.def_sites[d];
                if v == var {
                    Some(s)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Does `stmt` read `var` at all (any context)?
    pub fn stmt_reads(&self, stmt: StmtId, var: VarId) -> bool {
        self.reads
            .get(&stmt)
            .is_some_and(|rs| rs.iter().any(|r| r.var == var))
    }

    /// The read occurrences of `var` in `stmt`.
    pub fn read_contexts(&self, stmt: StmtId, var: VarId) -> Vec<ScalarRead> {
        self.reads
            .get(&stmt)
            .map(|rs| rs.iter().copied().filter(|r| r.var == var).collect())
            .unwrap_or_default()
    }

    /// All uses (statements reading the defined variable) reached by the
    /// definition at `def_stmt` (def-use chain).
    pub fn reached_uses(&self, p: &Program, cfg: &Cfg, def_stmt: StmtId) -> Vec<StmtId> {
        let Some(d) = self.def_id(def_stmt) else {
            return Vec::new();
        };
        let (_, var) = self.def_sites[d];
        let mut out = Vec::new();
        for s in p.preorder() {
            if !self.stmt_reads(s, var) {
                continue;
            }
            let n = cfg.node_of(s);
            if self.in_sets[n.index()].contains(d) {
                out.push(s);
            }
        }
        out
    }

    /// Is `def_stmt` the *only* definition reaching every use it reaches?
    /// (The paper's `IsUniqueDef` check in Figure 3.)
    pub fn is_unique_def(&self, p: &Program, cfg: &Cfg, def_stmt: StmtId) -> bool {
        let Some(var) = self.def_var(def_stmt) else {
            return false;
        };
        for u in self.reached_uses(p, cfg, def_stmt) {
            let defs = self.reaching_defs(cfg, u, var);
            if defs.len() != 1 || defs[0] != def_stmt {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parsed, var};

    #[test]
    fn straight_line_chains() {
        let (p, s) = parsed("REAL x, y\nx = 1.0\ny = x\nx = 2.0\ny = x");
        let [d1, u1, d2, u2] = s[..] else {
            panic!("four statements");
        };
        let x = var(&p, "x");
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        assert_eq!(rd.reaching_defs(&cfg, u1, x), vec![d1]);
        assert_eq!(rd.reaching_defs(&cfg, u2, x), vec![d2]);
        assert_eq!(rd.reached_uses(&p, &cfg, d1), vec![u1]);
        assert_eq!(rd.reached_uses(&p, &cfg, d2), vec![u2]);
        assert!(rd.is_unique_def(&p, &cfg, d1));
    }

    #[test]
    fn branch_merges_defs() {
        let (p, s) = parsed(
            "REAL x, y
LOGICAL c
IF (c) THEN
  x = 1.0
ELSE
  x = 2.0
END IF
y = x",
        );
        let [_, d1, d2, u] = s[..] else {
            panic!("four statements");
        };
        let x = var(&p, "x");
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let mut defs = rd.reaching_defs(&cfg, u, x);
        defs.sort();
        assert_eq!(defs, vec![d1, d2]);
        assert!(!rd.is_unique_def(&p, &cfg, d1));
    }

    #[test]
    fn loop_carried_def_reaches_via_back_edge_only() {
        // Uncut: the use of s in `y = s` sees both the init and the in-loop
        // def. With the loop's back edges cut it sees only the init.
        let (p, stmts) = parsed(
            "INTEGER i
REAL s, y
s = 0.0
DO i = 1, 4
  y = s
  s = s + 1.0
END DO",
        );
        let [d0, lp, use_s, d1] = stmts[..] else {
            panic!("four statements");
        };
        let s = var(&p, "s");
        let cfg = Cfg::build(&p);

        let rd = ReachingDefs::compute(&p, &cfg);
        let mut defs = rd.reaching_defs(&cfg, use_s, s);
        defs.sort();
        let mut expect = vec![d0, d1];
        expect.sort();
        assert_eq!(defs, expect);

        let rd_cut = ReachingDefs::compute_with_cut(&p, &cfg, cfg.back_edges_of(lp));
        assert_eq!(rd_cut.reaching_defs(&cfg, use_s, s), vec![d0]);
    }

    #[test]
    fn def_before_use_in_same_iteration() {
        // With the back edge cut, the use still sees the in-loop def:
        // same-iteration flow.
        let (p, s) = parsed(
            "REAL A(8)
INTEGER i
REAL x, y
DO i = 1, 8
  x = A(i)
  y = x
END DO",
        );
        let [lp, dx, uy] = s[..] else {
            panic!("three statements");
        };
        let x = var(&p, "x");
        let cfg = Cfg::build(&p);
        let rd_cut = ReachingDefs::compute_with_cut(&p, &cfg, cfg.back_edges_of(lp));
        assert_eq!(rd_cut.reaching_defs(&cfg, uy, x), vec![dx]);
        assert!(rd_cut.is_unique_def(&p, &cfg, dx));
    }

    #[test]
    fn do_stmt_defines_loop_var() {
        let (p, s) = parsed(
            "INTEGER i, y
DO i = 1, 4
  y = i
END DO
IF (i > 4) THEN
  y = 0
END IF",
        );
        let (lp, u_after) = (s[0], s[2]);
        let i = var(&p, "i");
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        assert_eq!(rd.def_var(lp), Some(i));
        // The IF after the loop reads i defined by the DO.
        assert_eq!(rd.reaching_defs(&cfg, u_after, i), vec![lp]);
    }
}
