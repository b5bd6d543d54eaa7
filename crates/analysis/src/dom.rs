//! Dominator tree over the CFG (iterative Cooper–Harvey–Kennedy algorithm).
//!
//! Used by induction-variable substitution: a use sees an update's
//! "after" value when the update dominates it.

use crate::cfg::{Cfg, NodeId};

/// Immediate-dominator table.
#[derive(Debug, Clone)]
pub struct Dominators {
    idom: Vec<Option<NodeId>>,
}

impl Dominators {
    pub fn compute(cfg: &Cfg) -> Dominators {
        let rpo = cfg.rpo();
        let mut rpo_index = vec![usize::MAX; cfg.len()];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_index[n.index()] = i;
        }
        let mut idom: Vec<Option<NodeId>> = vec![None; cfg.len()];
        idom[cfg.entry.index()] = Some(cfg.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &n in rpo.iter().skip(1) {
                let preds = &cfg.nodes[n.index()].preds;
                // First processed predecessor.
                let mut new_idom: Option<NodeId> = None;
                for &p in preds {
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => Self::intersect(&idom, &rpo_index, p, cur),
                        });
                    }
                }
                if let Some(ni) = new_idom {
                    if idom[n.index()] != Some(ni) {
                        idom[n.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom }
    }

    fn intersect(
        idom: &[Option<NodeId>],
        rpo_index: &[usize],
        mut a: NodeId,
        mut b: NodeId,
    ) -> NodeId {
        while a != b {
            while rpo_index[a.index()] > rpo_index[b.index()] {
                a = idom[a.index()].unwrap();
            }
            while rpo_index[b.index()] > rpo_index[a.index()] {
                b = idom[b.index()].unwrap();
            }
        }
        a
    }

    /// Immediate dominator of `n` (`None` for entry and unreachable nodes).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        let d = self.idom[n.index()]?;
        if d == n {
            None
        } else {
            Some(d)
        }
    }

    /// Does `a` dominate `b`?
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsed;

    #[test]
    fn diamond_dominance() {
        let (p, s) = parsed(
            "LOGICAL c
REAL x
IF (c) THEN
  x = 1.0
ELSE
  x = 2.0
END IF
x = 3.0",
        );
        let [iff, t, e, join] = s[..] else {
            panic!("four statements");
        };
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let ni = cfg.node_of(iff);
        let nt = cfg.node_of(t);
        let ne = cfg.node_of(e);
        let nj = cfg.node_of(join);
        assert!(dom.dominates(ni, nt));
        assert!(dom.dominates(ni, ne));
        assert!(dom.dominates(ni, nj));
        assert!(!dom.dominates(nt, nj));
        assert_eq!(dom.idom(nj), Some(ni));
    }

    #[test]
    fn loop_header_dominates_body() {
        let (p, s) = parsed(
            "INTEGER i
REAL x
DO i = 1, 4
  x = 0.0
END DO
x = 1.0",
        );
        let [lp, body, after] = s[..] else {
            panic!("three statements");
        };
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        assert!(dom.dominates(cfg.node_of(lp), cfg.node_of(body)));
        assert!(dom.dominates(cfg.node_of(lp), cfg.node_of(after)));
        assert!(!dom.dominates(cfg.node_of(body), cfg.node_of(after)));
    }
}
