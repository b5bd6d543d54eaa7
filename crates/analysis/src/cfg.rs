//! Control-flow graph over the structured statement tree.
//!
//! One node per statement plus synthetic entry/exit nodes. `DO` statements
//! are loop headers with a body-entry edge and a loop-exit edge; the edge
//! from the end of the body back to the header is recorded as a *back edge*
//! (the privatizability analysis re-runs reaching definitions with a loop's
//! back edges cut to distinguish same-iteration from cross-iteration flow).

use hpf_ir::{Program, Stmt, StmtId};
use std::collections::HashMap;

/// Index of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A CFG node.
#[derive(Debug, Clone, Default)]
pub struct CfgNode {
    /// The statement this node represents (`None` for entry/exit).
    pub stmt: Option<StmtId>,
    pub succs: Vec<NodeId>,
    pub preds: Vec<NodeId>,
}

/// The control-flow graph of a program.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub nodes: Vec<CfgNode>,
    pub entry: NodeId,
    pub exit: NodeId,
    stmt_node: HashMap<StmtId, NodeId>,
    /// Back edges `(from, to)` where `to` is a `DO` header, keyed by the
    /// loop's [`StmtId`].
    back_edges: HashMap<StmtId, Vec<(NodeId, NodeId)>>,
}

/// Where control goes after a statement completes.
enum Next {
    Stmt(StmtId),
    LoopBack(StmtId),
    Exit,
}

impl Cfg {
    pub fn build(p: &Program) -> Cfg {
        let pre = p.preorder();
        let mut nodes = vec![CfgNode::default(), CfgNode::default()];
        let entry = NodeId(0);
        let exit = NodeId(1);
        let mut stmt_node = HashMap::new();
        for &s in &pre {
            let id = NodeId(nodes.len() as u32);
            nodes.push(CfgNode {
                stmt: Some(s),
                ..Default::default()
            });
            stmt_node.insert(s, id);
        }
        let mut cfg = Cfg {
            nodes,
            entry,
            exit,
            stmt_node,
            back_edges: HashMap::new(),
        };

        // Entry edge.
        let first = cfg.block_entry(p, &p.body, Next::Exit);
        cfg.add_edge(entry, first);

        // Per-statement edges.
        for &s in &pre {
            let from = cfg.stmt_node[&s];
            match p.stmt(s) {
                Stmt::Assign { .. } | Stmt::Continue => {
                    let nxt = cfg.resolve(p, Cfg::after(p, s));
                    cfg.add_edge(from, nxt);
                }
                Stmt::Goto(l) => {
                    let target = p
                        .find_label(*l)
                        .expect("validated programs have resolved labels");
                    let t = cfg.stmt_node[&target];
                    cfg.add_edge(from, t);
                }
                Stmt::Do { body, .. } => {
                    // Loop taken: into body (trivially back to self when the
                    // body is empty).
                    let into = cfg.block_entry(p, body, Next::LoopBack(s));
                    cfg.add_edge(from, into);
                    // Loop exit.
                    let nxt = cfg.resolve(p, Cfg::after(p, s));
                    cfg.add_edge(from, nxt);
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let after = Cfg::after(p, s);
                    let t = cfg.block_entry(p, then_body, Cfg::after(p, s));
                    cfg.add_edge(from, t);
                    let e = cfg.block_entry(p, else_body, after);
                    cfg.add_edge(from, e);
                }
            }
        }

        // Identify back edges: any edge u -> do_header where u lies inside
        // the loop's subtree (including the header itself for empty bodies).
        for &s in &pre {
            if !p.stmt(s).is_loop() {
                continue;
            }
            let header = cfg.stmt_node[&s];
            let mut backs = Vec::new();
            for (ui, n) in cfg.nodes.iter().enumerate() {
                if n.succs.contains(&header) {
                    if let Some(us) = n.stmt {
                        if p.is_self_or_ancestor(s, us) {
                            backs.push((NodeId(ui as u32), header));
                        }
                    }
                }
            }
            cfg.back_edges.insert(s, backs);
        }
        cfg
    }

    /// Entry node of a block, or the continuation if the block is empty.
    fn block_entry(&self, p: &Program, block: &[StmtId], cont: Next) -> NodeId {
        match block.first() {
            Some(&s) => self.stmt_node[&s],
            None => self.resolve(p, cont),
        }
    }

    fn resolve(&self, _p: &Program, n: Next) -> NodeId {
        match n {
            Next::Stmt(s) => self.stmt_node[&s],
            Next::LoopBack(l) => self.stmt_node[&l],
            Next::Exit => self.exit,
        }
    }

    /// The continuation after a statement finishes, walking up the tree.
    fn after(p: &Program, id: StmtId) -> Next {
        let (block, pos) = p.containing_block(id);
        if pos + 1 < block.len() {
            return Next::Stmt(block[pos + 1]);
        }
        match p.parent(id) {
            None => Next::Exit,
            Some(par) => {
                if p.stmt(par).is_loop() {
                    Next::LoopBack(par)
                } else {
                    Cfg::after(p, par)
                }
            }
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.nodes[from.index()].succs.contains(&to) {
            self.nodes[from.index()].succs.push(to);
            self.nodes[to.index()].preds.push(from);
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    pub fn node_of(&self, s: StmtId) -> NodeId {
        self.stmt_node[&s]
    }

    pub fn stmt_of(&self, n: NodeId) -> Option<StmtId> {
        self.nodes[n.index()].stmt
    }

    /// Back edges of a given loop.
    pub fn back_edges_of(&self, l: StmtId) -> &[(NodeId, NodeId)] {
        self.back_edges.get(&l).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Reverse-postorder of nodes (good iteration order for forward
    /// dataflow).
    pub fn rpo(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            let succs = &self.nodes[n.index()].succs;
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(n);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::{Expr, ProgramBuilder};

    #[test]
    fn straight_line() {
        let mut b = ProgramBuilder::new();
        let x = b.real_scalar("x");
        let s1 = b.assign_scalar(x, Expr::real(1.0));
        let s2 = b.assign_scalar(x, Expr::real(2.0));
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let n1 = cfg.node_of(s1);
        let n2 = cfg.node_of(s2);
        assert_eq!(cfg.nodes[cfg.entry.index()].succs, vec![n1]);
        assert_eq!(cfg.nodes[n1.index()].succs, vec![n2]);
        assert_eq!(cfg.nodes[n2.index()].succs, vec![cfg.exit]);
    }

    #[test]
    fn loop_edges_and_back_edge() {
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let x = b.real_scalar("x");
        let mut body_stmt = None;
        let lp = b.do_loop(i, Expr::int(1), Expr::int(4), |b| {
            body_stmt = Some(b.assign_scalar(x, Expr::real(0.0)));
        });
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let h = cfg.node_of(lp);
        let bd = cfg.node_of(body_stmt.unwrap());
        // Header has edges into body and to exit.
        assert!(cfg.nodes[h.index()].succs.contains(&bd));
        assert!(cfg.nodes[h.index()].succs.contains(&cfg.exit));
        // Body flows back to header and this is the loop's back edge.
        assert!(cfg.nodes[bd.index()].succs.contains(&h));
        assert_eq!(cfg.back_edges_of(lp), &[(bd, h)]);
    }

    #[test]
    fn if_else_edges() {
        let mut b = ProgramBuilder::new();
        let x = b.real_scalar("x");
        let y = b.real_scalar("y");
        let mut t = None;
        let mut e = None;
        let iff = b.if_then_else(
            Expr::scalar(x).cmp(hpf_ir::BinOp::Gt, Expr::real(0.0)),
            |b| {
                t = Some(b.assign_scalar(y, Expr::real(1.0)));
            },
            |b| {
                e = Some(b.assign_scalar(y, Expr::real(2.0)));
            },
        );
        let after = b.assign_scalar(x, Expr::real(3.0));
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let ni = cfg.node_of(iff);
        let nt = cfg.node_of(t.unwrap());
        let ne = cfg.node_of(e.unwrap());
        let na = cfg.node_of(after);
        assert!(cfg.nodes[ni.index()].succs.contains(&nt));
        assert!(cfg.nodes[ni.index()].succs.contains(&ne));
        assert_eq!(cfg.nodes[nt.index()].succs, vec![na]);
        assert_eq!(cfg.nodes[ne.index()].succs, vec![na]);
    }

    #[test]
    fn goto_edge_targets_label() {
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let mut g = None;
        let lp = b.do_loop(i, Expr::int(1), Expr::int(4), |b| {
            g = Some(b.goto(100));
        });
        let c = b.continue_label(100);
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let ng = cfg.node_of(g.unwrap());
        let nc = cfg.node_of(c);
        assert_eq!(cfg.nodes[ng.index()].succs, vec![nc]);
        // The goto leaves the loop: no back edge from it.
        assert!(cfg
            .back_edges_of(lp)
            .iter()
            .all(|&(from, _)| from != ng));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let x = b.real_scalar("x");
        b.do_loop(i, Expr::int(1), Expr::int(4), |b| {
            b.assign_scalar(x, Expr::real(0.0));
        });
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], cfg.entry);
        assert_eq!(rpo.len(), cfg.len());
    }

    #[test]
    fn empty_loop_body_self_edge() {
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let lp = b.do_loop(i, Expr::int(1), Expr::int(4), |_| {});
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let h = cfg.node_of(lp);
        assert!(cfg.nodes[h.index()].succs.contains(&h));
        assert_eq!(cfg.back_edges_of(lp), &[(h, h)]);
    }
}
