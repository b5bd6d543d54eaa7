//! The program container: variable table, statement arena, directives, and
//! structural queries (parents, loop nesting) used by every analysis.

use crate::directives::Directives;
use crate::stmt::{Label, Stmt, StmtId, StmtNode};
use crate::types::{VarInfo, VarKind};
use std::collections::HashMap;

/// Index of a variable in the [`VarTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned table of declared variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarTable {
    vars: Vec<VarInfo>,
    by_name: HashMap<String, VarId>,
}

impl VarTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a variable; panics on duplicate names (Fortran would reject
    /// the program too).
    pub fn declare(&mut self, info: VarInfo) -> VarId {
        assert!(
            !self.by_name.contains_key(&info.name),
            "duplicate variable declaration: {}",
            info.name
        );
        let id = VarId(self.vars.len() as u32);
        self.by_name.insert(info.name.clone(), id);
        self.vars.push(info);
        id
    }

    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    pub fn info(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    pub fn name(&self, id: VarId) -> &str {
        &self.vars[id.index()].name
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }

    pub fn arrays(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.iter().filter(|(_, v)| v.is_array())
    }

    pub fn scalars(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.iter().filter(|(_, v)| !v.is_array())
    }
}

/// A whole program: declarations, HPF directives, and a statement arena
/// whose roots are `body`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub vars: VarTable,
    pub directives: Directives,
    nodes: Vec<StmtNode>,
    pub body: Vec<StmtId>,
}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a statement node to the arena (parent links are fixed up by
    /// [`Program::rebuild_topology`]).
    pub fn add_stmt(&mut self, stmt: Stmt) -> StmtId {
        let id = StmtId(self.nodes.len() as u32);
        self.nodes.push(StmtNode::new(stmt));
        id
    }

    pub fn set_label(&mut self, id: StmtId, label: Label) {
        self.nodes[id.index()].label = Some(label);
    }

    pub fn node(&self, id: StmtId) -> &StmtNode {
        &self.nodes[id.index()]
    }

    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.nodes[id.index()].stmt
    }

    pub fn stmt_mut(&mut self, id: StmtId) -> &mut Stmt {
        &mut self.nodes[id.index()].stmt
    }

    pub fn num_stmts(&self) -> usize {
        self.nodes.len()
    }

    /// Recompute parent links from the block structure. Must be called after
    /// construction (the builder and parser do this) and after any structural
    /// mutation.
    pub fn rebuild_topology(&mut self) {
        for n in &mut self.nodes {
            n.parent = None;
        }
        let mut fixups: Vec<(StmtId, StmtId)> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let pid = StmtId(i as u32);
            for block in n.stmt.blocks() {
                for &c in block {
                    fixups.push((c, pid));
                }
            }
        }
        for (child, parent) in fixups {
            self.nodes[child.index()].parent = Some(parent);
        }
    }

    pub fn parent(&self, id: StmtId) -> Option<StmtId> {
        self.nodes[id.index()].parent
    }

    /// All statements in pre-order (a statement before its children),
    /// starting from the program body.
    pub fn preorder(&self) -> Vec<StmtId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        fn rec(p: &Program, block: &[StmtId], out: &mut Vec<StmtId>) {
            for &id in block {
                out.push(id);
                for b in p.stmt(id).blocks() {
                    rec(p, b, out);
                }
            }
        }
        rec(self, &self.body, &mut out);
        out
    }

    /// The chain of enclosing `DO` loops of `id`, outermost first. Does not
    /// include `id` itself even if it is a loop.
    pub fn enclosing_loops(&self, id: StmtId) -> Vec<StmtId> {
        let mut chain = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if self.stmt(p).is_loop() {
                chain.push(p);
            }
            cur = self.parent(p);
        }
        chain.reverse();
        chain
    }

    /// Loop nesting level of a statement: number of enclosing `DO` loops.
    /// The paper numbers the outermost loop as level 1; a statement directly
    /// inside a level-1 loop has `nesting_level == 1`.
    pub fn nesting_level(&self, id: StmtId) -> usize {
        self.enclosing_loops(id).len()
    }

    /// The enclosing loop at a given 1-based level (1 = outermost), if the
    /// statement is that deeply nested.
    pub fn enclosing_loop_at_level(&self, id: StmtId, level: usize) -> Option<StmtId> {
        if level == 0 {
            return None;
        }
        self.enclosing_loops(id).get(level - 1).copied()
    }

    /// The innermost common enclosing loop of two statements, if any, plus
    /// its level.
    pub fn innermost_common_loop(&self, a: StmtId, b: StmtId) -> Option<(StmtId, usize)> {
        let la = self.enclosing_loops(a);
        let lb = self.enclosing_loops(b);
        let mut res = None;
        for (lvl, (x, y)) in la.iter().zip(lb.iter()).enumerate() {
            if x == y {
                res = Some((*x, lvl + 1));
            } else {
                break;
            }
        }
        res
    }

    /// True if `anc` is `id` or a structural ancestor of `id`.
    pub fn is_self_or_ancestor(&self, anc: StmtId, id: StmtId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// The loop variable of a `DO` statement.
    pub fn loop_var(&self, id: StmtId) -> Option<VarId> {
        match self.stmt(id) {
            Stmt::Do { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// The set of variables that are loop indices of some `DO` statement.
    pub fn loop_index_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for id in self.preorder() {
            if let Some(v) = self.loop_var(id) {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Find the statement carrying a given label.
    pub fn find_label(&self, label: Label) -> Option<StmtId> {
        self.nodes
            .iter()
            .position(|n| n.label == Some(label))
            .map(|i| StmtId(i as u32))
    }

    /// All `GOTO` targets transferred to by statement `id` (directly; an `IF`
    /// with GOTOs in its branches reports nothing here — query the GOTOs).
    pub fn goto_target(&self, id: StmtId) -> Option<StmtId> {
        match self.stmt(id) {
            Stmt::Goto(l) => self.find_label(*l),
            _ => None,
        }
    }

    /// Whether `id` (a control-flow statement) can transfer control to a
    /// target outside the body of loop `l`. Used by the paper's Section 4
    /// rule for privatizing control flow. `IF` statements are examined for
    /// `GOTO`s anywhere below them.
    pub fn transfers_outside(&self, id: StmtId, l: StmtId) -> bool {
        debug_assert!(self.stmt(l).is_loop());
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            if let Some(t) = self.goto_target(s) {
                if !self.is_self_or_ancestor(l, t) {
                    return true;
                }
            }
            for b in self.stmt(s).blocks() {
                stack.extend_from_slice(b);
            }
        }
        false
    }

    /// The siblings block containing `id`: the parent's block or the program
    /// body, along with the index of `id` within it.
    pub fn containing_block(&self, id: StmtId) -> (&[StmtId], usize) {
        let block: &[StmtId] = match self.parent(id) {
            None => &self.body,
            Some(p) => {
                let mut found: Option<&[StmtId]> = None;
                // Need a persistent borrow; search parent's blocks.
                let parent_stmt = self.stmt(p);
                for b in parent_stmt.blocks() {
                    if b.contains(&id) {
                        found = Some(b);
                        break;
                    }
                }
                found.expect("statement not found in its parent's blocks")
            }
        };
        let pos = block.iter().position(|&s| s == id).unwrap();
        (block, pos)
    }

    /// Basic structural validation; returns a list of problems (empty if
    /// well-formed). Checked by tests and by the compile driver.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        // Every stmt reachable from body exactly once.
        let pre = self.preorder();
        let mut seen = vec![false; self.nodes.len()];
        for &s in &pre {
            if seen[s.index()] {
                errs.push(format!("statement {:?} appears in two blocks", s));
            }
            seen[s.index()] = true;
        }
        // Array refs have matching rank; vars exist.
        for &s in &pre {
            for e in self.stmt(s).read_exprs() {
                e.walk(&mut |x| {
                    if let crate::expr::Expr::Array(r) = x {
                        let info = self.vars.info(r.array);
                        match &info.kind {
                            VarKind::Array(shape) => {
                                if shape.rank() != r.subs.len() {
                                    errs.push(format!(
                                        "rank mismatch on {}: declared {}, used {}",
                                        info.name,
                                        shape.rank(),
                                        r.subs.len()
                                    ));
                                }
                            }
                            VarKind::Scalar => {
                                errs.push(format!("scalar {} used as array", info.name))
                            }
                        }
                    }
                });
            }
            if let Stmt::Assign {
                lhs: crate::stmt::LValue::Array(r),
                ..
            } = self.stmt(s)
            {
                let info = self.vars.info(r.array);
                if info.rank() != r.subs.len() {
                    errs.push(format!("rank mismatch on lhs {}", info.name));
                }
            }
            if let Stmt::Goto(l) = self.stmt(s) {
                if self.find_label(*l).is_none() {
                    errs.push(format!("GOTO to undefined label {}", l.0));
                }
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::LValue;
    use crate::types::ScalarTy;

    fn tiny() -> (Program, StmtId, StmtId, StmtId) {
        // do i = 1, 10
        //   do j = 1, 10
        //     s = 0
        let mut p = Program::new();
        let i = p.vars.declare(VarInfo::scalar("i", ScalarTy::Int));
        let j = p.vars.declare(VarInfo::scalar("j", ScalarTy::Int));
        let s = p.vars.declare(VarInfo::scalar("s", ScalarTy::Real));
        let asg = p.add_stmt(Stmt::Assign {
            lhs: LValue::Scalar(s),
            rhs: Expr::real(0.0),
        });
        let inner = p.add_stmt(Stmt::Do {
            var: j,
            lo: Expr::int(1),
            hi: Expr::int(10),
            step: Expr::int(1),
            body: vec![asg],
        });
        let outer = p.add_stmt(Stmt::Do {
            var: i,
            lo: Expr::int(1),
            hi: Expr::int(10),
            step: Expr::int(1),
            body: vec![inner],
        });
        p.body = vec![outer];
        p.rebuild_topology();
        (p, outer, inner, asg)
    }

    #[test]
    fn topology_and_levels() {
        let (p, outer, inner, asg) = tiny();
        assert_eq!(p.parent(asg), Some(inner));
        assert_eq!(p.parent(inner), Some(outer));
        assert_eq!(p.parent(outer), None);
        assert_eq!(p.nesting_level(asg), 2);
        assert_eq!(p.nesting_level(inner), 1);
        assert_eq!(p.nesting_level(outer), 0);
        assert_eq!(p.enclosing_loops(asg), vec![outer, inner]);
        assert_eq!(p.enclosing_loop_at_level(asg, 1), Some(outer));
        assert_eq!(p.enclosing_loop_at_level(asg, 2), Some(inner));
        assert_eq!(p.enclosing_loop_at_level(asg, 3), None);
    }

    #[test]
    fn preorder_is_parent_first() {
        let (p, outer, inner, asg) = tiny();
        assert_eq!(p.preorder(), vec![outer, inner, asg]);
    }

    #[test]
    fn common_loop() {
        let (p, outer, inner, asg) = tiny();
        assert_eq!(p.innermost_common_loop(asg, asg), Some((inner, 2)));
        assert_eq!(p.innermost_common_loop(asg, inner), Some((outer, 1)));
        assert_eq!(p.innermost_common_loop(outer, outer), None);
    }

    #[test]
    fn validate_clean_program() {
        let (p, ..) = tiny();
        assert!(p.validate().is_empty());
    }

    #[test]
    fn labels_and_gotos() {
        let mut p = Program::new();
        let g = p.add_stmt(Stmt::Goto(Label(100)));
        let c = p.add_stmt(Stmt::Continue);
        p.set_label(c, Label(100));
        p.body = vec![g, c];
        p.rebuild_topology();
        assert_eq!(p.find_label(Label(100)), Some(c));
        assert_eq!(p.goto_target(g), Some(c));
        assert!(p.validate().is_empty());
    }

    #[test]
    fn goto_outside_loop_detected() {
        // do i: { if (..) goto 100 }  ; 100 continue (outside loop)
        let mut p = Program::new();
        let i = p.vars.declare(VarInfo::scalar("i", ScalarTy::Int));
        let g = p.add_stmt(Stmt::Goto(Label(100)));
        let iff = p.add_stmt(Stmt::If {
            cond: Expr::BoolLit(true),
            then_body: vec![g],
            else_body: vec![],
        });
        let lp = p.add_stmt(Stmt::Do {
            var: i,
            lo: Expr::int(1),
            hi: Expr::int(4),
            step: Expr::int(1),
            body: vec![iff],
        });
        let c = p.add_stmt(Stmt::Continue);
        p.set_label(c, Label(100));
        p.body = vec![lp, c];
        p.rebuild_topology();
        assert!(p.transfers_outside(iff, lp));

        // Now a goto to a label inside the loop does not escape.
        let mut p2 = Program::new();
        let i2 = p2.vars.declare(VarInfo::scalar("i", ScalarTy::Int));
        let g2 = p2.add_stmt(Stmt::Goto(Label(10)));
        let c2 = p2.add_stmt(Stmt::Continue);
        p2.set_label(c2, Label(10));
        let lp2 = p2.add_stmt(Stmt::Do {
            var: i2,
            lo: Expr::int(1),
            hi: Expr::int(4),
            step: Expr::int(1),
            body: vec![g2, c2],
        });
        p2.body = vec![lp2];
        p2.rebuild_topology();
        assert!(!p2.transfers_outside(g2, lp2));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_declare_panics() {
        let mut t = VarTable::new();
        t.declare(VarInfo::scalar("x", ScalarTy::Int));
        t.declare(VarInfo::scalar("x", ScalarTy::Real));
    }
}
