//! Statements: assignments, `DO` loops, `IF`, `GOTO`, labelled `CONTINUE`.

use crate::expr::{ArrayRef, Expr};
use crate::program::VarId;

/// Index of a statement in the [`crate::Program`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl StmtId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A Fortran numeric statement label (target of `GOTO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// Left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    Scalar(VarId),
    Array(ArrayRef),
}

impl LValue {
    pub fn var(&self) -> VarId {
        match self {
            LValue::Scalar(v) => *v,
            LValue::Array(r) => r.array,
        }
    }
}

/// Statement kinds. Block-structured statements hold the [`StmtId`]s of
/// their children; the arena in [`crate::Program`] owns all nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs`
    Assign { lhs: LValue, rhs: Expr },
    /// `DO var = lo, hi, step ... END DO`
    Do {
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: Expr,
        body: Vec<StmtId>,
    },
    /// `IF (cond) THEN ... ELSE ... END IF`
    If {
        cond: Expr,
        then_body: Vec<StmtId>,
        else_body: Vec<StmtId>,
    },
    /// `GOTO label`
    Goto(Label),
    /// A labelled `CONTINUE` (no-op jump target).
    Continue,
}

impl Stmt {
    pub fn is_assign(&self) -> bool {
        matches!(self, Stmt::Assign { .. })
    }

    pub fn is_loop(&self) -> bool {
        matches!(self, Stmt::Do { .. })
    }

    /// Child statement blocks, in order.
    pub fn blocks(&self) -> Vec<&[StmtId]> {
        match self {
            Stmt::Do { body, .. } => vec![body],
            Stmt::If {
                then_body,
                else_body,
                ..
            } => vec![then_body, else_body],
            _ => vec![],
        }
    }

    /// All expressions read by this statement, in evaluation order:
    /// the RHS (and LHS subscripts) of an assignment, loop bounds, or the
    /// condition of an `IF`.
    pub fn read_exprs(&self) -> Vec<&Expr> {
        match self {
            Stmt::Assign { lhs, rhs } => {
                let mut v = vec![rhs];
                if let LValue::Array(r) = lhs {
                    v.extend(r.subs.iter());
                }
                v
            }
            Stmt::Do { lo, hi, step, .. } => vec![lo, hi, step],
            Stmt::If { cond, .. } => vec![cond],
            Stmt::Goto(_) | Stmt::Continue => vec![],
        }
    }

    /// The variable written by this statement, if it is an assignment.
    pub fn written_var(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { lhs, .. } => Some(lhs.var()),
            // The loop variable is written by the DO statement itself.
            Stmt::Do { var, .. } => Some(*var),
            _ => None,
        }
    }
}

/// An arena node: a statement plus its optional label and its parent link
/// (filled in by [`crate::Program::rebuild_topology`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StmtNode {
    pub stmt: Stmt,
    pub label: Option<Label>,
    /// Parent statement, `None` for top-level statements.
    pub parent: Option<StmtId>,
}

impl StmtNode {
    pub fn new(stmt: Stmt) -> Self {
        StmtNode {
            stmt,
            label: None,
            parent: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvalue_var_extraction() {
        let s = LValue::Scalar(VarId(3));
        assert_eq!(s.var(), VarId(3));
        let a = LValue::Array(ArrayRef::new(VarId(7), vec![Expr::int(1)]));
        assert_eq!(a.var(), VarId(7));
    }

    #[test]
    fn read_exprs_of_assign_include_lhs_subscripts() {
        let lhs = LValue::Array(ArrayRef::new(VarId(0), vec![Expr::scalar(VarId(1))]));
        let st = Stmt::Assign {
            lhs,
            rhs: Expr::int(0),
        };
        assert_eq!(st.read_exprs().len(), 2);
    }

    #[test]
    fn blocks_of_if() {
        let st = Stmt::If {
            cond: Expr::BoolLit(true),
            then_body: vec![StmtId(1)],
            else_body: vec![],
        };
        let b = st.blocks();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], &[StmtId(1)]);
        assert!(b[1].is_empty());
    }
}
