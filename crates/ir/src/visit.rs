//! Program walkers used by the analyses: enumerate statements with their
//! reads/writes, collect references per variable, etc.

use crate::expr::Expr;
use crate::program::{Program, VarId};
use crate::stmt::{LValue, Stmt, StmtId};

/// A read reference site: which statement, and whether the read occurs in a
/// subscript position of some array reference (relevant for the paper's
/// consumer-reference rules) or in a loop-bound/condition position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadCtx {
    /// Ordinary value position on the RHS of an assignment.
    Rhs,
    /// Inside a subscript of an RHS array reference.
    RhsSubscript,
    /// Inside a subscript of the LHS array reference.
    LhsSubscript,
    /// In a DO-loop bound or step expression.
    LoopBound,
    /// In the condition of an IF.
    Condition,
}

/// One scalar read occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarRead {
    pub stmt: StmtId,
    pub var: VarId,
    pub ctx: ReadCtx,
}

/// Collect every scalar read in the program with its context.
pub fn scalar_reads(p: &Program) -> Vec<ScalarRead> {
    let mut out = Vec::new();
    for id in p.preorder() {
        collect_stmt_scalar_reads(p.stmt(id), id, &mut out);
    }
    out
}

fn collect_expr(e: &Expr, stmt: StmtId, top: ReadCtx, out: &mut Vec<ScalarRead>) {
    match e {
        Expr::Scalar(v) => out.push(ScalarRead {
            stmt,
            var: *v,
            ctx: top,
        }),
        Expr::Array(r) => {
            for s in &r.subs {
                let sub_ctx = match top {
                    ReadCtx::LhsSubscript => ReadCtx::LhsSubscript,
                    _ => ReadCtx::RhsSubscript,
                };
                collect_expr(s, stmt, sub_ctx, out);
            }
        }
        Expr::Unary(_, x) => collect_expr(x, stmt, top, out),
        Expr::Binary(_, a, b) => {
            collect_expr(a, stmt, top, out);
            collect_expr(b, stmt, top, out);
        }
        Expr::Intrinsic(_, args) => {
            for a in args {
                collect_expr(a, stmt, top, out);
            }
        }
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) => {}
    }
}

/// Collect scalar reads of a single statement (not its children).
pub fn collect_stmt_scalar_reads(st: &Stmt, id: StmtId, out: &mut Vec<ScalarRead>) {
    match st {
        Stmt::Assign { lhs, rhs } => {
            collect_expr(rhs, id, ReadCtx::Rhs, out);
            if let LValue::Array(r) = lhs {
                for s in &r.subs {
                    collect_expr(s, id, ReadCtx::LhsSubscript, out);
                }
            }
        }
        Stmt::Do { lo, hi, step, .. } => {
            collect_expr(lo, id, ReadCtx::LoopBound, out);
            collect_expr(hi, id, ReadCtx::LoopBound, out);
            collect_expr(step, id, ReadCtx::LoopBound, out);
        }
        Stmt::If { cond, .. } => collect_expr(cond, id, ReadCtx::Condition, out),
        Stmt::Goto(_) | Stmt::Continue => {}
    }
}

/// All statements assigning to the given variable.
pub fn defs_of(p: &Program, var: VarId) -> Vec<StmtId> {
    p.preorder()
        .into_iter()
        .filter(|&id| p.stmt(id).written_var() == Some(var))
        .collect()
}

/// All statements reading the given scalar variable (any context).
pub fn uses_of_scalar(p: &Program, var: VarId) -> Vec<StmtId> {
    let mut out: Vec<StmtId> = Vec::new();
    for r in scalar_reads(p) {
        if r.var == var && !out.contains(&r.stmt) {
            out.push(r.stmt);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::expr::Expr;

    #[test]
    fn read_contexts() {
        let mut b = ProgramBuilder::new();
        let a = b.real_array("A", &[10]);
        let d = b.real_array("D", &[10]);
        let i = b.int_scalar("i");
        let m = b.int_scalar("m");
        let x = b.real_scalar("x");
        // do i = 1, 10 { D(m) = x / A(i) }
        b.do_loop(i, Expr::int(1), Expr::int(10), |b| {
            b.assign_array(
                d,
                vec![Expr::scalar(m)],
                Expr::scalar(x).div(Expr::array(a, vec![Expr::scalar(i)])),
            );
        });
        let p = b.finish();
        let reads = scalar_reads(&p);
        let m_read = reads.iter().find(|r| r.var == m).unwrap();
        assert_eq!(m_read.ctx, ReadCtx::LhsSubscript);
        let x_read = reads.iter().find(|r| r.var == x).unwrap();
        assert_eq!(x_read.ctx, ReadCtx::Rhs);
        let i_read = reads.iter().find(|r| r.var == i).unwrap();
        assert_eq!(i_read.ctx, ReadCtx::RhsSubscript);
    }

    #[test]
    fn defs_and_uses() {
        let mut b = ProgramBuilder::new();
        let s = b.real_scalar("s");
        let t = b.real_scalar("t");
        b.assign_scalar(s, Expr::real(1.0));
        b.assign_scalar(t, Expr::scalar(s));
        let p = b.finish();
        assert_eq!(defs_of(&p, s).len(), 1);
        assert_eq!(uses_of_scalar(&p, s).len(), 1);
        assert_eq!(defs_of(&p, t).len(), 1);
        assert!(uses_of_scalar(&p, t).is_empty());
    }
}
