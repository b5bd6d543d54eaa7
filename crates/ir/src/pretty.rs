//! Pretty-printer: renders a [`Program`] back to the mini-HPF text DSL
//! accepted by [`crate::parse`].

use crate::directives::{AlignDim, DistFormat};
use crate::expr::{BinOp, Expr, UnOp};
use crate::program::Program;
use crate::stmt::{LValue, Stmt, StmtId};
use crate::types::VarKind;
use std::fmt::Write;

/// Render a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    // Directives first.
    if let Some(g) = &p.directives.grid {
        let dims: Vec<String> = g.dims.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(out, "!HPF$ PROCESSORS {}({})", g.name, dims.join(","));
    }
    for d in &p.directives.distributes {
        let fmts: Vec<String> = d
            .formats
            .iter()
            .map(|f| match f {
                DistFormat::Block => "BLOCK".to_string(),
                DistFormat::Cyclic => "CYCLIC".to_string(),
                DistFormat::BlockCyclic(k) => format!("CYCLIC({})", k),
                DistFormat::Collapsed => "*".to_string(),
            })
            .collect();
        let _ = writeln!(
            out,
            "!HPF$ DISTRIBUTE ({}) :: {}",
            fmts.join(","),
            p.vars.name(d.array)
        );
    }
    for a in &p.directives.aligns {
        let alignee_rank = p.vars.info(a.alignee).rank().max(1);
        let src: Vec<String> = (0..alignee_rank).map(dummy_index_name).collect();
        let tgt: Vec<String> = a
            .dims
            .iter()
            .map(|d| match d {
                AlignDim::Match {
                    alignee_dim,
                    stride,
                    offset,
                } => {
                    let base = dummy_index_name(*alignee_dim);
                    let mut s = if *stride == 1 {
                        base
                    } else {
                        format!("{}*{}", stride, base)
                    };
                    if *offset > 0 {
                        s = format!("{}+{}", s, offset);
                    } else if *offset < 0 {
                        s = format!("{}{}", s, offset);
                    }
                    s
                }
                AlignDim::Replicate => "*".to_string(),
                AlignDim::Const(c) => c.to_string(),
            })
            .collect();
        let _ = writeln!(
            out,
            "!HPF$ ALIGN {}({}) WITH {}({})",
            p.vars.name(a.alignee),
            src.join(","),
            p.vars.name(a.target),
            tgt.join(",")
        );
    }
    // Declarations.
    for (_, v) in p.vars.iter() {
        match &v.kind {
            VarKind::Scalar => {
                let _ = writeln!(out, "{} {}", v.ty.name(), v.name);
            }
            VarKind::Array(shape) => {
                let dims: Vec<String> = shape
                    .dims
                    .iter()
                    .map(|&(lo, hi)| {
                        if lo == 1 {
                            hi.to_string()
                        } else {
                            format!("{}:{}", lo, hi)
                        }
                    })
                    .collect();
                let _ = writeln!(out, "{} {}({})", v.ty.name(), v.name, dims.join(","));
            }
        }
    }
    for &s in &p.body {
        print_stmt(p, s, 0, &mut out);
    }
    out
}

fn dummy_index_name(d: usize) -> String {
    const NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];
    if d < NAMES.len() {
        format!("_{}", NAMES[d])
    } else {
        format!("_d{}", d)
    }
}

/// Render one statement subtree at the given indent.
pub fn print_stmt(p: &Program, id: StmtId, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let node = p.node(id);
    let label = node
        .label
        .map(|l| format!("{} ", l.0))
        .unwrap_or_default();
    // INDEPENDENT directive on loops is printed above the loop.
    if let Some(info) = p.directives.independent_of(id) {
        if info.independent {
            let news: Vec<&str> = info.new_vars.iter().map(|&v| p.vars.name(v)).collect();
            if news.is_empty() {
                let _ = writeln!(out, "{}!HPF$ INDEPENDENT", pad);
            } else {
                let _ = writeln!(out, "{}!HPF$ INDEPENDENT, NEW({})", pad, news.join(","));
            }
        }
        if info.no_value_deps {
            let _ = writeln!(out, "{}!HPF$ NO_VALUE_DEPS", pad);
        }
    }
    let _ = writeln!(out, "{}{}{}", pad, label, stmt_text(p, id));
    match &node.stmt {
        Stmt::Do { body, .. } => {
            for &s in body {
                print_stmt(p, s, indent + 1, out);
            }
            let _ = writeln!(out, "{}END DO", pad);
        }
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            for &s in then_body {
                print_stmt(p, s, indent + 1, out);
            }
            if !else_body.is_empty() {
                let _ = writeln!(out, "{}ELSE", pad);
                for &s in else_body {
                    print_stmt(p, s, indent + 1, out);
                }
            }
            let _ = writeln!(out, "{}END IF", pad);
        }
        Stmt::Assign { .. } | Stmt::Goto(_) | Stmt::Continue => {}
    }
}

/// The statement's own line, without its label or body: `a(i,j) = 1.0`,
/// `DO i = 1, n, 2` (the step only when it is not 1), `IF (c) THEN`,
/// `GOTO 10`, `CONTINUE`. Diagnostics, run-time faults and the compile
/// report name statements by it.
pub fn stmt_text(p: &Program, s: StmtId) -> String {
    match p.stmt(s) {
        Stmt::Assign { lhs, rhs } => {
            let l = match lhs {
                LValue::Scalar(v) => p.vars.name(*v).to_string(),
                LValue::Array(r) => {
                    let subs: Vec<String> = r.subs.iter().map(|e| print_expr(p, e)).collect();
                    format!("{}({})", p.vars.name(r.array), subs.join(","))
                }
            };
            format!("{} = {}", l, print_expr(p, rhs))
        }
        Stmt::Do {
            var, lo, hi, step, ..
        } => {
            let mut out = format!(
                "DO {} = {}, {}",
                p.vars.name(*var),
                print_expr(p, lo),
                print_expr(p, hi)
            );
            if step.as_int() != Some(1) {
                let _ = write!(out, ", {}", print_expr(p, step));
            }
            out
        }
        Stmt::If { cond, .. } => format!("IF ({}) THEN", print_expr(p, cond)),
        Stmt::Goto(l) => format!("GOTO {}", l.0),
        Stmt::Continue => "CONTINUE".to_string(),
    }
}

/// Render an expression.
pub fn print_expr(p: &Program, e: &Expr) -> String {
    match e {
        Expr::IntLit(v) => v.to_string(),
        Expr::RealLit(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{:.1}", v)
            } else {
                format!("{}", v)
            }
        }
        Expr::BoolLit(b) => if *b { ".TRUE." } else { ".FALSE." }.to_string(),
        Expr::Scalar(v) => p.vars.name(*v).to_string(),
        Expr::Array(r) => format!(
            "{}({})",
            p.vars.name(r.array),
            r.subs
                .iter()
                .map(|s| print_expr(p, s))
                .collect::<Vec<_>>()
                .join(",")
        ),
        Expr::Unary(UnOp::Neg, x) => format!("(-{})", print_expr(p, x)),
        Expr::Unary(UnOp::Not, x) => format!(".NOT. {}", print_expr(p, x)),
        Expr::Binary(op, a, b) => {
            let mut sa = print_expr(p, a);
            let mut sb = print_expr(p, b);
            if needs_parens(a, *op) {
                sa = format!("({})", sa);
            }
            // Parenthesize the right child at equal precedence too, so that
            // `a - (b - c)` round-trips.
            if needs_parens(b, *op) || matches!(&**b, Expr::Binary(c, ..) if prec(*c) == prec(*op))
            {
                sb = format!("({})", sb);
            }
            let s = format!("{} {} {}", sa, op.symbol(), sb);
            if op.is_comparison() || op.is_logical() {
                format!("({})", s)
            } else {
                s
            }
        }
        Expr::Intrinsic(i, args) => format!(
            "{}({})",
            i.name(),
            args.iter()
                .map(|a| print_expr(p, a))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn needs_parens(child: &Expr, parent_op: BinOp) -> bool {
    match child {
        Expr::Binary(c, ..) => prec(*c) < prec(parent_op),
        _ => false,
    }
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
        BinOp::Pow => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn prints_loop_nest() {
        let p = parse_program(
            "!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(8)
INTEGER i
!HPF$ INDEPENDENT
DO i = 2, 7
  A(i) = A(i-1) + 1.0
END DO",
        )
        .unwrap();
        let s = print_program(&p);
        assert!(s.contains("!HPF$ PROCESSORS p(4)"), "got: {}", s);
        assert!(s.contains("!HPF$ DISTRIBUTE (BLOCK) :: a"));
        assert!(s.contains("!HPF$ INDEPENDENT"));
        assert!(s.contains("DO i = 2, 7"));
        assert!(s.contains("a(i) = a(i - 1) + 1.0"));
        assert!(s.contains("END DO"));
    }

    /// One line per statement, without label, body or the directives
    /// `print_stmt` puts above a loop; a DO's step shows when it is not 1.
    #[test]
    fn stmt_text_is_the_header_line() {
        let p = parse_program(
            "REAL A(10)\nINTEGER i\n!HPF$ INDEPENDENT\nDO i = 10, 1, -3\n  A(i) = A(i) + 1.0\nEND DO\n\
             DO i = 1, 10\n  IF (i > 2) THEN\n    GOTO 10\n  END IF\nEND DO\n10 CONTINUE\n",
        )
        .unwrap();
        let texts: Vec<String> = p.preorder().iter().map(|&s| stmt_text(&p, s)).collect();
        for want in [
            "DO i = 10, 1, (-3)",
            "a(i) = a(i) + 1.0",
            "DO i = 1, 10",
            "IF ((i > 2)) THEN",
            "GOTO 10",
            "CONTINUE",
        ] {
            assert!(
                texts.iter().any(|t| t == want),
                "no {:?} in {:?}",
                want,
                texts
            );
        }
    }

    #[test]
    fn parenthesization() {
        let p = parse_program("REAL x, y\nx = (x + y) * x").unwrap();
        let s = print_program(&p);
        assert!(s.contains("x = (x + y) * x"), "got: {}", s);
    }
}
