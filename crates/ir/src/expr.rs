//! Expressions: literals, scalar and array references, operators,
//! intrinsics.

use crate::program::VarId;
use std::fmt;

/// Binary operators. Comparison operators yield `LOGICAL` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Fortran-ish spelling used by the pretty printer / parser.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "**",
            BinOp::Eq => "==",
            BinOp::Ne => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => ".AND.",
            BinOp::Or => ".OR.",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Intrinsic functions appearing in the benchmark kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Abs,
    Sqrt,
    Exp,
    Max,
    Min,
    Mod,
    /// `SIGN(a, b)` — magnitude of `a` with the sign of `b`.
    Sign,
}

impl Intrinsic {
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Abs => "ABS",
            Intrinsic::Sqrt => "SQRT",
            Intrinsic::Exp => "EXP",
            Intrinsic::Max => "MAX",
            Intrinsic::Min => "MIN",
            Intrinsic::Mod => "MOD",
            Intrinsic::Sign => "SIGN",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Abs | Intrinsic::Sqrt | Intrinsic::Exp => 1,
            Intrinsic::Max | Intrinsic::Min | Intrinsic::Mod | Intrinsic::Sign => 2,
        }
    }

    pub fn from_name(s: &str) -> Option<Intrinsic> {
        Some(match s.to_ascii_uppercase().as_str() {
            "ABS" => Intrinsic::Abs,
            "SQRT" => Intrinsic::Sqrt,
            "EXP" => Intrinsic::Exp,
            "MAX" => Intrinsic::Max,
            "MIN" => Intrinsic::Min,
            "MOD" => Intrinsic::Mod,
            "SIGN" => Intrinsic::Sign,
            _ => return None,
        })
    }
}

/// An array element reference `A(s1, ..., sk)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    pub array: VarId,
    pub subs: Vec<Expr>,
}

impl ArrayRef {
    pub fn new(array: VarId, subs: Vec<Expr>) -> Self {
        ArrayRef { array, subs }
    }

    pub fn rank(&self) -> usize {
        self.subs.len()
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64),
    RealLit(f64),
    BoolLit(bool),
    /// Read of a scalar variable (loop indices are integer scalars).
    Scalar(VarId),
    /// Read of an array element.
    Array(ArrayRef),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Intrinsic(Intrinsic, Vec<Expr>),
}

impl Expr {
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    pub fn real(v: f64) -> Expr {
        Expr::RealLit(v)
    }

    pub fn scalar(v: VarId) -> Expr {
        Expr::Scalar(v)
    }

    pub fn array(a: VarId, subs: Vec<Expr>) -> Expr {
        Expr::Array(ArrayRef::new(a, subs))
    }

    // Builder methods, deliberately named like the operator traits: call
    // sites read as expression algebra without requiring `use std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }

    pub fn cmp(self, op: BinOp, rhs: Expr) -> Expr {
        debug_assert!(op.is_comparison() || op.is_logical());
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// If this is an integer literal, its value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            _ => None,
        }
    }

    /// All scalar variables read anywhere in this expression (including in
    /// array subscripts), in source order, possibly with duplicates.
    pub fn scalar_reads(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Scalar(v) = e {
                out.push(*v);
            }
        });
        out
    }

    /// All array references anywhere in this expression, in source order.
    pub fn array_refs(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.walk_refs(&mut |r| out.push(r));
        out
    }

    /// Pre-order walk over all sub-expressions, including subscripts.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) | Expr::Scalar(_) => {}
            Expr::Array(r) => {
                for s in &r.subs {
                    s.walk(f);
                }
            }
            Expr::Unary(_, e) => e.walk(f),
            Expr::Binary(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Intrinsic(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    fn walk_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        self.walk(&mut |e| {
            if let Expr::Array(r) = e {
                f(r);
            }
        });
    }

    /// Substitute every read of scalar `var` by `repl` (used by induction
    /// variable closed-form substitution).
    pub fn substitute_scalar(&self, var: VarId, repl: &Expr) -> Expr {
        match self {
            Expr::Scalar(v) if *v == var => repl.clone(),
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) | Expr::Scalar(_) => {
                self.clone()
            }
            Expr::Array(r) => Expr::Array(ArrayRef {
                array: r.array,
                subs: r
                    .subs
                    .iter()
                    .map(|s| s.substitute_scalar(var, repl))
                    .collect(),
            }),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.substitute_scalar(var, repl))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute_scalar(var, repl)),
                Box::new(b.substitute_scalar(var, repl)),
            ),
            Expr::Intrinsic(i, args) => Expr::Intrinsic(
                *i,
                args.iter().map(|a| a.substitute_scalar(var, repl)).collect(),
            ),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn scalar_reads_include_subscripts() {
        // B(i) + x
        let e = Expr::array(v(0), vec![Expr::scalar(v(1))]).add(Expr::scalar(v(2)));
        assert_eq!(e.scalar_reads(), vec![v(1), v(2)]);
    }

    #[test]
    fn array_refs_found_nested() {
        // A(B(i))
        let inner = Expr::array(v(1), vec![Expr::scalar(v(2))]);
        let e = Expr::array(v(0), vec![inner]);
        let refs = e.array_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].array, v(0));
        assert_eq!(refs[1].array, v(1));
    }

    #[test]
    fn substitution_replaces_in_subscripts() {
        // m + A(m)  with m := i + 1
        let repl = Expr::scalar(v(9)).add(Expr::int(1));
        let e = Expr::scalar(v(3)).add(Expr::array(v(0), vec![Expr::scalar(v(3))]));
        let out = e.substitute_scalar(v(3), &repl);
        assert_eq!(out.scalar_reads(), vec![v(9), v(9)]);
    }

    #[test]
    fn intrinsic_roundtrip() {
        for i in [
            Intrinsic::Abs,
            Intrinsic::Sqrt,
            Intrinsic::Exp,
            Intrinsic::Max,
            Intrinsic::Min,
            Intrinsic::Mod,
            Intrinsic::Sign,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("FOO"), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Le.is_logical());
    }
}
