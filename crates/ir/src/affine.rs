//! Affine forms `c0 + Σ c_v · v` over integer scalar variables, and
//! recognition of affine expressions.
//!
//! The paper's subscript analysis (`SubscriptAlignLevel`, dependence tests,
//! ownership of references) operates on affine subscript functions of loop
//! indices; everything else is treated symbolically.

use crate::expr::{BinOp, Expr, UnOp};
use crate::program::VarId;
use std::collections::BTreeMap;
use std::fmt;

/// An affine integer form: constant plus integer-coefficient terms over
/// variables. Terms with zero coefficient are never stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    pub c0: i64,
    pub terms: BTreeMap<VarId, i64>,
}

impl Affine {
    pub fn constant(c: i64) -> Self {
        Affine {
            c0: c,
            terms: BTreeMap::new(),
        }
    }

    pub fn var(v: VarId) -> Self {
        let mut t = BTreeMap::new();
        t.insert(v, 1);
        Affine { c0: 0, terms: t }
    }

    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn as_const(&self) -> Option<i64> {
        if self.is_const() {
            Some(self.c0)
        } else {
            None
        }
    }

    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    pub fn depends_on(&self, v: VarId) -> bool {
        self.coeff(v) != 0
    }

    /// Variables with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.keys().copied()
    }

    pub fn add(&self, o: &Affine) -> Affine {
        let mut r = self.clone();
        r.c0 += o.c0;
        for (&v, &c) in &o.terms {
            let e = r.terms.entry(v).or_insert(0);
            *e += c;
            if *e == 0 {
                r.terms.remove(&v);
            }
        }
        r
    }

    pub fn sub(&self, o: &Affine) -> Affine {
        self.add(&o.scale(-1))
    }

    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            c0: self.c0 * k,
            terms: self.terms.iter().map(|(&v, &c)| (v, c * k)).collect(),
        }
    }

    /// Evaluate under an environment giving values for all variables that
    /// occur. Returns `None` if some variable is missing.
    pub fn eval(&self, env: &dyn Fn(VarId) -> Option<i64>) -> Option<i64> {
        let mut acc = self.c0;
        for (&v, &c) in &self.terms {
            acc += c * env(v)?;
        }
        Some(acc)
    }

    /// Substitute an affine form for a variable.
    pub fn substitute(&self, v: VarId, repl: &Affine) -> Affine {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut base = self.clone();
        base.terms.remove(&v);
        base.add(&repl.scale(c))
    }

    /// Attempt to recognize `e` as an affine form. `Mul` is accepted only
    /// when one side reduces to a constant; `Div`, intrinsics, reals and
    /// array reads make the expression non-affine.
    pub fn from_expr(e: &Expr) -> Option<Affine> {
        match e {
            Expr::IntLit(v) => Some(Affine::constant(*v)),
            Expr::Scalar(v) => Some(Affine::var(*v)),
            Expr::Unary(UnOp::Neg, x) => Some(Affine::from_expr(x)?.scale(-1)),
            Expr::Binary(BinOp::Add, a, b) => {
                Some(Affine::from_expr(a)?.add(&Affine::from_expr(b)?))
            }
            Expr::Binary(BinOp::Sub, a, b) => {
                Some(Affine::from_expr(a)?.sub(&Affine::from_expr(b)?))
            }
            Expr::Binary(BinOp::Mul, a, b) => {
                let fa = Affine::from_expr(a)?;
                let fb = Affine::from_expr(b)?;
                if let Some(k) = fa.as_const() {
                    Some(fb.scale(k))
                } else {
                    fb.as_const().map(|k| fa.scale(k))
                }
            }
            _ => None,
        }
    }

    /// Render back to an expression tree (used by induction-variable
    /// closed-form substitution).
    pub fn to_expr(&self) -> Expr {
        let mut acc: Option<Expr> = if self.c0 != 0 || self.terms.is_empty() {
            Some(Expr::int(self.c0))
        } else {
            None
        };
        for (&v, &c) in &self.terms {
            let term = if c == 1 {
                Expr::scalar(v)
            } else {
                Expr::int(c).mul(Expr::scalar(v))
            };
            acc = Some(match acc {
                None => term,
                Some(a) => a.add(term),
            });
        }
        acc.unwrap()
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.c0)?;
        for (v, c) in &self.terms {
            write!(f, " + {}*v{}", c, v.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn recognize_basic_forms() {
        // 2*i + j - 3
        let e = Expr::int(2)
            .mul(Expr::scalar(v(0)))
            .add(Expr::scalar(v(1)))
            .sub(Expr::int(3));
        let a = Affine::from_expr(&e).unwrap();
        assert_eq!(a.c0, -3);
        assert_eq!(a.coeff(v(0)), 2);
        assert_eq!(a.coeff(v(1)), 1);
    }

    #[test]
    fn reject_nonaffine() {
        let e = Expr::scalar(v(0)).mul(Expr::scalar(v(1)));
        assert!(Affine::from_expr(&e).is_none());
        let e2 = Expr::array(v(2), vec![Expr::int(1)]);
        assert!(Affine::from_expr(&e2).is_none());
        let e3 = Expr::scalar(v(0)).div(Expr::int(2));
        assert!(Affine::from_expr(&e3).is_none());
    }

    #[test]
    fn cancel_to_constant() {
        // i - i + 5
        let e = Expr::scalar(v(0)).sub(Expr::scalar(v(0))).add(Expr::int(5));
        let a = Affine::from_expr(&e).unwrap();
        assert_eq!(a.as_const(), Some(5));
    }

    #[test]
    fn eval_and_substitute() {
        let a = Affine::var(v(0)).scale(3).add(&Affine::constant(1)); // 3i + 1
        assert_eq!(a.eval(&|x| if x == v(0) { Some(4) } else { None }), Some(13));
        assert_eq!(a.eval(&|_| None), None);

        // substitute i := j + 2   =>  3j + 7
        let r = Affine::var(v(1)).add(&Affine::constant(2));
        let s = a.substitute(v(0), &r);
        assert_eq!(s.c0, 7);
        assert_eq!(s.coeff(v(1)), 3);
        assert_eq!(s.coeff(v(0)), 0);
    }

    #[test]
    fn to_expr_roundtrip() {
        let a = Affine {
            c0: -2,
            terms: [(v(0), 3), (v(1), -1)].into_iter().collect(),
        };
        let back = Affine::from_expr(&a.to_expr()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn zero_coeff_never_stored() {
        let a = Affine::var(v(0)).sub(&Affine::var(v(0)));
        assert!(a.terms.is_empty());
        let b = Affine::var(v(0)).scale(0);
        assert!(b.terms.is_empty());
    }
}
