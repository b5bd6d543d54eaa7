//! Forward constant propagation for scalars.
//!
//! A straightforward dense fixpoint over the CFG with the usual three-level
//! lattice (unknown ⊤ / constant / not-a-constant ⊥). The induction-variable
//! analysis queries the constant value of a variable at a loop's entry
//! (preheader edges only), and expression folding is reused wherever the
//! compiler needs to evaluate bounds.

use crate::cfg::Cfg;
use hpf_ir::{BinOp, Expr, Intrinsic, Program, Stmt, StmtId, UnOp, Value, VarId};

/// Lattice element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CVal {
    /// No information yet (optimistic top).
    Top,
    Const(Value),
    /// Not a constant.
    Nac,
}

impl CVal {
    fn meet(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Top, x) | (x, CVal::Top) => x,
            (CVal::Const(a), CVal::Const(b)) if a == b => CVal::Const(a),
            _ => CVal::Nac,
        }
    }
}

type Env = Vec<CVal>;

/// Constant-propagation solution: lattice value per variable at each node
/// entry.
#[derive(Debug, Clone)]
pub struct ConstProp {
    in_envs: Vec<Env>,
    nvars: usize,
}

impl ConstProp {
    pub fn compute(p: &Program, cfg: &Cfg) -> ConstProp {
        let nvars = p.vars.len();
        let nn = cfg.len();
        let mut in_envs: Vec<Env> = vec![vec![CVal::Top; nvars]; nn];
        let mut out_envs: Vec<Env> = vec![vec![CVal::Top; nvars]; nn];
        // At program entry everything is unknown-but-fixed: our interpreter
        // zero-initializes, but we stay conservative (NAC) so the analysis
        // never invents values the source did not compute.
        in_envs[cfg.entry.index()] = vec![CVal::Nac; nvars];
        out_envs[cfg.entry.index()] = vec![CVal::Nac; nvars];

        let rpo = cfg.rpo();
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &rpo {
                if n == cfg.entry {
                    continue;
                }
                let ni = n.index();
                let mut newin = vec![CVal::Top; nvars];
                for &pr in &cfg.nodes[ni].preds {
                    for v in 0..nvars {
                        newin[v] = newin[v].meet(out_envs[pr.index()][v]);
                    }
                }
                let mut newout = newin.clone();
                if let Some(s) = cfg.stmt_of(n) {
                    transfer(p, s, &newin, &mut newout);
                }
                if newin != in_envs[ni] {
                    in_envs[ni] = newin;
                    changed = true;
                }
                if newout != out_envs[ni] {
                    out_envs[ni] = newout;
                    changed = true;
                }
            }
        }
        ConstProp { in_envs, nvars }
    }

    /// Constant value of `var` at entry to `stmt`, if known.
    pub fn const_at(&self, cfg: &Cfg, stmt: StmtId, var: VarId) -> Option<Value> {
        match self.in_envs[cfg.node_of(stmt).index()][var.index()] {
            CVal::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Constant value of `var` on entry to loop `l` considering only
    /// preheader edges (back edges excluded): the value the variable holds
    /// when the loop starts.
    pub fn const_at_loop_entry(
        &self,
        p: &Program,
        cfg: &Cfg,
        l: StmtId,
        var: VarId,
    ) -> Option<Value> {
        let header = cfg.node_of(l);
        let backs = cfg.back_edges_of(l);
        let mut acc = CVal::Top;
        for &pr in &cfg.nodes[header.index()].preds {
            if backs.contains(&(pr, header)) {
                continue;
            }
            // Out-value of the predecessor = its in-value plus transfer.
            let mut env = self.in_envs[pr.index()].clone();
            if let Some(s) = cfg.stmt_of(pr) {
                let inenv = env.clone();
                transfer(p, s, &inenv, &mut env);
            }
            acc = acc.meet(env[var.index()]);
        }
        match acc {
            CVal::Const(v) => Some(v),
            _ => None,
        }
    }

    pub fn nvars(&self) -> usize {
        self.nvars
    }
}

fn transfer(p: &Program, s: StmtId, in_env: &Env, out_env: &mut Env) {
    match p.stmt(s) {
        Stmt::Assign {
            lhs: hpf_ir::LValue::Scalar(v),
            rhs,
        } => {
            let val = match fold_expr(rhs, &|x| match in_env[x.index()] {
                CVal::Const(c) => Some(c),
                _ => None,
            }) {
                Some(c) => CVal::Const(c),
                None => CVal::Nac,
            };
            out_env[v.index()] = val;
        }
        Stmt::Do { var, .. } => {
            // The loop variable varies; treat as NAC at this level.
            out_env[var.index()] = CVal::Nac;
        }
        _ => {}
    }
}

/// Fold an expression to a constant, given known constants for some scalars.
/// Array reads are never folded.
pub fn fold_expr(e: &Expr, env: &dyn Fn(VarId) -> Option<Value>) -> Option<Value> {
    match e {
        Expr::IntLit(v) => Some(Value::Int(*v)),
        Expr::RealLit(v) => Some(Value::Real(*v)),
        Expr::BoolLit(b) => Some(Value::Bool(*b)),
        Expr::Scalar(v) => env(*v),
        Expr::Array(_) => None,
        Expr::Unary(op, x) => {
            let v = fold_expr(x, env)?;
            match (op, v) {
                (UnOp::Neg, Value::Int(i)) => Some(Value::Int(-i)),
                (UnOp::Neg, Value::Real(r)) => Some(Value::Real(-r)),
                (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
                _ => None,
            }
        }
        Expr::Binary(op, a, b) => {
            let va = fold_expr(a, env)?;
            let vb = fold_expr(b, env)?;
            fold_binop(*op, va, vb)
        }
        Expr::Intrinsic(i, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(fold_expr(a, env)?);
            }
            fold_intrinsic(*i, &vals)
        }
    }
}

fn fold_binop(op: BinOp, a: Value, b: Value) -> Option<Value> {
    use BinOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(match op {
            Add => Value::Int(x.wrapping_add(y)),
            Sub => Value::Int(x.wrapping_sub(y)),
            Mul => Value::Int(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return None;
                }
                Value::Int(x / y)
            }
            Pow => {
                if y < 0 {
                    return None;
                }
                Value::Int(x.checked_pow(y.try_into().ok()?)?)
            }
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            And | Or => return None,
        }),
        (Value::Bool(x), Value::Bool(y)) => Some(match op {
            And => Value::Bool(x && y),
            Or => Value::Bool(x || y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            _ => return None,
        }),
        _ => {
            let x = match a {
                Value::Int(i) => i as f64,
                Value::Real(r) => r,
                Value::Bool(_) => return None,
            };
            let y = match b {
                Value::Int(i) => i as f64,
                Value::Real(r) => r,
                Value::Bool(_) => return None,
            };
            Some(match op {
                Add => Value::Real(x + y),
                Sub => Value::Real(x - y),
                Mul => Value::Real(x * y),
                Div => Value::Real(x / y),
                Pow => Value::Real(x.powf(y)),
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                And | Or => return None,
            })
        }
    }
}

fn fold_intrinsic(i: Intrinsic, vals: &[Value]) -> Option<Value> {
    match i {
        Intrinsic::Abs => match vals[0] {
            Value::Int(v) => Some(Value::Int(v.abs())),
            Value::Real(v) => Some(Value::Real(v.abs())),
            Value::Bool(_) => None,
        },
        Intrinsic::Sqrt => Some(Value::Real(as_real(vals[0])?.sqrt())),
        Intrinsic::Exp => Some(Value::Real(as_real(vals[0])?.exp())),
        Intrinsic::Max | Intrinsic::Min => match (vals[0], vals[1]) {
            (Value::Int(x), Value::Int(y)) => Some(Value::Int(if i == Intrinsic::Max {
                x.max(y)
            } else {
                x.min(y)
            })),
            _ => {
                let (x, y) = (as_real(vals[0])?, as_real(vals[1])?);
                Some(Value::Real(if i == Intrinsic::Max {
                    x.max(y)
                } else {
                    x.min(y)
                }))
            }
        },
        Intrinsic::Mod => match (vals[0], vals[1]) {
            (Value::Int(x), Value::Int(y)) if y != 0 => Some(Value::Int(x % y)),
            _ => None,
        },
        Intrinsic::Sign => {
            let (x, y) = (as_real(vals[0])?, as_real(vals[1])?);
            Some(Value::Real(if y >= 0.0 { x.abs() } else { -x.abs() }))
        }
    }
}

fn as_real(v: Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(i as f64),
        Value::Real(r) => Some(r),
        Value::Bool(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parsed, var};
    use hpf_ir::Expr;

    #[test]
    fn propagates_straight_line() {
        let (p, s) = parsed("INTEGER m, k\nm = 2\nk = m + 3\nm = k");
        let (m, k) = (var(&p, "m"), var(&p, "k"));
        let cfg = Cfg::build(&p);
        let cp = ConstProp::compute(&p, &cfg);
        assert_eq!(cp.const_at(&cfg, s[1], m), Some(Value::Int(2)));
        assert_eq!(cp.const_at(&cfg, s[2], k), Some(Value::Int(5)));
    }

    #[test]
    fn loop_entry_value() {
        // At loop entry m == 2 even though m is NAC inside the loop.
        let (p, s) = parsed(
            "INTEGER m, i
m = 2
DO i = 1, 4
  m = m + 1
END DO",
        );
        let [_, lp, inloop] = s[..] else {
            panic!("three statements");
        };
        let m = var(&p, "m");
        let cfg = Cfg::build(&p);
        let cp = ConstProp::compute(&p, &cfg);
        assert_eq!(cp.const_at_loop_entry(&p, &cfg, lp, m), Some(Value::Int(2)));
        assert_eq!(cp.const_at(&cfg, inloop, m), None);
    }

    #[test]
    fn branch_meet() {
        let (p, s) = parsed(
            "LOGICAL c
INTEGER x, y
IF (c) THEN
  x = 5
ELSE
  x = 5
END IF
y = x
IF (c) THEN
  x = 1
ELSE
  x = 2
END IF
y = x",
        );
        let (same, diff) = (s[3], s[7]);
        let x = var(&p, "x");
        let cfg = Cfg::build(&p);
        let cp = ConstProp::compute(&p, &cfg);
        assert_eq!(cp.const_at(&cfg, same, x), Some(Value::Int(5)));
        assert_eq!(cp.const_at(&cfg, diff, x), None);
    }

    #[test]
    fn fold_utility() {
        let e = Expr::int(2).mul(Expr::int(3)).add(Expr::int(1));
        assert_eq!(fold_expr(&e, &|_| None), Some(Value::Int(7)));
        let e2 = Expr::int(1).div(Expr::int(0));
        assert_eq!(fold_expr(&e2, &|_| None), None);
    }
}
