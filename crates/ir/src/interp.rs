//! Sequential interpreter — the golden semantics of a program.
//!
//! Every SPMD lowering produced by the rest of the workspace is validated
//! against this interpreter: the paper's privatization and mapping decisions
//! must never change program results, only where computation and data live.

use crate::expr::{BinOp, Expr, Intrinsic, UnOp};
use crate::program::{Program, VarId};
use crate::stmt::{LValue, Label, Stmt, StmtId};
use crate::types::ScalarTy;

pub use crate::store::{ArrayStore, Elems, HeldBox, HeldDim, Memory};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Real(f64),
    Bool(bool),
}

impl Value {
    pub fn zero(ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::Int => Value::Int(0),
            ScalarTy::Real => Value::Real(0.0),
            ScalarTy::Bool => Value::Bool(false),
        }
    }

    pub fn as_int(self) -> Result<i64, InterpError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Real(v) => Ok(v as i64),
            Value::Bool(_) => Err(InterpError::TypeError("LOGICAL used as INTEGER".into())),
        }
    }

    pub fn as_real(self) -> Result<f64, InterpError> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Real(v) => Ok(v),
            Value::Bool(_) => Err(InterpError::TypeError("LOGICAL used as REAL".into())),
        }
    }

    pub fn as_bool(self) -> Result<bool, InterpError> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => Err(InterpError::TypeError("numeric used as LOGICAL".into())),
        }
    }

    /// Coerce to the declared type of an assignment target (Fortran implicit
    /// conversion on assignment).
    pub fn coerce(self, ty: ScalarTy) -> Result<Value, InterpError> {
        Ok(match ty {
            ScalarTy::Int => Value::Int(self.as_int()?),
            ScalarTy::Real => Value::Real(self.as_real()?),
            ScalarTy::Bool => Value::Bool(self.as_bool()?),
        })
    }
}

/// Errors raised during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    TypeError(String),
    OutOfBounds {
        array: String,
        index: Vec<i64>,
    },
    DivisionByZero,
    /// Step budget exceeded (guards against runaway GOTO cycles).
    StepLimit,
    UnresolvedGoto(u32),
    /// An engine's access to an element its rank's store does not hold.
    NotHeld {
        array: String,
        index: Vec<i64>,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::TypeError(m) => write!(f, "type error: {}", m),
            InterpError::OutOfBounds { array, index } => {
                write!(f, "index {:?} out of bounds for {}", index, array)
            }
            InterpError::DivisionByZero => write!(f, "integer division by zero"),
            InterpError::StepLimit => write!(f, "interpreter step limit exceeded"),
            InterpError::UnresolvedGoto(l) => write!(f, "GOTO {} left the program", l),
            InterpError::NotHeld { array, index } => {
                write!(f, "{}{:?} is outside this rank's store", array, index)
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics of a sequential run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Number of statement executions.
    pub steps: u64,
    /// Number of arithmetic operations evaluated (flop-ish count).
    pub ops: u64,
}

enum Flow {
    Normal,
    Goto(Label),
}

/// The sequential interpreter.
pub struct Interp<'p> {
    program: &'p Program,
    pub step_limit: u64,
    stats: InterpStats,
}

impl<'p> Interp<'p> {
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            step_limit: 5_000_000_000,
            stats: InterpStats::default(),
        }
    }

    /// Run the whole program against `mem`.
    pub fn run(mut self, mem: &mut Memory) -> Result<InterpStats, InterpError> {
        let program = self.program;
        match self.exec_block(&program.body, mem)? {
            Flow::Normal => Ok(self.stats),
            Flow::Goto(l) => Err(InterpError::UnresolvedGoto(l.0)),
        }
    }

    fn exec_block(&mut self, block: &[StmtId], mem: &mut Memory) -> Result<Flow, InterpError> {
        let mut idx = 0;
        while idx < block.len() {
            match self.exec_stmt(block[idx], mem)? {
                Flow::Normal => idx += 1,
                Flow::Goto(l) => {
                    // Resolve within this block if possible, else propagate.
                    match block
                        .iter()
                        .position(|&s| self.program.node(s).label == Some(l))
                    {
                        Some(pos) => idx = pos,
                        None => return Ok(Flow::Goto(l)),
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, id: StmtId, mem: &mut Memory) -> Result<Flow, InterpError> {
        self.stats.steps += 1;
        if self.stats.steps > self.step_limit {
            return Err(InterpError::StepLimit);
        }
        // Borrow the statement from the program, not through `self`, so
        // loop and branch bodies need no copy.
        let program = self.program;
        match program.stmt(id) {
            Stmt::Assign { lhs, rhs } => {
                let val = self.eval(rhs, mem)?;
                match lhs {
                    LValue::Scalar(v) => {
                        let ty = self.program.vars.info(*v).ty;
                        mem.set_scalar(*v, val.coerce(ty)?);
                    }
                    LValue::Array(r) => {
                        let ty = self.program.vars.info(r.array).ty;
                        let off = self.array_offset(r.array, &r.subs, mem)?;
                        mem.array_mut(r.array).set(off, val.coerce(ty)?)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval(lo, mem)?.as_int()?;
                let hi = self.eval(hi, mem)?.as_int()?;
                let step = self.eval(step, mem)?.as_int()?;
                if step == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                let var = *var;
                let mut i = lo;
                while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
                    mem.set_scalar(var, Value::Int(i));
                    match self.exec_block(body, mem)? {
                        Flow::Normal => {}
                        // A GOTO escaping the loop body exits the loop
                        // (Fortran: branch out of DO).
                        Flow::Goto(l) => return Ok(Flow::Goto(l)),
                    }
                    i += step;
                }
                // Fortran leaves the DO variable at the first out-of-range
                // value after normal termination.
                mem.set_scalar(var, Value::Int(i));
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, mem)?.as_bool()?;
                self.exec_block(if c { then_body } else { else_body }, mem)
            }
            Stmt::Goto(l) => Ok(Flow::Goto(*l)),
            Stmt::Continue => Ok(Flow::Normal),
        }
    }

    fn array_offset(
        &mut self,
        array: VarId,
        subs: &[Expr],
        mem: &mut Memory,
    ) -> Result<usize, InterpError> {
        // Subscripts of up to seven dimensions (Fortran's limit) stay on
        // the stack.
        let mut inline = [0i64; 7];
        let mut spilled = Vec::new();
        let idx: &mut [i64] = match inline.get_mut(..subs.len()) {
            Some(idx) => idx,
            None => {
                spilled.resize(subs.len(), 0);
                &mut spilled
            }
        };
        for (x, s) in idx.iter_mut().zip(subs) {
            *x = self.eval(s, mem)?.as_int()?;
        }
        let info = self.program.vars.info(array);
        let shape = info.shape().expect("array ref to scalar");
        if !shape.contains(idx) {
            return Err(InterpError::OutOfBounds {
                array: info.name.clone(),
                index: idx.to_vec(),
            });
        }
        Ok(shape.linearize(idx))
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, e: &Expr, mem: &mut Memory) -> Result<Value, InterpError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::RealLit(v) => Ok(Value::Real(*v)),
            Expr::BoolLit(b) => Ok(Value::Bool(*b)),
            Expr::Scalar(v) => Ok(mem.scalar(*v)),
            Expr::Array(r) => {
                let off = self.array_offset(r.array, &r.subs, mem)?;
                Ok(mem.array(r.array).get(off))
            }
            Expr::Unary(op, x) => {
                let v = self.eval(x, mem)?;
                self.stats.ops += 1;
                match op {
                    UnOp::Neg => Ok(match v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Real(r) => Value::Real(-r),
                        Value::Bool(_) => {
                            return Err(InterpError::TypeError("negating LOGICAL".into()))
                        }
                    }),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, mem)?;
                let vb = self.eval(b, mem)?;
                self.stats.ops += 1;
                self.binop(*op, va, vb)
            }
            Expr::Intrinsic(i, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, mem)?);
                }
                self.stats.ops += 1;
                self.intrinsic(*i, &vals)
            }
        }
    }

    fn binop(&self, op: BinOp, a: Value, b: Value) -> Result<Value, InterpError> {
        eval_binop(op, a, b)
    }

    fn intrinsic(&self, i: Intrinsic, vals: &[Value]) -> Result<Value, InterpError> {
        eval_intrinsic(i, vals)
    }
}

/// Evaluate a binary operator on runtime values (shared by the sequential
/// interpreter and the SPMD executor).
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, InterpError> {
    {
        use BinOp::*;
        if op.is_logical() {
            let (x, y) = (a.as_bool()?, b.as_bool()?);
            return Ok(Value::Bool(match op {
                And => x && y,
                Or => x || y,
                _ => unreachable!(),
            }));
        }
        // Integer arithmetic when both sides are Int, else real.
        let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
        if op.is_comparison() {
            let r = if both_int {
                let (x, y) = (a.as_int()?, b.as_int()?);
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_real()?, b.as_real()?);
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            };
            return Ok(Value::Bool(r));
        }
        if both_int {
            let (x, y) = (a.as_int()?, b.as_int()?);
            Ok(Value::Int(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(InterpError::DivisionByZero);
                    }
                    // Fortran integer division truncates toward zero.
                    x / y
                }
                Pow => {
                    if y < 0 {
                        0
                    } else {
                        x.wrapping_pow(y.min(u32::MAX as i64) as u32)
                    }
                }
                _ => unreachable!(),
            }))
        } else {
            let (x, y) = (a.as_real()?, b.as_real()?);
            Ok(Value::Real(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Pow => x.powf(y),
                _ => unreachable!(),
            }))
        }
    }
}

/// Evaluate an intrinsic on runtime values (shared by the sequential
/// interpreter and the SPMD executor).
pub fn eval_intrinsic(i: Intrinsic, vals: &[Value]) -> Result<Value, InterpError> {
    {
        match i {
            Intrinsic::Abs => Ok(match vals[0] {
                Value::Int(v) => Value::Int(v.abs()),
                Value::Real(v) => Value::Real(v.abs()),
                Value::Bool(_) => return Err(InterpError::TypeError("ABS of LOGICAL".into())),
            }),
            Intrinsic::Sqrt => Ok(Value::Real(vals[0].as_real()?.sqrt())),
            Intrinsic::Exp => Ok(Value::Real(vals[0].as_real()?.exp())),
            Intrinsic::Max | Intrinsic::Min => {
                let both_int = matches!((vals[0], vals[1]), (Value::Int(_), Value::Int(_)));
                if both_int {
                    let (x, y) = (vals[0].as_int()?, vals[1].as_int()?);
                    Ok(Value::Int(if i == Intrinsic::Max {
                        x.max(y)
                    } else {
                        x.min(y)
                    }))
                } else {
                    let (x, y) = (vals[0].as_real()?, vals[1].as_real()?);
                    Ok(Value::Real(if i == Intrinsic::Max {
                        x.max(y)
                    } else {
                        x.min(y)
                    }))
                }
            }
            Intrinsic::Mod => {
                let both_int = matches!((vals[0], vals[1]), (Value::Int(_), Value::Int(_)));
                if both_int {
                    let (x, y) = (vals[0].as_int()?, vals[1].as_int()?);
                    if y == 0 {
                        return Err(InterpError::DivisionByZero);
                    }
                    Ok(Value::Int(x % y))
                } else {
                    let (x, y) = (vals[0].as_real()?, vals[1].as_real()?);
                    Ok(Value::Real(x % y))
                }
            }
            Intrinsic::Sign => {
                let (x, y) = (vals[0].as_real()?, vals[1].as_real()?);
                Ok(Value::Real(if y >= 0.0 { x.abs() } else { -x.abs() }))
            }
        }
    }
}

/// Convenience: run a program on zeroed memory (after applying `init`) and
/// return the final memory.
pub fn run_program(
    p: &Program,
    init: impl FnOnce(&mut Memory),
) -> Result<(Memory, InterpStats), InterpError> {
    let mut mem = Memory::zeroed(p);
    init(&mut mem);
    let stats = Interp::new(p).run(&mut mem)?;
    Ok((mem, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn loop_with_induction() {
        let p = parse_program(
            "INTEGER D(12)
INTEGER i, m
m = 2
DO i = 2, 9
  m = m + 1
  D(m) = i
END DO",
        )
        .unwrap();
        let d = p.vars.lookup("d").unwrap();
        let (mem, stats) = run_program(&p, |_| {}).unwrap();
        // D(3..=10) = 2..=9
        let got: Vec<Value> = (2..10).map(|k| mem.array(d).get(k)).collect();
        let want: Vec<Value> = (2..10).map(Value::Int).collect();
        assert_eq!(got, want);
        assert!(stats.steps > 8);
    }

    #[test]
    fn goto_exits_loop() {
        let p = parse_program(
            "INTEGER i, s
DO i = 1, 100
  s = s + 1
  IF (i >= 3) GOTO 100
END DO
100 CONTINUE",
        )
        .unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("s").unwrap()), Value::Int(3));
    }

    #[test]
    fn backward_goto_loop() {
        let p = parse_program(
            "INTEGER k
k = 0
10 k = k + 1
IF (k < 5) GOTO 10",
        )
        .unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("k").unwrap()), Value::Int(5));
    }

    #[test]
    fn reduction_sum() {
        let n = 16i64;
        let p = parse_program(
            "REAL A(16)
INTEGER j
REAL s
s = 0.0
DO j = 1, 16
  s = s + A(j)
END DO",
        )
        .unwrap();
        let a = p.vars.lookup("a").unwrap();
        let (mem, _) = run_program(&p, |m| {
            let data: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        let s = p.vars.lookup("s").unwrap();
        assert_eq!(mem.scalar(s), Value::Real((n * (n + 1) / 2) as f64));
    }

    #[test]
    fn if_else_branches() {
        let p = parse_program(
            "INTEGER x, y
x = 7
IF (x > 10) THEN
  y = 1
ELSE
  y = 2
END IF",
        )
        .unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("y").unwrap()), Value::Int(2));
    }

    #[test]
    fn oob_is_reported() {
        let p = parse_program("REAL A(4)\nA(5) = 1.0").unwrap();
        let err = run_program(&p, |_| {}).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { .. }));
    }

    #[test]
    fn intrinsics() {
        let p = parse_program("REAL x, y\nx = SQRT(9.0)\ny = SIGN(5.0, -2.0)").unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("x").unwrap()), Value::Real(3.0));
        assert_eq!(mem.scalar(p.vars.lookup("y").unwrap()), Value::Real(-5.0));
    }

    #[test]
    fn integer_division_truncates() {
        let p = parse_program("INTEGER x\nx = 7 / 2").unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("x").unwrap()), Value::Int(3));
    }

    #[test]
    fn do_step_negative() {
        let p = parse_program(
            "INTEGER i, s
DO i = 10, 1, -2
  s = s + i
END DO",
        )
        .unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("s").unwrap()), Value::Int(10 + 8 + 6 + 4 + 2));
    }
}
