//! Sequential interpreter — the golden semantics of a program.
//!
//! Every SPMD lowering produced by the rest of the workspace is validated
//! against this interpreter: the paper's privatization and mapping decisions
//! must never change program results, only where computation and data live.

use crate::expr::{BinOp, Expr, Intrinsic, UnOp};
use crate::program::{Program, VarId};
use crate::stmt::{LValue, Label, Stmt, StmtId};
use crate::types::{ScalarTy, VarKind};

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

/// Array element storage, one variant per elemental type.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayStore {
    Int(Vec<i64>),
    Real(Vec<f64>),
    Bool(Vec<bool>),
}

impl ArrayStore {
    pub fn zeroed(ty: ScalarTy, len: usize) -> ArrayStore {
        match ty {
            ScalarTy::Int => ArrayStore::Int(vec![0; len]),
            ScalarTy::Real => ArrayStore::Real(vec![0.0; len]),
            ScalarTy::Bool => ArrayStore::Bool(vec![false; len]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ArrayStore::Int(v) => v.len(),
            ArrayStore::Real(v) => v.len(),
            ArrayStore::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> Value {
        match self {
            ArrayStore::Int(v) => Value::Int(v[i]),
            ArrayStore::Real(v) => Value::Real(v[i]),
            ArrayStore::Bool(v) => Value::Bool(v[i]),
        }
    }

    pub fn set(&mut self, i: usize, val: Value) -> Result<(), InterpError> {
        match self {
            ArrayStore::Int(v) => v[i] = val.as_int()?,
            ArrayStore::Real(v) => v[i] = val.as_real()?,
            ArrayStore::Bool(v) => v[i] = val.as_bool()?,
        }
        Ok(())
    }
}

/// Flat memory for one run: scalars and arrays indexed by [`VarId`].
/// All storage is zero-initialized (documented deviation from Fortran's
/// "undefined" semantics; it makes runs deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    pub scalars: Vec<Value>,
    pub arrays: Vec<Option<ArrayStore>>,
}

impl Memory {
    pub fn zeroed(p: &Program) -> Memory {
        let mut scalars = Vec::with_capacity(p.vars.len());
        let mut arrays = Vec::with_capacity(p.vars.len());
        for (_, info) in p.vars.iter() {
            match &info.kind {
                VarKind::Scalar => {
                    scalars.push(Value::zero(info.ty));
                    arrays.push(None);
                }
                VarKind::Array(shape) => {
                    scalars.push(Value::zero(info.ty));
                    arrays.push(Some(ArrayStore::zeroed(info.ty, shape.len() as usize)));
                }
            }
        }
        Memory { scalars, arrays }
    }

    pub fn set_scalar(&mut self, v: VarId, val: Value) {
        self.scalars[v.index()] = val;
    }

    pub fn scalar(&self, v: VarId) -> Value {
        self.scalars[v.index()]
    }

    pub fn array(&self, v: VarId) -> &ArrayStore {
        self.arrays[v.index()].as_ref().expect("not an array")
    }

    pub fn array_mut(&mut self, v: VarId) -> &mut ArrayStore {
        self.arrays[v.index()].as_mut().expect("not an array")
    }

    /// Fill a real array from a slice (column-major order).
    pub fn fill_real(&mut self, v: VarId, data: &[f64]) {
        match self.array_mut(v) {
            ArrayStore::Real(dst) => {
                assert_eq!(dst.len(), data.len());
                dst.copy_from_slice(data);
            }
            _ => panic!("fill_real on non-real array"),
        }
    }

    /// Read a real array as a flat slice.
    pub fn real_slice(&self, v: VarId) -> &[f64] {
        match self.array(v) {
            ArrayStore::Real(d) => d,
            _ => panic!("real_slice on non-real array"),
        }
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
    use crate::build::ProgramBuilder;

    #[test]
    fn loop_with_induction() {
        // m = 2; do i = 2, 9 { m = m + 1; D(m) = i }
        let mut b = ProgramBuilder::new();
        let d = b.int_array("D", &[12]);
        let i = b.int_scalar("i");
        let m = b.int_scalar("m");
        b.assign_scalar(m, Expr::int(2));
        b.do_loop(i, Expr::int(2), Expr::int(9), |b| {
            b.assign_scalar(m, Expr::scalar(m).add(Expr::int(1)));
            b.assign_array(d, vec![Expr::scalar(m)], Expr::scalar(i));
        });
        let p = b.finish();
        let (mem, stats) = run_program(&p, |_| {}).unwrap();
        match mem.array(d) {
            ArrayStore::Int(v) => {
                // D(3..=10) = 2..=9
                assert_eq!(&v[2..10], &[2, 3, 4, 5, 6, 7, 8, 9]);
            }
            _ => unreachable!(),
        }
        assert!(stats.steps > 8);
    }

    #[test]
    fn goto_exits_loop() {
        // do i = 1, 100 { s = s + 1; if (i >= 3) goto 100 } ; 100 continue
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let s = b.int_scalar("s");
        b.do_loop(i, Expr::int(1), Expr::int(100), |b| {
            b.assign_scalar(s, Expr::scalar(s).add(Expr::int(1)));
            b.if_then(Expr::scalar(i).cmp(BinOp::Ge, Expr::int(3)), |b| {
                b.goto(100);
            });
        });
        b.continue_label(100);
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(s), Value::Int(3));
    }

    #[test]
    fn backward_goto_loop() {
        // k = 0; 10 k = k + 1; if (k < 5) goto 10
        let mut b = ProgramBuilder::new();
        let k = b.int_scalar("k");
        b.assign_scalar(k, Expr::int(0));
        let inc = b.assign_scalar(k, Expr::scalar(k).add(Expr::int(1)));
        b.label_stmt(inc, 10);
        b.if_then(Expr::scalar(k).cmp(BinOp::Lt, Expr::int(5)), |b| {
            b.goto(10);
        });
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(k), Value::Int(5));
    }

    #[test]
    fn reduction_sum() {
        // s = 0; do j = 1, n { s = s + A(j) }
        let n = 16i64;
        let mut b = ProgramBuilder::new();
        let a = b.real_array("A", &[n]);
        let j = b.int_scalar("j");
        let s = b.real_scalar("s");
        b.assign_scalar(s, Expr::real(0.0));
        b.do_loop(j, Expr::int(1), Expr::int(n), |b| {
            b.assign_scalar(
                s,
                Expr::scalar(s).add(Expr::array(a, vec![Expr::scalar(j)])),
            );
        });
        let p = b.finish();
        let (mem, _) = run_program(&p, |m| {
            let data: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        assert_eq!(mem.scalar(s), Value::Real((n * (n + 1) / 2) as f64));
    }

    #[test]
    fn if_else_branches() {
        let mut b = ProgramBuilder::new();
        let x = b.int_scalar("x");
        let y = b.int_scalar("y");
        b.assign_scalar(x, Expr::int(7));
        b.if_then_else(
            Expr::scalar(x).cmp(BinOp::Gt, Expr::int(10)),
            |b| {
                b.assign_scalar(y, Expr::int(1));
            },
            |b| {
                b.assign_scalar(y, Expr::int(2));
            },
        );
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(y), Value::Int(2));
    }

    #[test]
    fn oob_is_reported() {
        let mut b = ProgramBuilder::new();
        let a = b.real_array("A", &[4]);
        b.assign_array(a, vec![Expr::int(5)], Expr::real(1.0));
        let p = b.finish();
        let err = run_program(&p, |_| {}).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { .. }));
    }

    #[test]
    fn intrinsics() {
        let mut b = ProgramBuilder::new();
        let x = b.real_scalar("x");
        let y = b.real_scalar("y");
        b.assign_scalar(x, Expr::Intrinsic(Intrinsic::Sqrt, vec![Expr::real(9.0)]));
        b.assign_scalar(
            y,
            Expr::Intrinsic(
                Intrinsic::Sign,
                vec![Expr::real(5.0), Expr::real(-2.0)],
            ),
        );
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(x), Value::Real(3.0));
        assert_eq!(mem.scalar(y), Value::Real(-5.0));
    }

    #[test]
    fn integer_division_truncates() {
        let mut b = ProgramBuilder::new();
        let x = b.int_scalar("x");
        b.assign_scalar(x, Expr::int(7).div(Expr::int(2)));
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(x), Value::Int(3));
    }

    #[test]
    fn do_step_negative() {
        let mut b = ProgramBuilder::new();
        let i = b.int_scalar("i");
        let s = b.int_scalar("s");
        b.do_loop_step(i, Expr::int(10), Expr::int(1), Expr::int(-2), |b| {
            b.assign_scalar(s, Expr::scalar(s).add(Expr::scalar(i)));
        });
        let p = b.finish();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(s), Value::Int(10 + 8 + 6 + 4 + 2));
    }
}
