//! Statement code compiled once per program, run by every SPMD engine.
//!
//! [`Code::new`] compiles every assignment, `IF` predicate and `DO` bound of
//! a lowered program into flat postfix code over a reusable value stack,
//! plus a table of array *reference sites* and the owner tables (the
//! `owner` module). The executor, the node programs and replay each build
//! it once per run and run it through the `Load` trait, monomorphized per
//! engine: the executor's loads resolve the owner, record the fetch and
//! read the owner's memory; a node program's read its store or receive;
//! replay's read the rank's own memory. All three fold reduction partials
//! with [`fold_partials`], in ascending pid order.
//!
//! A site stores its array's declared bounds and the index of the
//! communication operation a remote read through it belongs to, resolved
//! once per (statement, reference) in `SpmdProgram::comms` order, merged
//! entries included. A subscript is compiled to the fast form `coef·v + c`
//! (wrapping integer arithmetic, like the interpreter's) when it names at
//! most one scalar, that scalar is INTEGER and occurs exactly once, so
//! every scalar read still goes through the engine's load exactly once and
//! in source order; any other subscript is general code followed by a
//! conversion to an index. Real⊕Real and Int⊕Int add, subtract and
//! multiply have inline fast paths; everything else goes through
//! [`eval_binop`]/[`eval_intrinsic`], so results and errors are those of
//! the sequential interpreter, which stays a tree walker on purpose: it is
//! the independent oracle the engines are checked against.

use crate::exec::Slot;
use crate::lower::{CommData, SpmdProgram};
use crate::owner::{owner_tables, Memo, Owners};
use hpf_analysis::RedOp;
use hpf_dist::ProcGrid;
use hpf_ir::interp::{eval_binop, eval_intrinsic, InterpError, Memory};
use hpf_ir::{
    ArrayRef, BinOp, Expr, Intrinsic, LValue, Program, ScalarTy, Stmt, StmtId, UnOp, Value, VarId,
};
use phpf_core::ScalarMapping;

/// A range of one of the flat tables.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One instruction. Value-producing instructions push onto
/// [`Stack::vals`]; subscript instructions push onto [`Stack::ints`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Lit(Value),
    /// A scalar read through the engine's load.
    Scalar(VarId),
    /// A scalar read from the executing rank's own copy (the locals of a
    /// maxloc reduction IF).
    Own(VarId),
    /// Subscript `coef·var + c`, `var` read through the engine's load.
    Affine {
        var: VarId,
        coef: i64,
        c: i64,
    },
    /// Constant subscript.
    Index(i64),
    /// Pop a value and push it as a subscript.
    ToInt,
    /// Pop a site's subscripts and push the element they name.
    Elem(u32),
    Neg,
    Not,
    Bin(BinOp),
    /// An intrinsic over the top `n` values.
    Intrinsic(Intrinsic, u32),
}

/// One declared dimension of a site's array.
#[derive(Debug, Clone, Copy)]
struct Bound {
    lo: i64,
    hi: i64,
    stride: i64,
}

/// Which communication operation a remote read through a site belongs to.
#[derive(Debug, Clone, Copy)]
enum SiteOp {
    /// Resolved for the statement the site was compiled in.
    Fixed(Option<u32>),
    /// A site outside any statement (an aligned scalar's owner subscript),
    /// resolved per reading statement: column of `Code::shared_ops`.
    PerStmt(u32),
}

/// One array reference of the program.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    pub(crate) array: VarId,
    rank: u32,
    bounds: Span,
    op: SiteOp,
}

/// A read of value code: an array element through a site, or a scalar
/// through the engine's load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    Elem(u32),
    Scalar(VarId),
}

/// How a statement is compiled.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StmtCode {
    /// Never reached from the program body.
    None,
    Assign {
        rhs: Span,
        lhs: Target,
    },
    If {
        cond: Span,
        /// A maxloc reduction IF: runs on each partial owner with its own
        /// copies of the locals (see `SpmdExec`).
        maxloc: bool,
    },
    /// Bounds as subscript code (each pushes one index).
    Do {
        lo: Span,
        hi: Span,
        step: Span,
    },
}

/// Where an assignment writes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    Scalar(VarId, ScalarTy),
    /// `subs` pushes the subscripts of `site`.
    Elem {
        subs: Span,
        site: u32,
        ty: ScalarTy,
    },
}

/// An evaluation error, boxed so that a result on the hot path stays two
/// words wide.
pub(crate) type Fault = Box<InterpError>;

/// The evaluation stacks. A nested evaluation pushes above its caller's
/// entries and leaves them as it found them.
#[derive(Debug, Default)]
pub(crate) struct Stack {
    vals: Vec<Value>,
    ints: Vec<i64>,
    /// The owner lookup's memos ([`Code::stack`]).
    pub(crate) memos: Vec<Memo>,
    /// Owner coordinates under evaluation.
    pub(crate) coords: Vec<Option<usize>>,
}

/// An engine's operand reads.
pub(crate) trait Load {
    /// A scalar read (the executor may fetch it from its owner, which may
    /// evaluate more code on `st`).
    fn scalar(&mut self, code: &Code, st: &mut Stack, v: VarId) -> Result<Value, Fault>;
    /// A read of the executing rank's own copy of `v`.
    fn own(&mut self, v: VarId) -> Value;
    /// Element `off` (bounds-checked) of the array of `site`, at `idx`.
    fn elem(&mut self, code: &Code, site: &Site, idx: &[i64], off: usize) -> Result<Value, Fault>;
}

/// Compiled code of one lowered program.
#[derive(Debug)]
pub struct Code {
    ops: Vec<Op>,
    sites: Vec<Site>,
    /// By site: its subscript code, which pushes `rank` indices.
    site_subs: Vec<Span>,
    bounds: Vec<Bound>,
    /// By `StmtId`.
    stmts: Vec<StmtCode>,
    /// By `StmtId`: the DO variables the statement reads outside their
    /// loops.
    exits: Vec<Vec<VarId>>,
    /// By `StmtId`, then `SiteOp::PerStmt` column: the operation of a
    /// shared site read by that statement.
    shared_ops: Vec<Option<u32>>,
    n_shared: usize,
    /// By `VarId`, for error messages.
    pub(crate) names: Vec<String>,
    pub(crate) grid: ProcGrid,
    pub(crate) owners: Owners,
}

impl Code {
    /// Compile every statement and owner reference of `sp`.
    pub fn new(sp: &SpmdProgram) -> Code {
        let mut cc = Compiler::new(sp);
        let owners = owner_tables(sp, &mut cc);
        cc.finish(owners)
    }

    pub(crate) fn stmt(&self, s: StmtId) -> StmtCode {
        self.stmts[s.index()]
    }

    /// The DO variables statement `s` reads outside their loops.
    pub(crate) fn exits(&self, s: StmtId) -> &[VarId] {
        &self.exits[s.index()]
    }

    /// The communication operation a remote read through `site` by
    /// statement `stmt` belongs to.
    pub(crate) fn site_op(&self, site: &Site, stmt: Option<StmtId>) -> Option<usize> {
        let op = match site.op {
            SiteOp::Fixed(op) => op,
            SiteOp::PerStmt(k) => self.shared_ops[stmt?.index() * self.n_shared + k as usize],
        };
        op.map(|i| i as usize)
    }

    /// The array reads (`Op::Elem` sites) and scalar reads of value code
    /// `span`, in evaluation order.
    pub(crate) fn reads(&self, span: Span) -> Vec<Read> {
        self.ops[span.range()]
            .iter()
            .filter_map(|op| match *op {
                Op::Elem(k) => Some(Read::Elem(k)),
                Op::Scalar(v) => Some(Read::Scalar(v)),
                _ => None,
            })
            .collect()
    }

    pub(crate) fn site(&self, k: u32) -> &Site {
        &self.sites[k as usize]
    }

    /// Evaluate the subscripts of site `k` into `idx` and return the
    /// element's linear offset, bounds-checked.
    pub(crate) fn site_index<L: Load>(
        &self,
        k: u32,
        l: &mut L,
        st: &mut Stack,
        idx: &mut Vec<i64>,
    ) -> Result<usize, Fault> {
        let site = &self.sites[k as usize];
        let base = st.ints.len();
        self.run(self.site_subs[k as usize], l, st)?;
        idx.clear();
        idx.extend_from_slice(&st.ints[base..]);
        st.ints.truncate(base);
        self.offset(site, idx)
    }

    /// Evaluate value code. After an error the stack is left as it is:
    /// both engines stop at their first error.
    pub(crate) fn eval<L: Load>(
        &self,
        span: Span,
        l: &mut L,
        st: &mut Stack,
    ) -> Result<Value, Fault> {
        self.run(span, l, st)?;
        Ok(pop(&mut st.vals))
    }

    /// Evaluate subscript code (one index).
    pub(crate) fn eval_int<L: Load>(
        &self,
        span: Span,
        l: &mut L,
        st: &mut Stack,
    ) -> Result<i64, Fault> {
        self.run(span, l, st)?;
        Ok(st.ints.pop().expect("subscript code pushes an index"))
    }

    /// Evaluate assignment `s`: the slot it writes and its value, coerced
    /// to the target's declared type; an element target's subscripts are
    /// left in `idx`. The right-hand side is evaluated before the target's
    /// subscripts, as in the interpreter.
    pub(crate) fn assign<L: Load>(
        &self,
        s: StmtId,
        l: &mut L,
        st: &mut Stack,
        idx: &mut Vec<i64>,
    ) -> Result<(Slot, Value), Fault> {
        let StmtCode::Assign { rhs, lhs } = self.stmt(s) else {
            unreachable!("assign on a non-assignment")
        };
        let val = self.eval(rhs, l, st)?;
        match lhs {
            Target::Scalar(v, ty) => Ok((Slot::Scalar(v), val.coerce(ty)?)),
            Target::Elem { subs, site, ty } => {
                let base = st.ints.len();
                self.run(subs, l, st)?;
                let site = &self.sites[site as usize];
                idx.clear();
                idx.extend_from_slice(&st.ints[base..]);
                st.ints.truncate(base);
                let off = self.offset(site, idx)?;
                Ok((Slot::Elem(site.array, off), val.coerce(ty)?))
            }
        }
    }

    /// The fault of an access to element `idx` of `array` that the
    /// rank's store does not hold.
    pub(crate) fn not_held(&self, array: VarId, idx: &[i64]) -> Fault {
        Box::new(InterpError::NotHeld {
            array: self.names[array.index()].clone(),
            index: idx.to_vec(),
        })
    }

    /// Linear offset of `idx` in the array of `site`, bounds-checked.
    fn offset(&self, site: &Site, idx: &[i64]) -> Result<usize, Fault> {
        let bounds = &self.bounds[site.bounds.range()];
        let oob = || InterpError::OutOfBounds {
            array: self.names[site.array.index()].clone(),
            index: idx.to_vec(),
        };
        if idx.len() != bounds.len() {
            return Err(oob().into());
        }
        let mut off = 0;
        for (&i, b) in idx.iter().zip(bounds) {
            if i < b.lo || i > b.hi {
                return Err(oob().into());
            }
            off += (i - b.lo) * b.stride;
        }
        Ok(off as usize)
    }

    fn run<L: Load>(&self, span: Span, l: &mut L, st: &mut Stack) -> Result<(), Fault> {
        for op in &self.ops[span.range()] {
            match *op {
                Op::Lit(v) => st.vals.push(v),
                Op::Scalar(v) => {
                    let x = l.scalar(self, st, v)?;
                    st.vals.push(x);
                }
                Op::Own(v) => st.vals.push(l.own(v)),
                Op::Affine { var, coef, c } => {
                    let x = l.scalar(self, st, var)?.as_int()?;
                    st.ints.push(coef.wrapping_mul(x).wrapping_add(c));
                }
                Op::Index(c) => st.ints.push(c),
                Op::ToInt => {
                    let x = pop(&mut st.vals).as_int()?;
                    st.ints.push(x);
                }
                Op::Elem(k) => {
                    let site = &self.sites[k as usize];
                    let base = st.ints.len() - site.rank as usize;
                    let idx = &st.ints[base..];
                    let off = self.offset(site, idx)?;
                    let v = l.elem(self, site, idx, off)?;
                    st.ints.truncate(base);
                    st.vals.push(v);
                }
                Op::Neg => {
                    let top = top(&mut st.vals);
                    *top = match *top {
                        Value::Int(i) => Value::Int(-i),
                        Value::Real(r) => Value::Real(-r),
                        Value::Bool(_) => {
                            return Err(InterpError::TypeError("negating LOGICAL".into()).into())
                        }
                    };
                }
                Op::Not => {
                    let top = top(&mut st.vals);
                    *top = Value::Bool(!top.as_bool()?);
                }
                Op::Bin(op) => {
                    let b = pop(&mut st.vals);
                    let a = top(&mut st.vals);
                    *a = binop(op, *a, b)?;
                }
                Op::Intrinsic(i, n) => {
                    let base = st.vals.len() - n as usize;
                    let v = eval_intrinsic(i, &st.vals[base..])?;
                    st.vals.truncate(base);
                    st.vals.push(v);
                }
            }
        }
        Ok(())
    }
}

#[inline]
fn pop(vals: &mut Vec<Value>) -> Value {
    vals.pop().expect("operand on the stack")
}

#[inline]
fn top(vals: &mut [Value]) -> &mut Value {
    vals.last_mut().expect("operand on the stack")
}

/// [`eval_binop`] with the arithmetic the kernels spend their time in
/// inlined; the same results for every operand.
#[inline]
fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, Fault> {
    Ok(match (op, a, b) {
        (BinOp::Add, Value::Real(x), Value::Real(y)) => Value::Real(x + y),
        (BinOp::Sub, Value::Real(x), Value::Real(y)) => Value::Real(x - y),
        (BinOp::Mul, Value::Real(x), Value::Real(y)) => Value::Real(x * y),
        (BinOp::Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        (BinOp::Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(y)),
        (BinOp::Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(y)),
        _ => return Ok(eval_binop(op, a, b)?),
    })
}

/// Store an [`Code::assign`] result into a rank's memory.
pub(crate) fn store(mem: &mut Memory, slot: Slot, val: Value) -> Result<(), Fault> {
    match slot {
        Slot::Scalar(v) => mem.set_scalar(v, val),
        Slot::Elem(v, off) => mem.array_mut(v).set(off, val)?,
    }
    Ok(())
}

/// A reduction partial: the accumulator's value and, for MAXLOC, its
/// location's.
pub(crate) type Partial = (Value, Option<Value>);

/// The partial of accumulator `acc` (location `loc`) in `mem`.
pub(crate) fn partial(mem: &Memory, acc: VarId, loc: Option<VarId>) -> Partial {
    (mem.scalar(acc), loc.map(|v| mem.scalar(v)))
}

/// Store partial `p` into `mem` as accumulator `acc` (location `loc`).
pub(crate) fn set_partial(mem: &mut Memory, acc: VarId, loc: Option<VarId>, p: Partial) {
    mem.set_scalar(acc, p.0);
    if let (Some(v), Some(x)) = (loc, p.1) {
        mem.set_scalar(v, x);
    }
}

/// Fold the members' partials of a reduction group into its leader's own
/// partial `own` under `op`, in the order `others` yields them. Every
/// engine passes them in ascending pid order, so a Sum adds them in one
/// order everywhere, and a MAXLOC tie keeps the lowest pid's location.
pub(crate) fn fold_partials(
    op: RedOp,
    own: Partial,
    others: impl IntoIterator<Item = Partial>,
) -> Result<Partial, Fault> {
    let (mut best, mut best_loc) = own;
    for (v, loc) in others {
        best = match op {
            RedOp::Sum => eval_binop(BinOp::Add, best, v)?,
            RedOp::Prod => eval_binop(BinOp::Mul, best, v)?,
            RedOp::Max => eval_intrinsic(Intrinsic::Max, &[best, v])?,
            RedOp::Min => eval_intrinsic(Intrinsic::Min, &[best, v])?,
            RedOp::MaxLoc => {
                if !eval_binop(BinOp::Gt, v, best)?.as_bool()? {
                    continue;
                }
                best_loc = loc;
                v
            }
        };
    }
    Ok((best, best_loc))
}

/// Builds a [`Code`]: [`Compiler::new`] compiles the program's statements,
/// [`owner_tables`] adds the owner references' subscripts,
/// [`Compiler::finish`] resolves the shared sites.
pub(crate) struct Compiler<'s> {
    sp: &'s SpmdProgram,
    code: Code,
    /// By `StmtId`: the (data, op index) pairs a fetch issued by the
    /// statement resolves to; the first match wins.
    comms_of: Vec<Vec<(&'s CommData, u32)>>,
    /// The references of `SiteOp::PerStmt` sites, by column.
    shared: Vec<&'s ArrayRef>,
    do_vars: Vec<VarId>,
}

/// The statement a piece of code belongs to and the scalars it reads
/// from the executing rank's own copy.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'c> {
    stmt: Option<StmtId>,
    locals: &'c [VarId],
}

impl Ctx<'static> {
    /// Code of statement `s`.
    pub(crate) fn of(s: StmtId) -> Ctx<'static> {
        Ctx {
            stmt: Some(s),
            locals: &[],
        }
    }

    /// Code shared by every statement.
    pub(crate) const SHARED: Ctx<'static> = Ctx {
        stmt: None,
        locals: &[],
    };
}

impl<'s> Compiler<'s> {
    fn new(sp: &'s SpmdProgram) -> Compiler<'s> {
        let p = &sp.program;
        let n_stmts = p.num_stmts();
        let mut comms_of: Vec<Vec<(&CommData, u32)>> = vec![Vec::new(); n_stmts];
        for (i, c) in sp.comms.iter().enumerate() {
            let own = std::iter::once((c.stmt, &c.data));
            for (s, d) in own.chain(c.merged.iter().map(|(s, d)| (*s, d))) {
                let list = &mut comms_of[s.index()];
                if !list.iter().any(|(x, _)| *x == d) {
                    list.push((d, i as u32));
                }
            }
        }
        let mut cc = Compiler {
            sp,
            code: Code {
                ops: Vec::new(),
                sites: Vec::new(),
                site_subs: Vec::new(),
                bounds: Vec::new(),
                stmts: vec![StmtCode::None; n_stmts],
                exits: vec![Vec::new(); n_stmts],
                shared_ops: Vec::new(),
                n_shared: 0,
                names: p.vars.iter().map(|(_, info)| info.name.clone()).collect(),
                grid: sp.maps.grid.clone(),
                owners: Owners::default(),
            },
            comms_of,
            shared: Vec::new(),
            do_vars: p.loop_index_vars(),
        };
        cc.block(&p.body, &mut Vec::new(), &[]);
        cc
    }

    /// Resolve the shared sites for every statement and take `owners`.
    fn finish(mut self, owners: Owners) -> Code {
        let n_stmts = self.code.stmts.len();
        let mut table = Vec::with_capacity(n_stmts * self.shared.len());
        for s in 0..n_stmts {
            for r in &self.shared {
                table.push(self.resolve(StmtId(s as u32), r));
            }
        }
        self.code.shared_ops = table;
        self.code.n_shared = self.shared.len();
        self.code.owners = owners;
        self.code
    }

    fn program(&self) -> &'s Program {
        &self.sp.program
    }

    fn block(&mut self, block: &'s [StmtId], loops: &mut Vec<VarId>, locals: &[VarId]) {
        for &s in block {
            self.stmt(s, loops, locals);
        }
    }

    fn stmt(&mut self, s: StmtId, loops: &mut Vec<VarId>, locals: &[VarId]) {
        let p = self.program();
        let cx = Ctx {
            stmt: Some(s),
            locals,
        };
        let code = match p.stmt(s) {
            Stmt::Assign { lhs, rhs } => {
                let rhs = self.expr(cx, rhs);
                let lhs = match lhs {
                    LValue::Scalar(v) => Target::Scalar(*v, p.vars.info(*v).ty),
                    // The target's subscripts read every scalar from its
                    // owner, locals included.
                    LValue::Array(r) => {
                        let subs = self.subscripts(Ctx::of(s), &r.subs);
                        Target::Elem {
                            subs,
                            site: self.site(Ctx::of(s), r, subs),
                            ty: p.vars.info(r.array).ty,
                        }
                    }
                };
                self.set_exits(s, &[s], loops);
                StmtCode::Assign { rhs, lhs }
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let code = StmtCode::Do {
                    lo: self.subscript(Ctx::of(s), lo),
                    hi: self.subscript(Ctx::of(s), hi),
                    step: self.subscript(Ctx::of(s), step),
                };
                loops.push(*var);
                self.block(body, loops, locals);
                loops.pop();
                code
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => match self.sp.decisions.scalar(s) {
                ScalarMapping::Reduction { loc_var, .. } => {
                    // The accumulator's location variable and every scalar
                    // the body writes are read from each partial owner's
                    // own copy.
                    let mut own: Vec<VarId> = loc_var.iter().copied().collect();
                    own.extend(then_body.iter().filter_map(|&t| p.stmt(t).written_var()));
                    let cond = self.expr(
                        Ctx {
                            stmt: Some(s),
                            locals: &own,
                        },
                        cond,
                    );
                    self.block(then_body, loops, &own);
                    self.block(else_body, loops, locals);
                    let mut stmts = vec![s];
                    stmts.extend(then_body.iter().filter(|&&t| p.stmt(t).is_assign()));
                    self.set_exits(s, &stmts, loops);
                    StmtCode::If { cond, maxloc: true }
                }
                _ => {
                    let cond = self.expr(Ctx::of(s), cond);
                    self.block(then_body, loops, locals);
                    self.block(else_body, loops, locals);
                    StmtCode::If {
                        cond,
                        maxloc: false,
                    }
                }
            },
            Stmt::Goto(_) | Stmt::Continue => StmtCode::None,
        };
        self.code.stmts[s.index()] = code;
    }

    /// Record the DO variables `stmts` (the statement and, for a maxloc
    /// IF, its body) read outside their loops: replay binds them with the
    /// loop indices.
    fn set_exits(&mut self, s: StmtId, stmts: &[StmtId], loops: &[VarId]) {
        let p = self.program();
        let mut exits = Vec::new();
        for &t in stmts {
            for v in p
                .stmt(t)
                .read_exprs()
                .into_iter()
                .flat_map(Expr::scalar_reads)
            {
                if self.do_vars.contains(&v) && !loops.contains(&v) && !exits.contains(&v) {
                    exits.push(v);
                }
            }
        }
        self.code.exits[s.index()] = exits;
    }

    fn span_from(&self, start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// Compile value code for `e`.
    pub(crate) fn expr(&mut self, cx: Ctx, e: &'s Expr) -> Span {
        let start = self.code.ops.len();
        self.push_expr(cx, e);
        self.span_from(start, self.code.ops.len())
    }

    /// Compile subscript code for `e`: it pushes one index.
    pub(crate) fn subscript(&mut self, cx: Ctx, e: &'s Expr) -> Span {
        let start = self.code.ops.len();
        self.push_subscript(cx, e);
        self.span_from(start, self.code.ops.len())
    }

    fn subscripts(&mut self, cx: Ctx, subs: &'s [Expr]) -> Span {
        let start = self.code.ops.len();
        for e in subs {
            self.push_subscript(cx, e);
        }
        self.span_from(start, self.code.ops.len())
    }

    fn push_expr(&mut self, cx: Ctx, e: &'s Expr) {
        let op = match e {
            Expr::IntLit(v) => Op::Lit(Value::Int(*v)),
            Expr::RealLit(v) => Op::Lit(Value::Real(*v)),
            Expr::BoolLit(b) => Op::Lit(Value::Bool(*b)),
            Expr::Scalar(v) if cx.locals.contains(v) => Op::Own(*v),
            Expr::Scalar(v) => Op::Scalar(*v),
            Expr::Array(r) => {
                let subs = self.subscripts(cx, &r.subs);
                Op::Elem(self.site(cx, r, subs))
            }
            Expr::Unary(op, x) => {
                self.push_expr(cx, x);
                match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                }
            }
            Expr::Binary(op, a, b) => {
                self.push_expr(cx, a);
                self.push_expr(cx, b);
                Op::Bin(*op)
            }
            Expr::Intrinsic(i, args) => {
                for a in args {
                    self.push_expr(cx, a);
                }
                Op::Intrinsic(*i, args.len() as u32)
            }
        };
        self.code.ops.push(op);
    }

    fn push_subscript(&mut self, cx: Ctx, e: &'s Expr) {
        let mut var = None;
        match self.affine(cx, e, &mut var) {
            Some((coef, c)) => self.code.ops.push(match var {
                Some(var) => Op::Affine { var, coef, c },
                None => Op::Index(c),
            }),
            None => {
                self.push_expr(cx, e);
                self.code.ops.push(Op::ToInt);
            }
        }
    }

    /// `e` as `coef·var + c` under wrapping arithmetic, when it is built
    /// from integer literals, `+`, `-`, `*` and unary minus over at most one
    /// read of one INTEGER scalar (not one of the locals).
    fn affine(&self, cx: Ctx, e: &Expr, var: &mut Option<VarId>) -> Option<(i64, i64)> {
        Some(match e {
            Expr::IntLit(c) => (0, *c),
            Expr::Scalar(v) => {
                let int = self.program().vars.info(*v).ty == ScalarTy::Int;
                if var.is_some() || !int || cx.locals.contains(v) {
                    return None;
                }
                *var = Some(*v);
                (1, 0)
            }
            Expr::Unary(UnOp::Neg, x) => {
                let (k, c) = self.affine(cx, x, var)?;
                (k.wrapping_neg(), c.wrapping_neg())
            }
            Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b) => {
                let before = var.is_some();
                let (ka, ca) = self.affine(cx, a, var)?;
                let a_reads = var.is_some() != before;
                let (kb, cb) = self.affine(cx, b, var)?;
                match op {
                    BinOp::Add => (ka.wrapping_add(kb), ca.wrapping_add(cb)),
                    BinOp::Sub => (ka.wrapping_sub(kb), ca.wrapping_sub(cb)),
                    // At most one side reads the scalar: the other is
                    // the constant factor.
                    _ if a_reads => (ka.wrapping_mul(cb), ca.wrapping_mul(cb)),
                    _ => (kb.wrapping_mul(ca), cb.wrapping_mul(ca)),
                }
            }
            _ => return None,
        })
    }

    fn site(&mut self, cx: Ctx, r: &'s ArrayRef, subs: Span) -> u32 {
        let shape = self
            .program()
            .vars
            .info(r.array)
            .shape()
            .expect("array ref");
        let start = self.code.bounds.len();
        let mut stride = 1;
        for &(lo, hi) in &shape.dims {
            self.code.bounds.push(Bound { lo, hi, stride });
            stride *= hi - lo + 1;
        }
        let op = match cx.stmt {
            Some(s) => SiteOp::Fixed(self.resolve(s, r)),
            None => {
                self.shared.push(r);
                SiteOp::PerStmt(self.shared.len() as u32 - 1)
            }
        };
        self.code.sites.push(Site {
            array: r.array,
            rank: r.subs.len() as u32,
            bounds: self.span_from(start, self.code.bounds.len()),
            op,
        });
        self.code.site_subs.push(subs);
        self.code.sites.len() as u32 - 1
    }

    /// The operation a fetch through `r` by statement `s` belongs to.
    fn resolve(&self, s: StmtId, r: &ArrayRef) -> Option<u32> {
        self.comms_of[s.index()]
            .iter()
            .find(|(d, _)| matches!(d, CommData::Array(x) if x == r))
            .map(|&(_, i)| i)
    }

    /// The scalars the code of `span` reads through the engine's load,
    /// or `None` when it also reads an array element or an own copy.
    pub(crate) fn scalar_reads(&self, span: Span) -> Option<Vec<VarId>> {
        let mut out = Vec::new();
        for op in &self.code.ops[span.range()] {
            match *op {
                Op::Scalar(v) | Op::Affine { var: v, .. } => out.push(v),
                Op::Own(_) | Op::Elem(_) => return None,
                _ => {}
            }
        }
        Some(out)
    }

    /// The (data, op index) pairs of statement `s`'s fetches of scalars.
    pub(crate) fn scalar_ops(&self, s: usize) -> Vec<(VarId, usize)> {
        self.comms_of[s]
            .iter()
            .filter_map(|&(d, i)| match d {
                CommData::Scalar(v) => Some((*v, i as usize)),
                CommData::Array(_) => None,
            })
            .collect()
    }
}
