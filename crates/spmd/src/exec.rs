//! The reference SPMD executor: P virtual processors with separate
//! memories, owner-computes guards, fetch-from-owner reads and reduction
//! combines.
//!
//! This executor defines the *semantics* of a lowered program — every
//! mapping configuration (including the deliberately bad ones used as
//! baselines) must produce results identical to the sequential
//! interpreter. Performance is modelled separately by [`crate::costsim`].
//! The executor counts no traffic: with [`SpmdExec::with_trace`] it records
//! each rank's events — the per-element fetches of a hoisted communication
//! operation coalesced into one vectorized
//! [`Event::SendVec`]/[`Event::RecvVec`] message — and the replay of that
//! trace tallies what crosses the wire in its [`crate::wire::Wire`]'s
//! [`crate::metrics::CommMetrics`].
//! Owners come from the lookup the node programs share, and reduction
//! partials are folded with every engine's fold, in ascending pid order.

use crate::code::{self, Code, Fault, Load, Site, Span, Stack, StmtCode};
use crate::env::Env;
use crate::lower::SpmdProgram;
use hpf_analysis::RedOp;
use hpf_dist::ProcGrid;
use hpf_ir::interp::{InterpError, Memory};
use hpf_ir::{Label, Stmt, StmtId, Value, VarId};
use hpf_obs::CommKind;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A storage slot on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    Scalar(VarId),
    /// Array element by linear offset.
    Elem(VarId, usize),
}

/// The class of a per-element message: the traffic class its wire
/// metrics tally and the loop levels its timeline events carry, the same
/// in the executor that records it and in every engine that sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// An element of placed communication operation `op` (an index into
    /// `SpmdProgram::comms`), at the operation's pattern and levels.
    Op(usize),
    /// Data the executor reads while it evaluates an IF predicate or a DO
    /// bound for every rank, `level` loops deep.
    Control(usize),
    /// A read no placed operation accounts for, `level` loops deep.
    Untracked(usize),
    /// A reduction partial on its way to the group leader, combined at the
    /// exit of a loop nested `level` deep.
    Reduce(usize),
    /// A combined reduction value the leader sends back to a member.
    Broadcast(usize),
}

impl Tag {
    /// The placed operation, for an element of one.
    pub fn op(self) -> Option<usize> {
        match self {
            Tag::Op(i) => Some(i),
            _ => None,
        }
    }

    /// The pattern key its wire metrics tally it under.
    pub fn pattern(self, sp: &SpmdProgram) -> &'static str {
        match self {
            Tag::Op(i) => sp.comms[i].pattern.name(),
            Tag::Control(_) => crate::metrics::CONTROL,
            Tag::Untracked(_) => crate::metrics::UNTRACKED,
            Tag::Reduce(_) | Tag::Broadcast(_) => crate::metrics::REDUCE,
        }
    }

    /// The (placement level, statement level) of its timeline events.
    pub fn levels(self, sp: &SpmdProgram) -> (usize, usize) {
        match self {
            Tag::Op(i) => (sp.comms[i].level, sp.comms[i].stmt_level),
            Tag::Control(l) | Tag::Untracked(l) | Tag::Reduce(l) | Tag::Broadcast(l) => (l, l),
        }
    }

    /// The timeline kinds of its send and of its receive.
    pub fn kinds(self) -> (CommKind, CommKind) {
        match self {
            Tag::Reduce(_) => (CommKind::Reduce, CommKind::Reduce),
            Tag::Broadcast(_) => (CommKind::Broadcast, CommKind::Broadcast),
            _ => (CommKind::Send, CommKind::Recv),
        }
    }
}

/// One event of a recorded execution trace (consumed by
/// [`crate::runtime`]'s replay; [`crate::codec`] is its wire form for the
/// socket backend's worker processes).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Send the local value of `slot` to processor `to`.
    Send { to: usize, slot: Slot, tag: Tag },
    /// Receive a value from processor `from` into `slot`.
    Recv { from: usize, slot: Slot, tag: Tag },
    /// Send the local values of `slots` to `to` as one coalesced message
    /// (the vectorized form of the hoisted communication operation `op`,
    /// an index into `SpmdProgram::comms`).
    SendVec {
        to: usize,
        op: usize,
        slots: Vec<Slot>,
    },
    /// Receive one coalesced message from `from`, storing its values into
    /// `slots` in order.
    RecvVec {
        from: usize,
        op: usize,
        slots: Vec<Slot>,
    },
    /// Execute an assignment locally (operands are all local by now).
    Exec { stmt: StmtId, env: Env },
    /// Evaluate a (maxloc) IF locally and run its body when true.
    CondExec { stmt: StmtId, env: Env },
    /// Receive a reduction partial (acc, then loc if present) onto the
    /// value stack, for a combine at the exit of a loop nested `level`
    /// deep.
    RecvPartial {
        from: usize,
        has_loc: bool,
        level: usize,
    },
    /// Fold `count` stacked partials into the local accumulator.
    Combine {
        op: RedOp,
        acc: VarId,
        loc: Option<VarId>,
        count: usize,
    },
}

/// Per-processor event lists.
pub type Trace = Vec<Vec<Event>>;

/// Receiver of finished epochs ([`SpmdExec::with_epoch_sink`]). It owns
/// what it captures, so an executor without one borrows nothing new.
type EpochSink = Box<dyn FnMut(Trace)>;

/// Work counts of an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statement instances executed (summed over processors).
    pub stmt_execs: u64,
}

enum Flow {
    Normal,
    Goto(Label),
}

/// A coalesced message under assembly: further fetches of the same
/// (operation, src, dst) triple append to it instead of opening a new
/// message, until the placement loop advances and the group closes.
struct OpenGroup {
    /// Positions of the group's `SendVec`/`RecvVec` events in the sender's
    /// and receiver's trace. Stable because traces are append-only.
    send_idx: usize,
    recv_idx: usize,
    /// Slots already carried — repeat fetches of one element are free.
    seen: HashSet<Slot>,
}

/// The executor.
///
/// Everything the hot path looks up per statement instance is resolved in
/// [`SpmdExec::new`] into dense tables indexed by `StmtId`/`VarId`, and
/// every expression it evaluates (right-hand sides, targets, guard and
/// aligned-scalar owner subscripts, IF predicates, DO bounds) is compiled
/// once into [`Code`], whose owner lookup it shares
/// with the node programs.
pub struct SpmdExec<'s> {
    sp: &'s SpmdProgram,
    grid: ProcGrid,
    pub mems: Vec<Memory>,
    pub stats: ExecStats,
    steps: u64,
    pub step_limit: u64,
    /// When present, the execution is recorded for threaded replay. With
    /// an epoch sink it holds only the events since the last cut.
    pub trace: Option<Trace>,
    /// Epoch boundaries of the recorded trace: snapshots of every rank's
    /// trace length, taken at top-level statement boundaries and outermost
    /// loop iteration starts — but only while no coalescing group is open,
    /// so every event before a cut is final. The epoch sink hands off the
    /// events between consecutive cuts, and socket workers replay them one
    /// epoch at a time. Always absolute positions in the whole recorded
    /// stream, also when an epoch sink drains it.
    cuts: Vec<Vec<usize>>,
    /// Receives every finished epoch (see [`SpmdExec::with_epoch_sink`]).
    sink: Option<EpochSink>,
    /// Per rank: events already handed to the sink (zero without one).
    drained: Vec<usize>,
    /// Current loop-variable bindings (outermost first).
    loop_env: Vec<(VarId, i64)>,
    /// Coalesce hoisted fetches into vectorized messages (default on).
    vectorize: bool,
    /// Statement currently executing — attributes fetches to placed
    /// communication operations.
    cur_stmt: Option<StmtId>,
    /// Open coalescing groups keyed by (op index, src pid, dst pid); only
    /// a traced run opens any.
    open: HashMap<(usize, usize, usize), OpenGroup>,
    /// The deepest placement level of an open group (when any is open).
    open_deepest: usize,
    /// Inside a global control evaluation (IF predicate, DO bounds):
    /// unattributed fetches are control traffic, not schedule misses.
    ctrl_eval: bool,

    /// The compiled program (taken out while [`SpmdExec::run`] runs it).
    code: Option<Code>,

    // Reusable buffers.
    /// Executor pids of the statement instance being run.
    executors: Vec<usize>,
    /// An assignment target's subscripts.
    target: Vec<i64>,
}

impl<'s> SpmdExec<'s> {
    /// Create an executor; `init` is applied to every processor's memory
    /// (initial data is globally known, as in the benchmark programs).
    pub fn new(sp: &'s SpmdProgram, init: impl Fn(&mut Memory)) -> Self {
        let grid = sp.maps.grid.clone();
        let nproc = grid.total();
        let mems = (0..nproc)
            .map(|_| {
                let mut m = Memory::zeroed(&sp.program);
                init(&mut m);
                m
            })
            .collect();
        let code = Code::new(sp);
        SpmdExec {
            sp,
            grid,
            mems,
            stats: ExecStats::default(),
            steps: 0,
            step_limit: 2_000_000_000,
            trace: None,
            cuts: Vec::new(),
            sink: None,
            drained: vec![0; nproc],
            loop_env: Vec::new(),
            vectorize: true,
            cur_stmt: None,
            open: HashMap::new(),
            open_deepest: 0,
            ctrl_eval: false,
            code: Some(code),
            executors: Vec::new(),
            target: Vec::new(),
        }
    }

    /// Enable trace recording (one event list per processor).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(vec![Vec::new(); self.grid.total()]);
        self
    }

    /// Record the trace and hand it off epoch by epoch: at every new epoch
    /// cut after the first, `sink` receives each rank's events since the
    /// previous cut (one list per rank), and they leave [`SpmdExec::trace`].
    /// A cut never splits a message, so every handed-off event is final;
    /// [`SpmdExec::epoch_cuts`] stays absolute. After a successful run the
    /// sink has received the whole trace and `trace` is empty.
    pub fn with_epoch_sink(mut self, sink: impl FnMut(Trace) + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self.with_trace()
    }

    /// Disable fetch coalescing: every cross-processor element moves as
    /// its own message (the baseline vectorization is compared against).
    pub fn without_vectorization(mut self) -> Self {
        self.vectorize = false;
        self
    }

    /// The recorded trace's epoch boundaries (see the `cuts` field). The
    /// first cut is all zeros, the last covers the full trace; consecutive
    /// duplicates are elided. Empty unless the execution was traced.
    pub fn epoch_cuts(&self) -> &[Vec<usize>] {
        &self.cuts
    }

    /// Snapshot an epoch boundary if it is safe: every rank's current
    /// trace position, provided no coalescing group is open (an open group
    /// still grows an already-recorded event in place, so cutting there
    /// would split a message).
    fn maybe_cut(&mut self) {
        let Some(t) = &mut self.trace else {
            return;
        };
        if !self.open.is_empty() {
            return;
        }
        let cut: Vec<usize> = t.iter().zip(&self.drained).map(|(e, d)| d + e.len()).collect();
        if self.cuts.last() == Some(&cut) {
            return;
        }
        let first = self.cuts.is_empty();
        if let (Some(sink), false) = (&mut self.sink, first) {
            // No group is open, so no recorded index into `t` is live.
            sink(t.iter_mut().map(std::mem::take).collect());
            self.drained.copy_from_slice(&cut);
        }
        self.cuts.push(cut);
    }

    /// One cross-processor element fetch, recorded in the trace (an
    /// untraced run records nothing). A fetch belonging to a hoisted
    /// operation joins that operation's open coalesced message for this
    /// (src, dst) pair, so it costs a wire message only when it opens the
    /// group.
    fn fetch(&mut self, op: Option<usize>, src: usize, dst: usize, slot: Slot) {
        let Some(t) = &mut self.trace else {
            return;
        };
        let hoisted = op.map(|i| self.sp.comms[i].hoisted()).unwrap_or(false);
        if self.vectorize && hoisted {
            let i = op.unwrap();
            let lvl = self.sp.comms[i].level;
            let key = (i, src, dst);
            if self.open.is_empty() || lvl > self.open_deepest {
                self.open_deepest = lvl;
            }
            let g = self.open.entry(key).or_insert_with(|| {
                t[src].push(Event::SendVec {
                    to: dst,
                    op: i,
                    slots: Vec::new(),
                });
                t[dst].push(Event::RecvVec {
                    from: src,
                    op: i,
                    slots: Vec::new(),
                });
                OpenGroup {
                    send_idx: t[src].len() - 1,
                    recv_idx: t[dst].len() - 1,
                    seen: HashSet::new(),
                }
            });
            if g.seen.insert(slot) {
                if let Event::SendVec { slots, .. } = &mut t[src][g.send_idx] {
                    slots.push(slot);
                }
                if let Event::RecvVec { slots, .. } = &mut t[dst][g.recv_idx] {
                    slots.push(slot);
                }
            }
        } else {
            let depth = self.loop_env.len();
            let tag = match op {
                Some(i) => Tag::Op(i),
                None if self.ctrl_eval => Tag::Control(depth),
                None => Tag::Untracked(depth),
            };
            t[src].push(Event::Send { to: dst, slot, tag });
            t[dst].push(Event::Recv { from: src, slot, tag });
        }
    }

    /// Close every coalescing group whose placement loop (at `depth` or
    /// deeper) advanced: the next fetch of its operation starts a new
    /// message.
    fn close_groups(&mut self, depth: usize) {
        if self.open.is_empty() || self.open_deepest < depth {
            return;
        }
        let sp = self.sp;
        self.open.retain(|&(i, _, _), _| sp.comms[i].level < depth);
        self.open_deepest = self
            .open
            .keys()
            .map(|&(i, ..)| sp.comms[i].level)
            .max()
            .unwrap_or(0);
    }

    /// Run to completion.
    pub fn run(&mut self) -> Result<ExecStats, InterpError> {
        let code = self.code.take().expect("code is taken only while run runs");
        let res = self.run_code(&code, &mut code.stack());
        self.code = Some(code);
        res.map_err(|e| *e)
    }

    fn run_code(&mut self, code: &Code, st: &mut Stack) -> Result<ExecStats, Fault> {
        let sp = self.sp;
        self.maybe_cut();
        let flow = self.exec_block(code, st, &sp.program.body)?;
        // Execution is over, so every still-open coalescing group is done
        // growing; close them all so the final cut (which must cover the
        // whole trace) is never vetoed.
        self.close_groups(0);
        self.maybe_cut();
        match flow {
            Flow::Normal => Ok(self.stats),
            Flow::Goto(l) => Err(InterpError::UnresolvedGoto(l.0).into()),
        }
    }

    fn p(&self) -> &'s hpf_ir::Program {
        &self.sp.program
    }

    fn exec_block(&mut self, code: &Code, st: &mut Stack, block: &[StmtId]) -> Result<Flow, Fault> {
        let mut idx = 0;
        while idx < block.len() {
            if self.loop_env.is_empty() {
                // Top-level statement boundary: an epoch cut candidate.
                self.maybe_cut();
            }
            match self.exec_stmt(code, st, block[idx])? {
                Flow::Normal => idx += 1,
                Flow::Goto(l) => {
                    match block
                        .iter()
                        .position(|&s| self.p().node(s).label == Some(l))
                    {
                        Some(pos) => idx = pos,
                        None => return Ok(Flow::Goto(l)),
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Evaluate global control code (an IF predicate or DO bound) as
    /// processor 0: fetches it cannot attribute are control traffic.
    fn control<T>(
        &mut self,
        st: &mut Stack,
        eval: impl FnOnce(&mut Reader<'_, 's>, &mut Stack) -> Result<T, Fault>,
    ) -> Result<T, Fault> {
        self.ctrl_eval = true;
        let res = eval(&mut Reader { x: self, q: 0 }, st);
        self.ctrl_eval = false;
        res
    }

    fn exec_stmt(&mut self, code: &Code, st: &mut Stack, s: StmtId) -> Result<Flow, Fault> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(InterpError::StepLimit.into());
        }
        self.cur_stmt = Some(s);
        match (self.p().stmt(s), code.stmt(s)) {
            (Stmt::Assign { .. }, _) => {
                let mut executors = std::mem::take(&mut self.executors);
                code.guard_pids(s, &mut Reader { x: self, q: 0 }, st, &mut executors)?;
                self.stats.stmt_execs += executors.len() as u64;
                for &q in &executors {
                    // The bindings hold the values the statement reads, so
                    // they are taken before it stores its own.
                    let env = self
                        .trace
                        .is_some()
                        .then(|| env(&self.loop_env, &self.mems[q], code.exits(s)));
                    let mut target = std::mem::take(&mut self.target);
                    let res = code.assign(s, &mut Reader { x: self, q }, st, &mut target);
                    self.target = target;
                    let (slot, val) = res?;
                    code::store(&mut self.mems[q], slot, val)?;
                    if let (Some(t), Some(env)) = (&mut self.trace, env) {
                        t[q].push(Event::Exec { stmt: s, env });
                    }
                }
                self.executors = executors;
                Ok(Flow::Normal)
            }
            (Stmt::Do { var, body, .. }, StmtCode::Do { lo, hi, step }) => {
                let var = *var;
                let (lo, hi, step) = self.control(st, |r, st| {
                    Ok((
                        code.eval_int(lo, r, st)?,
                        code.eval_int(hi, r, st)?,
                        code.eval_int(step, r, st)?,
                    ))
                })?;
                if step == 0 {
                    return Err(InterpError::DivisionByZero.into());
                }
                let mut i = lo;
                let mut out = Flow::Normal;
                self.loop_env.push((var, lo));
                while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
                    // A new iteration at this depth: coalesced messages of
                    // operations placed at this level or deeper are done.
                    self.close_groups(self.loop_env.len());
                    if self.loop_env.len() == 1 {
                        // Outermost-loop iteration start: an epoch cut
                        // candidate (taken only if no level-0 group
                        // straddles the boundary).
                        self.maybe_cut();
                    }
                    for m in &mut self.mems {
                        m.set_scalar(var, Value::Int(i));
                    }
                    self.loop_env.last_mut().unwrap().1 = i;
                    match self.exec_block(code, st, body)? {
                        Flow::Normal => {}
                        Flow::Goto(l) => {
                            out = Flow::Goto(l);
                            break;
                        }
                    }
                    i += step;
                }
                self.loop_env.pop();
                for m in &mut self.mems {
                    m.set_scalar(var, Value::Int(i));
                }
                // Reduction combines attached to this loop.
                self.run_reduces(s)?;
                Ok(out)
            }
            (Stmt::If { then_body, .. }, StmtCode::If { cond, maxloc: true }) => {
                // A maxloc reduction IF executes with per-processor partial
                // state (diverging branches); everything else is uniform.
                self.exec_reduction_if(code, st, s, cond, then_body)
            }
            (
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                },
                StmtCode::If { cond, .. },
            ) => {
                let c = self
                    .control(st, |r, st| code.eval(cond, r, st))?
                    .as_bool()?;
                self.exec_block(code, st, if c { then_body } else { else_body })
            }
            (Stmt::Goto(l), _) => {
                // A jump may re-enter earlier code without a loop-iteration
                // boundary; conservatively close every coalescing group.
                self.open.clear();
                Ok(Flow::Goto(*l))
            }
            (Stmt::Continue, _) => Ok(Flow::Normal),
            (Stmt::Do { .. } | Stmt::If { .. }, _) => {
                unreachable!("every statement the executor reaches is compiled")
            }
        }
    }

    /// Maxloc pattern: each partial owner tests and updates its own
    /// accumulator copy (the compiled condition and body read the locals
    /// from that copy).
    fn exec_reduction_if(
        &mut self,
        code: &Code,
        st: &mut Stack,
        s: StmtId,
        cond: Span,
        then_body: &[StmtId],
    ) -> Result<Flow, Fault> {
        let mut executors = std::mem::take(&mut self.executors);
        code.guard_pids(s, &mut Reader { x: self, q: 0 }, st, &mut executors)?;
        for &q in &executors {
            self.cur_stmt = Some(s);
            let c = code.eval(cond, &mut Reader { x: self, q }, st)?.as_bool()?;
            if let Some(t) = &mut self.trace {
                let env = env(&self.loop_env, &self.mems[q], code.exits(s));
                t[q].push(Event::CondExec { stmt: s, env });
            }
            if !c {
                continue;
            }
            self.stats.stmt_execs += 1;
            for &t in then_body {
                if self.p().stmt(t).is_assign() {
                    self.cur_stmt = Some(t);
                    let mut target = std::mem::take(&mut self.target);
                    let res = code.assign(t, &mut Reader { x: self, q }, st, &mut target);
                    self.target = target;
                    let (slot, val) = res?;
                    code::store(&mut self.mems[q], slot, val)?;
                }
            }
        }
        self.executors = executors;
        Ok(Flow::Normal)
    }

    fn run_reduces(&mut self, l: StmtId) -> Result<(), Fault> {
        let sp = self.sp;
        for op in sp.reduces_of(l) {
            if op.reduce_dims.is_empty() {
                continue; // already complete on the single owner
            }
            // Group pids by coordinates outside the reduce dims: zeroing
            // the reduce-dim digits maps each pid to its group's leader
            // (smallest member).
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for pid in self.grid.pids() {
                let leader = self
                    .grid
                    .resolve_with(pid, |d| op.reduce_dims.contains(&d).then_some(0));
                groups.entry(leader).or_default().push(pid);
            }
            for pids in groups.into_values() {
                // Wire traffic of the combine, in each rank's program
                // order: the members send their partials (acc, then loc)
                // to the leader, which folds them all and then sends the
                // result back to each member in turn.
                if let Some(t) = &mut self.trace {
                    let leader = pids[0];
                    let lvl = self.loop_env.len();
                    let slots: Vec<Slot> =
                        std::iter::once(op.acc).chain(op.loc).map(Slot::Scalar).collect();
                    for &q in &pids[1..] {
                        for &slot in &slots {
                            let tag = Tag::Reduce(lvl);
                            t[q].push(Event::Send { to: leader, slot, tag });
                        }
                        let has_loc = op.loc.is_some();
                        t[leader].push(Event::RecvPartial { from: q, has_loc, level: lvl });
                    }
                    t[leader].push(Event::Combine {
                        op: op.op,
                        acc: op.acc,
                        loc: op.loc,
                        count: pids.len() - 1,
                    });
                    for &q in &pids[1..] {
                        for &slot in &slots {
                            let tag = Tag::Broadcast(lvl);
                            t[leader].push(Event::Send { to: q, slot, tag });
                            t[q].push(Event::Recv { from: leader, slot, tag });
                        }
                    }
                }
                let mems = &self.mems;
                let partial = |q: usize| code::partial(&mems[q], op.acc, op.loc);
                let others = pids[1..].iter().map(|&q| partial(q));
                let best = code::fold_partials(op.op, partial(pids[0]), others)?;
                for &q in &pids {
                    code::set_partial(&mut self.mems[q], op.acc, op.loc, best);
                }
            }
        }
        Ok(())
    }

}

/// Operand reads of the statement instance executing on processor `q`.
struct Reader<'x, 's> {
    x: &'x mut SpmdExec<'s>,
    q: usize,
}

/// Replicated and private-without-alignment scalars come from q's own
/// copy; aligned and reduction scalars and array elements from their
/// owner, a fetch the trace records when the owner is another rank.
impl Load for Reader<'_, '_> {
    fn scalar(&mut self, code: &Code, st: &mut Stack, v: VarId) -> Result<Value, Fault> {
        let q = self.q;
        let Some(own) = code.scalar_owner(v) else {
            return Ok(self.x.mems[q].scalar(v));
        };
        let src = code.owner_pid(own, q, self, st)?;
        if src != q && self.x.trace.is_some() {
            let op = self.x.cur_stmt.and_then(|s| code.scalar_op(s, v));
            self.x.fetch(op, src, q, Slot::Scalar(v));
        }
        Ok(self.x.mems[src].scalar(v))
    }

    fn own(&mut self, v: VarId) -> Value {
        self.x.mems[self.q].scalar(v)
    }

    fn elem(&mut self, code: &Code, site: &Site, idx: &[i64], off: usize) -> Result<Value, Fault> {
        let q = self.q;
        let src = code.elem_owner(site, idx, q);
        if src != q && self.x.trace.is_some() {
            let op = code.site_op(site, self.x.cur_stmt);
            self.x.fetch(op, src, q, Slot::Elem(site.array, off));
        }
        Ok(self.x.mems[src].array(site.array).get(off))
    }
}

/// The bindings an `Exec`/`CondExec` records: the enclosing loops'
/// indices, then the executing rank's value (in `mem`) of every DO
/// variable the statement reads outside its loop (`exits`), which replay
/// binds the same way, since it never sees a loop exit.
fn env(loops: &[(VarId, i64)], mem: &Memory, exits: &[VarId]) -> Env {
    let mut env = Env::from(loops);
    for &v in exits {
        if let Value::Int(x) = mem.scalar(v) {
            env.push(v, x);
        }
    }
    env
}

/// Run a lowered program and check every owner slot against the
/// sequential interpreter ([`crate::runtime::check_against_interpreter`]:
/// bit for bit, unless a Sum or Prod reduction combines partials across
/// ranks). Arrays whose mapping contains privatized dimensions are
/// skipped (their post-loop contents are unspecified, per HPF `NEW`
/// semantics). Returns the executor stats on success.
pub fn validate_against_sequential(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory),
) -> Result<ExecStats, String> {
    let (seq_mem, _) = hpf_ir::interp::run_program(&sp.program, |m| init(m))
        .map_err(|e| format!("sequential run failed: {}", e))?;
    let mut exec = SpmdExec::new(sp, init);
    let stats = exec.run().map_err(|e| format!("spmd run failed: {}", e))?;
    crate::runtime::check_against_interpreter(sp, &exec.mems, &seq_mem)
        .map_err(|e| format!("executor vs interpreter: {}", e))?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    fn lowered(src: &str, cfg: CoreConfig, procs: Option<Vec<usize>>) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let grid = procs.map(hpf_dist::ProcGrid::new);
        let maps = MappingTable::from_program(&p, grid).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        crate::lower::lower(&p, &a, &maps, d)
    }

    const FIG1: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20), D(20), E(20), F(20)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;

    fn fig1_init(p: &hpf_ir::Program) -> impl Fn(&mut Memory) + '_ {
        move |m: &mut Memory| {
            for name in ["a", "b", "c", "e", "f"] {
                let v = p.vars.lookup(name).unwrap();
                let n = p.vars.info(v).shape().unwrap().len() as usize;
                let data: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.25).collect();
                m.fill_real(v, &data);
            }
        }
    }

    #[test]
    fn figure1_semantics_preserved_selected() {
        let sp = lowered(FIG1, CoreConfig::full(), None);
        let stats = validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
        // Parallel execution happened (not everything on one proc).
        assert!(stats.stmt_execs > 0);
    }

    #[test]
    fn figure1_semantics_preserved_replication() {
        let sp = lowered(FIG1, CoreConfig::naive(), None);
        validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
    }

    #[test]
    fn figure1_semantics_preserved_producer() {
        let mut cfg = CoreConfig::full();
        cfg.scalar_policy = phpf_core::ScalarPolicy::ProducerAlign;
        let sp = lowered(FIG1, cfg, None);
        validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
    }

    #[test]
    fn figure1_selected_fewer_messages_than_replication() {
        let sp_sel = lowered(FIG1, CoreConfig::full(), None);
        let sp_rep = lowered(FIG1, CoreConfig::naive(), None);
        // Per-element runs: every fetch that crosses ranks is one message.
        let messages = |sp: &SpmdProgram| {
            let r = crate::runtime::validate_replay_opts(sp, fig1_init(&sp.program), false);
            r.unwrap().metrics.messages()
        };
        let (m_sel, m_rep) = (messages(&sp_sel), messages(&sp_rep));
        assert!(m_sel < m_rep, "selected {} vs replication {}", m_sel, m_rep);
        let st_sel =
            validate_against_sequential(&sp_sel, fig1_init(&sp_sel.program)).unwrap();
        let st_rep =
            validate_against_sequential(&sp_rep, fig1_init(&sp_rep.program)).unwrap();
        // Replication also executes far more statement instances.
        assert!(st_sel.stmt_execs < st_rep.stmt_execs);
    }

    #[test]
    fn dgefa_maxloc_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
REAL A(8,8)
INTEGER j, k, l
REAL tmax
DO k = 1, 7
  tmax = 0.0
  l = k
  DO j = k, 8
    IF (ABS(A(j,k)) > tmax) THEN
      tmax = ABS(A(j,k))
      l = j
    END IF
  END DO
  A(k,8) = A(l,k)
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let a = sp.program.vars.lookup("a").unwrap();
        validate_against_sequential(&sp, |m| {
            let data: Vec<f64> = (0..64)
                .map(|i| ((i * 37 + 11) % 23) as f64 - 11.0)
                .collect();
            m.fill_real(a, &data);
        })
        .unwrap();
    }

    /// Figure 5 reduction: partial sums per processor column combined at
    /// loop exit.
    #[test]
    fn figure5_reduction_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ ALIGN B(i) WITH A(i,1)
!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A
REAL A(8,8), B(8)
INTEGER i, j
REAL s
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let a = sp.program.vars.lookup("a").unwrap();
        let init = |m: &mut Memory| {
            let data: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 0.5).collect();
            m.fill_real(a, &data);
        };
        validate_against_sequential(&sp, init).unwrap();
        let mut exec = SpmdExec::new(&sp, init).with_trace();
        exec.run().unwrap();
        let trace = exec.trace.unwrap();
        let combines = trace.iter().flatten();
        let combines = combines.filter(|e| matches!(e, Event::Combine { .. })).count();
        assert!(combines > 0, "combines happened");
    }

    /// Figure 6 partial privatization preserves semantics of the consumer
    /// array (rsd) while keeping c partially privatized.
    #[test]
    fn figure6_partial_privatization_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, *, BLOCK, BLOCK) :: RSD
REAL RSD(5,8,8,8), C(8,8,5)
INTEGER i, j, k
!HPF$ INDEPENDENT, NEW(c)
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j,1) = RSD(1,i,j,k) + 1.0
    END DO
  END DO
  DO j = 3, 7
    DO i = 2, 7
      RSD(1,i,j,k) = C(i,j-1,1) * 2.0
    END DO
  END DO
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let c = sp.program.vars.lookup("c").unwrap();
        assert!(!sp.maps.of(c).private_dims().is_empty(), "c partially privatized");
        let rsd = sp.program.vars.lookup("rsd").unwrap();
        validate_against_sequential(&sp, |m| {
            let n = sp.program.vars.info(rsd).shape().unwrap().len() as usize;
            let data: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.125 + 0.5).collect();
            m.fill_real(rsd, &data);
        })
        .unwrap();
    }

    /// Figure 7 control flow: privatized IFs with GOTO preserve semantics.
    #[test]
    fn figure7_control_flow_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16), C(16)
INTEGER i
DO i = 1, 16
  IF (B(i) /= 0.0) THEN
    A(i) = A(i) / B(i)
    IF (B(i) < 0.0) GOTO 100
  ELSE
    A(i) = C(i)
    C(i) = C(i) * C(i)
  END IF
100 CONTINUE
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let b = sp.program.vars.lookup("b").unwrap();
        let c = sp.program.vars.lookup("c").unwrap();
        let a = sp.program.vars.lookup("a").unwrap();
        validate_against_sequential(&sp, |m| {
            let bd: Vec<f64> = (0..16)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => 2.0,
                    2 => -1.5,
                    _ => 0.5,
                })
                .collect();
            m.fill_real(b, &bd);
            m.fill_real(c, &(0..16).map(|i| i as f64 + 1.0).collect::<Vec<_>>());
            m.fill_real(a, &(0..16).map(|i| (i as f64) * 0.5).collect::<Vec<_>>());
        })
        .unwrap();
    }
}
