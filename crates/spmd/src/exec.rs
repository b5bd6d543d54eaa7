//! The reference SPMD executor: P virtual processors with separate
//! memories, owner-computes guards, fetch-from-owner reads and reduction
//! combines.
//!
//! This executor defines the *semantics* of a lowered program — every
//! mapping configuration (including the deliberately bad ones used as
//! baselines) must produce results identical to the sequential
//! interpreter. Performance is modelled separately by [`crate::costsim`].
//! [`ExecStats`] still counts exact per-element fetches (an upper bound,
//! useful for invariants); wire-level traffic — where the per-element
//! fetches of a hoisted communication operation coalesce into one
//! vectorized [`Event::SendVec`]/[`Event::RecvVec`] message — is recorded
//! in [`CommMetrics`], directly comparable to the cost model's message
//! predictions (checked by [`crate::crosscheck`]).

use crate::code::{self, Code, Compiler, Ctx, Fault, Load, Site, Span, Stack, StmtCode};
use crate::env::Env;
use crate::guard::Guard;
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;
use crate::wire::{comm_event, slot_bytes};
use hpf_analysis::RedOp;
use hpf_dist::{dist_owner, ArrayMapping, GridDimRule, ProcGrid};
use hpf_ir::interp::{eval_binop, eval_intrinsic, ArrayStore, InterpError, Memory};
use hpf_ir::{ArrayRef, DistFormat, Label, Stmt, StmtId, Value, VarId};
use hpf_obs::{BufTracer, CommKind};
use phpf_core::ScalarMapping;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A storage slot on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    Scalar(VarId),
    /// Array element by linear offset.
    Elem(VarId, usize),
}

/// One event of a recorded execution trace (consumed by
/// [`crate::runtime`]'s replay; [`crate::codec`] is its wire form for the
/// socket backend's worker processes).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Send the local value of `slot` to processor `to`.
    Send { to: usize, slot: Slot },
    /// Receive a value from processor `from` into `slot`.
    Recv { from: usize, slot: Slot },
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
    /// value stack.
    RecvPartial { from: usize, has_loc: bool },
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

/// Message statistics of an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Element fetches that crossed processors.
    pub messages: u64,
    /// Bytes moved by those fetches.
    pub bytes: u64,
    /// Reduction combine exchanges.
    pub combines: u64,
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
    /// and receiver's trace (present only when tracing). Stable because
    /// traces are append-only.
    send_idx: Option<usize>,
    recv_idx: Option<usize>,
    /// Positions of the group's comm events in the sender's and receiver's
    /// observability timelines (present only when observing), so each
    /// coalesced element grows the open message's `elems` in place.
    obs_send: Option<usize>,
    obs_recv: Option<usize>,
    /// Slots already carried — repeat fetches of one element are free.
    seen: HashSet<Slot>,
}

/// How one grid coordinate of an owner reference is found at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DimRule {
    /// Every coordinate: a replicated, privatized or freed dimension.
    Any,
    At(usize),
    /// Distribution owner of the template position of a subscript
    /// (compiled subscript code).
    Sub {
        sub: Span,
        dist: DistFormat,
        stride: i64,
        offset: i64,
        t_lo: i64,
        t_extent: i64,
    },
}

/// An owner reference resolved against its array's mapping once per
/// program: one [`DimRule`] per grid dimension, stored in `dim_rules`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwnerRef {
    pub(crate) array: VarId,
    pub(crate) dims: Span,
    /// No grid dimension is free: the owner is one pid for every reader.
    pub(crate) pinned: bool,
    /// Index of its [`Memo`] when its subscripts read nothing but scalars
    /// from the reader's own copy.
    pub(crate) memo: Option<u32>,
}

/// The owner an [`OwnerRef`] last resolved to. Its subscripts read only
/// scalars from the reader's own copy (no element, no fetch), so equal
/// values of those scalars give equal coordinates: a lookup that finds
/// them unchanged reuses the owner, whatever wrote them in between.
#[derive(Clone)]
pub(crate) struct Memo {
    /// The scalars the subscripts read.
    reads: Vec<VarId>,
    /// Their values when `found` was resolved.
    vals: Vec<Value>,
    /// (reader, owner pid) last resolved; any reader may reuse it when
    /// the reference is pinned.
    found: Option<(usize, usize)>,
}

impl Memo {
    /// The owner last found for `reader` (for any reader when `pinned`),
    /// if the scalars in `mem` still hold the values it was found with.
    #[inline]
    pub(crate) fn hit(&self, mem: &Memory, reader: usize, pinned: bool) -> Option<usize> {
        let (r, src) = self.found?;
        let same = |(&v, &x): (&VarId, &Value)| mem.scalar(v) == x;
        ((pinned || r == reader) && self.reads.iter().zip(&self.vals).all(same)).then_some(src)
    }

    /// Remember `src` as the owner found for `reader` with the scalars'
    /// values in `mem`.
    pub(crate) fn remember(&mut self, mem: &Memory, reader: usize, src: usize) {
        self.vals.clear();
        self.vals.extend(self.reads.iter().map(|&v| mem.scalar(v)));
        self.found = Some((reader, src));
    }
}

/// The executor.
///
/// Everything the hot path looks up per statement instance is resolved in
/// [`SpmdExec::new`] into dense tables indexed by `StmtId`/`VarId`, and
/// every expression it evaluates (right-hand sides, targets, guard and
/// aligned-scalar owner subscripts, IF predicates, DO bounds) is compiled
/// once into [`Code`]. Owners are computed by arithmetic on pid digits
/// ([`ProcGrid::resolve_with`]); owner coordinates go through a reusable
/// stack.
pub struct SpmdExec<'s> {
    sp: &'s SpmdProgram,
    grid: ProcGrid,
    pub mems: Vec<Memory>,
    pub stats: ExecStats,
    /// Wire-level communication accounting (coalesced messages count once).
    pub metrics: CommMetrics,
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
    /// When present, one observability timeline per processor: every wire
    /// message yields a send-side event on the source rank's timeline and
    /// a receive-side event on the destination rank's.
    pub obs: Option<Vec<BufTracer>>,
    /// Current loop-variable bindings (outermost first).
    loop_env: Vec<(VarId, i64)>,
    /// Coalesce hoisted fetches into vectorized messages (default on).
    vectorize: bool,
    /// Statement currently executing — attributes fetches to placed
    /// communication operations.
    cur_stmt: Option<StmtId>,
    /// Open coalescing groups keyed by (op index, src pid, dst pid).
    open: HashMap<(usize, usize, usize), OpenGroup>,
    /// The deepest placement level of an open group (when any is open).
    open_deepest: usize,
    /// Inside a global control evaluation (IF predicate, DO bounds):
    /// unattributed fetches are control traffic, not schedule misses.
    ctrl_eval: bool,
    /// `PHPF_DEBUG_UNTRACKED` was set when the executor was created.
    debug_untracked: bool,

    // Per-program lookup tables.
    /// The compiled program (taken out while [`SpmdExec::run`] runs it).
    code: Option<Code>,
    /// By `StmtId`: the guard's owner reference, `None` for every pid.
    guards: Vec<Option<OwnerRef>>,
    /// By `VarId`: where a scalar read comes from — `None` for the
    /// reader's own copy, else the owner of its alignment target.
    scalar_owner: Vec<Option<OwnerRef>>,
    /// By `VarId`: the mapping of each array.
    array_maps: Vec<Option<&'s ArrayMapping>>,
    /// Flat storage of every [`OwnerRef`]'s per-dimension rules.
    dim_rules: Vec<DimRule>,
    memos: Vec<Memo>,
    /// By `StmtId`: the (scalar, op index) pairs a scalar fetch issued by
    /// the statement resolves to; the first match wins.
    scalar_ops: Vec<Vec<(VarId, usize)>>,

    // Reusable stacks: a nested evaluation pushes above its caller's
    // entries and truncates back to where it started.
    coords: Vec<Option<usize>>,
    /// Executor pids of the statement instance being run.
    executors: Vec<usize>,
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
        let metrics = CommMetrics::new(nproc, sp.comms.len());
        let p = &sp.program;
        let (n_stmts, n_vars) = (p.num_stmts(), p.vars.len());

        let mut cc = Compiler::new(sp);
        let owners = owner_tables(sp, &mut cc);
        let array_maps: Vec<_> = (0..n_vars).map(|v| sp.maps.get(VarId(v as u32))).collect();
        let scalar_ops = (0..n_stmts).map(|s| cc.scalar_ops(s)).collect();

        SpmdExec {
            sp,
            grid,
            mems,
            stats: ExecStats::default(),
            metrics,
            steps: 0,
            step_limit: 2_000_000_000,
            trace: None,
            cuts: Vec::new(),
            sink: None,
            drained: vec![0; nproc],
            obs: None,
            loop_env: Vec::new(),
            vectorize: true,
            cur_stmt: None,
            open: HashMap::new(),
            open_deepest: 0,
            ctrl_eval: false,
            debug_untracked: std::env::var_os("PHPF_DEBUG_UNTRACKED").is_some(),
            code: Some(cc.finish()),
            guards: owners.guards,
            scalar_owner: owners.scalar_owner,
            array_maps,
            dim_rules: owners.dim_rules,
            memos: owners.memos,
            scalar_ops,
            coords: Vec::new(),
            executors: Vec::new(),
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

    /// Enable observability recording (one timeline per processor).
    pub fn with_obs(mut self) -> Self {
        self.obs = Some((0..self.grid.total()).map(BufTracer::for_rank).collect());
        self
    }

    /// Take the recorded observability timelines as one merged trace
    /// (ranks in ascending order). `None` unless [`SpmdExec::with_obs`]
    /// was used.
    pub fn take_obs(&mut self) -> Option<hpf_obs::Trace> {
        self.obs.take().map(|ts| {
            hpf_obs::Trace::from_ranks(
                ts.into_iter()
                    .enumerate()
                    .map(|(r, t)| (r, t.into_events()))
                    .collect(),
            )
        })
    }

    /// Record one wire message on both endpoint timelines; returns the
    /// (send, recv) event indices for in-place growth of coalesced groups.
    #[allow(clippy::too_many_arguments)]
    fn obs_message(
        &mut self,
        (send_kind, recv_kind): (CommKind, CommKind),
        (src, dst): (usize, usize),
        op: Option<usize>,
        pattern: &str,
        (level, stmt_level): (usize, usize),
        elems: u64,
    ) -> (Option<usize>, Option<usize>) {
        let Some(obs) = &mut self.obs else {
            return (None, None);
        };
        let mk = |kind| comm_event(kind, (src, dst), op, pattern, (level, stmt_level), elems, None);
        let s = obs[src].push(mk(send_kind));
        let r = obs[dst].push(mk(recv_kind));
        (Some(s), Some(r))
    }

    /// Disable fetch coalescing: every cross-processor element moves as
    /// its own message (the baseline vectorization is compared against).
    pub fn without_vectorization(mut self) -> Self {
        self.vectorize = false;
        self
    }

    fn record(&mut self, pid: usize, ev: Event) {
        if let Some(t) = &mut self.trace {
            t[pid].push(ev);
        }
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

    /// One cross-processor element fetch: always counted per-element in
    /// `stats`; in `metrics` (and the trace) a fetch belonging to a
    /// hoisted operation joins that operation's open coalesced message for
    /// this (src, dst) pair, so it costs a wire message only when it opens
    /// the group.
    fn fetch(&mut self, op: Option<usize>, src: usize, dst: usize, slot: Slot, bytes: u64) {
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        let hoisted = op.map(|i| self.sp.comms[i].hoisted()).unwrap_or(false);
        if self.vectorize && hoisted {
            let i = op.unwrap();
            let pattern = self.sp.comms[i].pattern.name();
            let key = (i, src, dst);
            if !self.open.contains_key(&key) {
                let (send_idx, recv_idx) = match &mut self.trace {
                    Some(t) => {
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
                        (Some(t[src].len() - 1), Some(t[dst].len() - 1))
                    }
                    None => (None, None),
                };
                let (lvl, slvl) = {
                    let c = &self.sp.comms[i];
                    (c.level, c.stmt_level)
                };
                if self.open.is_empty() || lvl > self.open_deepest {
                    self.open_deepest = lvl;
                }
                let (obs_send, obs_recv) = self.obs_message(
                    (CommKind::SendVec, CommKind::RecvVec),
                    (src, dst),
                    Some(i),
                    pattern,
                    (lvl, slvl),
                    0,
                );
                self.open.insert(
                    key,
                    OpenGroup {
                        send_idx,
                        recv_idx,
                        obs_send,
                        obs_recv,
                        seen: HashSet::new(),
                    },
                );
                self.metrics.note_message(pattern, Some(i), src, dst, 0);
                self.metrics.saw_in_flight(self.open.len() as u64);
            }
            let g = self.open.get_mut(&key).unwrap();
            if g.seen.insert(slot) {
                if let Some(t) = &mut self.trace {
                    if let Some(Event::SendVec { slots, .. }) =
                        g.send_idx.map(|x| &mut t[src][x])
                    {
                        slots.push(slot);
                    }
                    if let Some(Event::RecvVec { slots, .. }) =
                        g.recv_idx.map(|x| &mut t[dst][x])
                    {
                        slots.push(slot);
                    }
                }
                if let Some(obs) = &mut self.obs {
                    if let Some(x) = g.obs_send {
                        obs[src].bump_elems(x, 1);
                    }
                    if let Some(x) = g.obs_recv {
                        obs[dst].bump_elems(x, 1);
                    }
                }
                self.metrics.note_payload(pattern, i, src, dst, bytes);
            }
        } else {
            let pattern = match op {
                Some(i) => self.sp.comms[i].pattern.name(),
                None if self.ctrl_eval => crate::metrics::CONTROL,
                None => {
                    if self.debug_untracked {
                        eprintln!(
                            "untracked fetch at stmt {:?} slot {:?} {}->{}",
                            self.cur_stmt, slot, src, dst
                        );
                    }
                    crate::metrics::UNTRACKED
                }
            };
            self.metrics.note_message(pattern, op, src, dst, bytes);
            let (lvl, slvl) = match op {
                Some(i) => {
                    let c = &self.sp.comms[i];
                    (c.level, c.stmt_level)
                }
                None => (self.loop_env.len(), self.loop_env.len()),
            };
            self.obs_message((CommKind::Send, CommKind::Recv), (src, dst), op, pattern, (lvl, slvl), 1);
            if self.trace.is_some() {
                self.record(src, Event::Send { to: dst, slot });
                self.record(dst, Event::Recv { from: src, slot });
            }
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
        let res = self.run_code(&code, &mut Stack::default());
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
                self.guard_pids(code, st, s, &mut executors)?;
                self.stats.stmt_execs += executors.len() as u64;
                for &q in &executors {
                    // The bindings hold the values the statement reads, so
                    // they are taken before it stores its own.
                    let env = self
                        .trace
                        .is_some()
                        .then(|| env(&self.loop_env, &self.mems[q], code.exits(s)));
                    let (slot, val) = code.assign(s, &mut Reader { x: self, q }, st)?;
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
        self.guard_pids(code, st, s, &mut executors)?;
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
                    let (slot, val) = code.assign(t, &mut Reader { x: self, q }, st)?;
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
                // Wire traffic of the combine: members stream partials to
                // the leader, which folds and broadcasts the result back.
                {
                    let leader = pids[0];
                    let acc_bytes = slot_bytes(self.p(), Slot::Scalar(op.acc));
                    let loc_bytes = op.loc.map(|lv| slot_bytes(self.p(), Slot::Scalar(lv)));
                    for &q in &pids[1..] {
                        for (a, b) in [(q, leader), (leader, q)] {
                            self.metrics
                                .note_message(crate::metrics::REDUCE, None, a, b, acc_bytes);
                            if let Some(lb) = loc_bytes {
                                self.metrics
                                    .note_message(crate::metrics::REDUCE, None, a, b, lb);
                            }
                        }
                    }
                }
                if self.obs.is_some() {
                    // One obs event pair per wire message: members stream
                    // partials (acc, then loc) to the leader, the leader
                    // broadcasts the folded result back.
                    let leader = pids[0];
                    let lvl = self.loop_env.len();
                    let n_msgs = 1 + usize::from(op.loc.is_some());
                    for &q in &pids[1..] {
                        for _ in 0..n_msgs {
                            self.obs_message(
                                (CommKind::Reduce, CommKind::Reduce),
                                (q, leader),
                                None,
                                crate::metrics::REDUCE,
                                (lvl, lvl),
                                1,
                            );
                        }
                        for _ in 0..n_msgs {
                            self.obs_message(
                                (CommKind::Broadcast, CommKind::Broadcast),
                                (leader, q),
                                None,
                                crate::metrics::REDUCE,
                                (lvl, lvl),
                                1,
                            );
                        }
                    }
                }
                if self.trace.is_some() {
                    let leader = pids[0];
                    for &q in &pids[1..] {
                        self.record(q, Event::Send { to: leader, slot: Slot::Scalar(op.acc) });
                        if let Some(lv) = op.loc {
                            self.record(q, Event::Send { to: leader, slot: Slot::Scalar(lv) });
                        }
                        self.record(leader, Event::RecvPartial { from: q, has_loc: op.loc.is_some() });
                    }
                    self.record(leader, Event::Combine {
                        op: op.op,
                        acc: op.acc,
                        loc: op.loc,
                        count: pids.len() - 1,
                    });
                    for &q in &pids[1..] {
                        self.record(leader, Event::Send { to: q, slot: Slot::Scalar(op.acc) });
                        self.record(q, Event::Recv { from: leader, slot: Slot::Scalar(op.acc) });
                        if let Some(lv) = op.loc {
                            self.record(leader, Event::Send { to: q, slot: Slot::Scalar(lv) });
                            self.record(q, Event::Recv { from: leader, slot: Slot::Scalar(lv) });
                        }
                    }
                }
                let mut best_acc = self.mems[pids[0]].scalar(op.acc);
                let mut best_loc = op.loc.map(|lv| self.mems[pids[0]].scalar(lv));
                for &q in &pids[1..] {
                    if fold(op.op, &mut best_acc, self.mems[q].scalar(op.acc))? {
                        best_loc = op.loc.map(|lv| self.mems[q].scalar(lv));
                    }
                }
                for &q in &pids {
                    self.mems[q].set_scalar(op.acc, best_acc);
                    if let (Some(lv), Some(bl)) = (op.loc, best_loc) {
                        self.mems[q].set_scalar(lv, bl);
                    }
                    self.stats.combines += 1;
                }
            }
        }
        Ok(())
    }

    /// Fill `out` with the pids executing statement `s` under its guard,
    /// ascending.
    fn guard_pids(
        &mut self,
        code: &Code,
        st: &mut Stack,
        s: StmtId,
        out: &mut Vec<usize>,
    ) -> Result<(), Fault> {
        out.clear();
        let Some(own) = self.guards[s.index()] else {
            out.extend(self.grid.pids());
            return Ok(());
        };
        if own.pinned {
            out.push(self.owner_pid(code, st, own, 0)?);
            return Ok(());
        }
        let base = self.owner_coords(code, st, own, 0)?;
        let coords = &self.coords[base..];
        let grid = &self.grid;
        out.extend(
            grid.pids()
                .filter(|&p| grid.resolve_with(p, |d| coords[d]) == p),
        );
        self.coords.truncate(base);
        Ok(())
    }

    /// Push the owner coordinates of a reference onto `coords`, one per
    /// grid dimension (`None` where every coordinate holds a copy),
    /// evaluating the pinned dimensions' subscripts for `reader`; returns
    /// where they start.
    fn owner_coords(
        &mut self,
        code: &Code,
        st: &mut Stack,
        own: OwnerRef,
        reader: usize,
    ) -> Result<usize, Fault> {
        let base = self.coords.len();
        for (g, k) in own.dims.range().enumerate() {
            let c = match self.dim_rules[k] {
                DimRule::Any => None,
                DimRule::At(c) => Some(c),
                DimRule::Sub {
                    sub,
                    dist,
                    stride,
                    offset,
                    t_lo,
                    t_extent,
                } => {
                    let x = code.eval_int(sub, &mut Reader { x: self, q: reader }, st)?;
                    let pos0 = stride * x + offset - t_lo;
                    if pos0 < 0 || pos0 >= t_extent {
                        return Err(InterpError::OutOfBounds {
                            array: self.p().vars.name(own.array).to_string(),
                            index: vec![x],
                        }
                        .into());
                    }
                    Some(dist_owner(dist, pos0, t_extent, self.grid.extent(g)))
                }
            };
            self.coords.push(c);
        }
        Ok(base)
    }

    /// The pid `reader` takes a value owned per `own` from.
    fn owner_pid(
        &mut self,
        code: &Code,
        st: &mut Stack,
        own: OwnerRef,
        reader: usize,
    ) -> Result<usize, Fault> {
        if let Some(m) = own.memo {
            if let Some(src) = self.memos[m as usize].hit(&self.mems[reader], reader, own.pinned) {
                return Ok(src);
            }
        }
        let base = self.owner_coords(code, st, own, reader)?;
        let coords = &self.coords[base..];
        let src = self.grid.resolve_with(reader, |d| coords[d]);
        self.coords.truncate(base);
        if let Some(m) = own.memo {
            self.memos[m as usize].remember(&self.mems[reader], reader, src);
        }
        Ok(src)
    }

    /// A scalar read by `q`: replicated and private-without-alignment
    /// scalars come from q's own copy, aligned and reduction scalars from
    /// their owner.
    fn read_scalar(
        &mut self,
        code: &Code,
        st: &mut Stack,
        v: VarId,
        q: usize,
    ) -> Result<Value, Fault> {
        let Some(own) = self.scalar_owner[v.index()] else {
            return Ok(self.mems[q].scalar(v));
        };
        let src = self.owner_pid(code, st, own, q)?;
        if src != q {
            let bytes = slot_bytes(self.p(), Slot::Scalar(v));
            let op = self.cur_stmt.and_then(|s| {
                self.scalar_ops[s.index()]
                    .iter()
                    .find(|&&(w, _)| w == v)
                    .map(|&(_, i)| i)
            });
            self.fetch(op, src, q, Slot::Scalar(v), bytes);
        }
        Ok(self.mems[src].scalar(v))
    }

    /// An array element read by `q`, fetched from its owner.
    fn read_elem(&mut self, code: &Code, site: &Site, idx: &[i64], off: usize, q: usize) -> Value {
        let mapping = self.array_maps[site.array.index()].expect("mapped array");
        let src = mapping.owner_pid(&self.grid, idx, q);
        if src != q {
            let op = code.site_op(site, self.cur_stmt);
            let slot = Slot::Elem(site.array, off);
            self.fetch(op, src, q, slot, slot_bytes(self.p(), slot));
        }
        self.mems[src].array(site.array).get(off)
    }

    /// Gather the authoritative value of every element of an array
    /// (fetching each element from an owner).
    pub fn gather_array(&self, v: VarId) -> ArrayStore {
        let info = self.p().vars.info(v);
        let shape = info.shape().expect("array");
        let mut out = ArrayStore::zeroed(info.ty, shape.len() as usize);
        let mapping = self.sp.maps.of(v);
        let mut idx = Vec::with_capacity(shape.rank());
        for off in 0..shape.len() as usize {
            shape.delinearize_into(off, &mut idx);
            let src = mapping.owner_pid(&self.grid, &idx, 0);
            out.set(off, self.mems[src].array(v).get(off)).unwrap();
        }
        out
    }
}

/// Operand reads of the statement instance executing on processor `q`.
struct Reader<'x, 's> {
    x: &'x mut SpmdExec<'s>,
    q: usize,
}

impl Load for Reader<'_, '_> {
    fn scalar(&mut self, code: &Code, st: &mut Stack, v: VarId) -> Result<Value, Fault> {
        self.x.read_scalar(code, st, v, self.q)
    }

    fn own(&mut self, v: VarId) -> Value {
        self.x.mems[self.q].scalar(v)
    }

    fn elem(&mut self, code: &Code, site: &Site, idx: &[i64], off: usize) -> Result<Value, Fault> {
        Ok(self.x.read_elem(code, site, idx, off, self.q))
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

/// The owner references of a program, their subscripts compiled into the
/// code `cc` builds.
pub(crate) struct OwnerTables {
    /// By `StmtId`: the guard's owner reference, `None` for every pid.
    pub(crate) guards: Vec<Option<OwnerRef>>,
    /// By `VarId`: the owner of an aligned or reduction scalar's target,
    /// `None` for a scalar read from the reader's own copy.
    pub(crate) scalar_owner: Vec<Option<OwnerRef>>,
    /// Flat storage of every [`OwnerRef`]'s per-dimension rules.
    pub(crate) dim_rules: Vec<DimRule>,
    pub(crate) memos: Vec<Memo>,
}

pub(crate) fn owner_tables<'s>(sp: &'s SpmdProgram, cc: &mut Compiler<'s>) -> OwnerTables {
    let p = &sp.program;
    let mut refs = OwnerRefs {
        sp,
        dim_rules: Vec::new(),
        memoized: Vec::new(),
        memos: Vec::new(),
    };
    let guards = (0..p.num_stmts())
        .map(|s| {
            let s = StmtId(s as u32);
            match sp.guard(s) {
                Guard::Everyone | Guard::Union => None,
                Guard::OwnerOf { r, free_dims } => Some(refs.get(cc, Ctx::of(s), r, free_dims)),
            }
        })
        .collect();
    let scalar_owner = (0..p.vars.len())
        .map(|v| match sp.scalar_mapping(VarId(v as u32)) {
            ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign => None,
            ScalarMapping::Aligned { target, .. } => Some(refs.get(cc, Ctx::SHARED, target, &[])),
            ScalarMapping::Reduction {
                target,
                reduce_dims,
                ..
            } => Some(refs.get(cc, Ctx::SHARED, target, reduce_dims)),
        })
        .collect();
    OwnerTables {
        guards,
        scalar_owner,
        dim_rules: refs.dim_rules,
        memos: refs.memos,
    }
}

/// Builds the executor's owner references.
struct OwnerRefs<'s> {
    sp: &'s SpmdProgram,
    dim_rules: Vec<DimRule>,
    /// The memoized references built so far, by target and free
    /// dimensions.
    memoized: Vec<(&'s ArrayRef, &'s [usize], OwnerRef)>,
    memos: Vec<Memo>,
}

impl<'s> OwnerRefs<'s> {
    /// The owner reference of `r` with the grid dimensions in `free` left
    /// unconstrained (reduction mapping): one [`DimRule`] per grid
    /// dimension, its subscripts compiled in `cx`. A memoized reference's
    /// code reads no element and fetches nothing, so it does not depend
    /// on the statement: equal targets share it, and so its memo.
    fn get(
        &mut self,
        cc: &mut Compiler<'s>,
        cx: Ctx,
        r: &'s ArrayRef,
        free: &'s [usize],
    ) -> OwnerRef {
        let same = |&&(t, f, _): &&(&ArrayRef, &[usize], OwnerRef)| t == r && f == free;
        if let Some(&(.., own)) = self.memoized.iter().find(same) {
            return own;
        }
        let sp = self.sp;
        let start = self.dim_rules.len();
        let mut reads = Some(Vec::new());
        for (g, rule) in sp.maps.of(r.array).rules.iter().enumerate() {
            self.dim_rules.push(if free.contains(&g) {
                DimRule::Any
            } else {
                match rule {
                    GridDimRule::ByDim {
                        array_dim,
                        dist,
                        stride,
                        offset,
                        t_lo,
                        t_extent,
                    } => {
                        let sub = cc.subscript(cx, &r.subs[*array_dim]);
                        reads = reads.zip(cc.scalar_reads(sub)).map(|(mut all, more)| {
                            all.extend(more);
                            all
                        });
                        DimRule::Sub {
                            sub,
                            dist: *dist,
                            stride: *stride,
                            offset: *offset,
                            t_lo: *t_lo,
                            t_extent: *t_extent,
                        }
                    }
                    GridDimRule::Fixed(c) => DimRule::At(*c),
                    GridDimRule::Replicated | GridDimRule::Private => DimRule::Any,
                }
            });
        }
        // Only a scalar without an owner is read from the reader's copy.
        let own_copy = |v: &VarId| {
            matches!(
                sp.scalar_mapping(*v),
                ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign
            )
        };
        let reads = reads.filter(|vs| vs.iter().all(own_copy));
        let own = OwnerRef {
            array: r.array,
            dims: Span {
                start: start as u32,
                end: self.dim_rules.len() as u32,
            },
            pinned: !self.dim_rules[start..]
                .iter()
                .any(|d| matches!(d, DimRule::Any)),
            memo: reads.map(|reads| {
                self.memos.push(Memo {
                    reads,
                    vals: Vec::new(),
                    found: None,
                });
                self.memos.len() as u32 - 1
            }),
        };
        if own.memo.is_some() {
            self.memoized.push((r, free, own));
        }
        own
    }
}

/// Fold partial `v` into `best` under reduction `op`. Returns `true` when
/// a MAXLOC partial wins, so its location replaces the best one.
pub(crate) fn fold(op: RedOp, best: &mut Value, v: Value) -> Result<bool, InterpError> {
    *best = match op {
        RedOp::Sum => eval_binop(hpf_ir::BinOp::Add, *best, v)?,
        RedOp::Prod => eval_binop(hpf_ir::BinOp::Mul, *best, v)?,
        RedOp::Max => eval_intrinsic(hpf_ir::Intrinsic::Max, &[*best, v])?,
        RedOp::Min => eval_intrinsic(hpf_ir::Intrinsic::Min, &[*best, v])?,
        RedOp::MaxLoc => {
            if !eval_binop(hpf_ir::BinOp::Gt, v, *best)?.as_bool()? {
                return Ok(false);
            }
            v
        }
    };
    Ok(op == RedOp::MaxLoc)
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
        let st_sel =
            validate_against_sequential(&sp_sel, fig1_init(&sp_sel.program)).unwrap();
        let st_rep =
            validate_against_sequential(&sp_rep, fig1_init(&sp_rep.program)).unwrap();
        assert!(
            st_sel.messages < st_rep.messages,
            "selected {} vs replication {}",
            st_sel.messages,
            st_rep.messages
        );
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
        let stats = validate_against_sequential(&sp, |m| {
            let data: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 0.5).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        assert!(stats.combines > 0, "combines happened");
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
