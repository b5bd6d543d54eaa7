//! Message-passing replay runtime over a pluggable transport.
//!
//! One worker per virtual processor — an OS thread over the in-process
//! [`hpf_net::channel`] backend, or a whole OS process over the
//! [`hpf_net::socket`] backend — communicating only through a
//! [`Transport`]. The runtime *replays* the communication schedule
//! recorded by the reference executor
//! ([`crate::exec::SpmdExec::with_trace`]): each worker owns a private
//! [`Memory`], runs its assignments' compiled [`Code`] purely locally, and
//! obtains every remote operand through an actual message.
//!
//! The replay revalidates the schedule end-to-end — if the compiler had
//! failed to move a value that a processor needs, the worker would compute
//! with stale local data and the final cross-check against the reference
//! memories would fail. It also serves as the repo's demonstration that
//! the lowered programs are real SPMD programs, not a bookkeeping fiction:
//! no worker ever touches another worker's memory.
//!
//! The per-rank engine is [`replay_rank_segment`], generic over the
//! transport: the threaded replay runs it once per rank over the whole
//! event list, and the socket workers of `hpf-compile::netrun` run it in
//! separate OS processes, one epoch at a time as the events arrive.
//!
//! On threads, [`validate_replay`] and its variants replay only the
//! programs [`crate::node::engine`] keeps off node programs; every other
//! program runs as [`crate::node`] programs, checked against the
//! sequential interpreter.

use crate::code::{self, Code, Fault, Load, Site, Stack, StmtCode};
use crate::env::Env;
use crate::exec::{fold, Event, Slot, SpmdExec, Trace};
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;
use hpf_analysis::RedOp;
use hpf_ir::interp::{InterpError, Memory};
use hpf_ir::{Program, Value, VarId};
use hpf_net::{channel_group, Transport, WireMsg};
use hpf_obs::{Body, BufTracer, CommKind};
use crate::node::{self, Engine};
use std::sync::{Arc, Mutex};

/// Statistics from a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Wire messages sent (a coalesced `SendVec` counts once).
    pub messages_sent: u64,
    /// Events replayed; for node programs, the statement instances run
    /// plus the messages sent and received.
    pub events: u64,
}

/// Everything a replay produces.
#[derive(Debug)]
pub struct Replayed {
    pub mems: Vec<Memory>,
    pub stats: ReplayStats,
    /// Wire-level accounting, merged over workers. `max_in_flight` is the
    /// transport's gauge peak: sent-but-not-yet-received messages for the
    /// channel backend, receive-queue depth for the socket backend.
    pub metrics: CommMetrics,
    /// Merged per-rank observability timelines, when the replay was traced.
    pub obs: Option<hpf_obs::Trace>,
    /// `true` when the socket driver exhausted its recovery budget and
    /// gracefully degraded to the in-process thread backend; the threaded
    /// runtime itself never sets this.
    pub degraded: bool,
    /// The engine [`validate_replay_traced`] picked: node programs, or the
    /// reference executor and a replay of its trace (with the reason).
    /// `None` for a replay of a trace the caller recorded.
    pub engine: Option<Engine>,
}

/// Replay one rank's recorded event list over a transport, mutating the
/// rank's (already initialised) memory in place, with an optional
/// observability timeline: every wire message this rank sends or receives
/// is recorded as a comm event (sends tagged with the link's wire sequence
/// number when the transport frames its links), and any fault events the
/// transport accumulated are drained into the timeline — on errors too.
/// Returns this rank's stats and its unmerged metrics contribution (the
/// transport's in-flight peak already folded in), and tears the transport
/// down. This is the per-thread engine of the threaded replay below.
fn replay_rank_code<T: Transport>(
    sp: &SpmdProgram,
    code: &Code,
    events: &[Event],
    mem: &mut Memory,
    transport: &mut T,
    mut obs: Option<&mut BufTracer>,
) -> Result<(ReplayStats, CommMetrics), String> {
    let pid = transport.rank();
    let nproc = transport.nproc();
    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, sp.comms.len());
    let mut err = replay_rank_segment(
        sp,
        code,
        events,
        mem,
        transport,
        &mut stats,
        &mut metrics,
        obs.as_deref_mut(),
        |_| {},
    )
    .err();
    if err.is_none() {
        if let Err(e) = transport.finish() {
            err = Some(format!("proc {}: teardown: {}", pid, e));
        }
    }
    if let Some(o) = obs {
        o.absorb(transport.take_fault_events());
    }
    if let Some(e) = err {
        return Err(e);
    }
    metrics.saw_in_flight(transport.peak_in_flight());
    Ok((stats, metrics))
}

/// Replay a *segment* of a rank's event list — the epoch-sized unit of
/// [`crate::exec::SpmdExec::epoch_cuts`] — accumulating stats and metrics
/// across calls. Unlike [`replay_rank_code`] this neither tears the
/// transport down nor folds in its in-flight peak, so a socket worker can
/// replay each epoch over one mesh as the parent streams it and finish
/// only once; the caller compiles `code` ([`Code::new`]) once for all
/// segments. `tick` runs after every replayed event; the fault plan's
/// kill trigger hangs off it.
///
/// Segments must start at epoch cuts: the worker's reduction stack is
/// empty there (a `RecvPartial` batch and its `Combine` always share an
/// epoch), so a fresh internal worker per segment is sound.
#[allow(clippy::too_many_arguments)]
pub fn replay_rank_segment<T: Transport>(
    sp: &SpmdProgram,
    code: &Code,
    events: &[Event],
    mem: &mut Memory,
    transport: &mut T,
    stats: &mut ReplayStats,
    metrics: &mut CommMetrics,
    mut obs: Option<&mut BufTracer>,
    mut tick: impl FnMut(u64),
) -> Result<(), String> {
    let pid = transport.rank();
    let nproc = transport.nproc();
    let mut worker = RankWorker {
        sp,
        program: &sp.program,
        code,
        pid,
        mem,
        transport,
        stack: Vec::new(),
        last_vec: None,
        stats: ReplayStats::default(),
        metrics: CommMetrics::new(nproc, sp.comms.len()),
        obs: obs.as_deref_mut(),
        st: Stack::default(),
    };
    let mut err = None;
    for (i, ev) in events.iter().enumerate() {
        if let Err(e) = worker.step(ev) {
            err = Some(format!("proc {}: {}", pid, e));
            break;
        }
        tick(i as u64);
    }
    stats.messages_sent += worker.stats.messages_sent;
    stats.events += worker.stats.events;
    metrics.merge(&worker.metrics);
    if let Some(o) = obs {
        o.absorb(transport.take_fault_events());
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Run the threaded replay of a recorded trace; returns the per-processor
/// memories, aggregate stats and communication metrics.
pub fn replay(
    sp: &SpmdProgram,
    trace: &Trace,
    init: impl Fn(&mut Memory) + Sync,
) -> Result<Replayed, String> {
    replay_traced(sp, trace, init, false)
}

/// [`replay`] with an optional merged observability trace of every rank's
/// wire traffic (`want_obs = true`).
pub fn replay_traced(
    sp: &SpmdProgram,
    trace: &Trace,
    init: impl Fn(&mut Memory) + Sync,
    want_obs: bool,
) -> Result<Replayed, String> {
    let nproc = trace.len();
    let transports = channel_group(nproc);
    let program = &sp.program;
    let code = &Code::new(sp);
    let total: Mutex<(ReplayStats, CommMetrics)> =
        Mutex::new((ReplayStats::default(), CommMetrics::new(nproc, sp.comms.len())));
    let timelines: Mutex<Vec<(usize, Vec<hpf_obs::TraceEvent>)>> = Mutex::new(Vec::new());
    let joined: Vec<std::thread::Result<Result<Memory, String>>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nproc);
        for (pid, mut transport) in transports.into_iter().enumerate() {
            let events = &trace[pid];
            let init = &init;
            let total = &total;
            let timelines = &timelines;
            let rank = std::thread::Builder::new().name(format!("rank {}", pid));
            let spawned = rank.spawn_scoped(scope, move || {
                let mut mem = Memory::zeroed(program);
                init(&mut mem);
                let mut obs = want_obs.then(|| BufTracer::for_rank(pid));
                let res =
                    replay_rank_code(sp, code, events, &mut mem, &mut transport, obs.as_mut());
                if let Some(o) = obs {
                    timelines.lock().unwrap().push((pid, o.into_events()));
                }
                let (s, m) = res?;
                let mut t = total.lock().unwrap();
                t.0.messages_sent += s.messages_sent;
                t.0.events += s.events;
                t.1.merge(&m);
                Ok(mem)
            });
            handles.push(spawned.expect("spawn a rank thread"));
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mems = join_ranks(joined)?;

    let timelines = timelines.into_inner().unwrap_or_else(|e| e.into_inner());
    let obs = want_obs.then(|| hpf_obs::Trace::from_ranks(timelines));
    let (stats, metrics) = total.into_inner().unwrap_or_else(|e| e.into_inner());
    Ok(Replayed {
        mems,
        stats,
        metrics,
        obs,
        degraded: false,
        engine: None,
    })
}

/// The results of joined rank threads, in rank order, or the first
/// failure: a rank that panicked is reported before the link errors its
/// panic caused on its peers.
pub(crate) fn join_ranks<T>(
    joined: Vec<std::thread::Result<Result<T, String>>>,
) -> Result<Vec<T>, String> {
    let mut failed = None;
    let mut outs = Vec::with_capacity(joined.len());
    for (pid, r) in joined.into_iter().enumerate() {
        match r {
            Err(e) => return Err(format!("proc {}: panicked: {}", pid, panic_text(e))),
            Ok(Err(e)) => {
                failed.get_or_insert(e);
            }
            Ok(Ok(out)) => outs.push(out),
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(outs),
    }
}

/// A panic's message.
pub(crate) fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    match e.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => match e.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "panicked".to_string(),
        },
    }
}

/// Memoised `SendVec` payload: (comm op, section slots, shared buffer).
type VecMemo<'a> = (usize, &'a [Slot], Arc<Vec<Value>>);

struct RankWorker<'a, T: Transport> {
    sp: &'a SpmdProgram,
    program: &'a Program,
    code: &'a Code,
    pid: usize,
    mem: &'a mut Memory,
    transport: &'a mut T,
    /// Stack of received reduction partials `(acc, loc)`.
    stack: Vec<(Value, Option<Value>)>,
    /// Memo of the last materialised `SendVec` payload, so a broadcast
    /// fan-out (the same op and section sent to several destinations)
    /// shares one reference-counted buffer instead of re-cloning the
    /// values per destination. Invalidated by any event that mutates
    /// local memory.
    last_vec: Option<VecMemo<'a>>,
    stats: ReplayStats,
    metrics: CommMetrics,
    /// Observability timeline of this rank (owned by the caller).
    obs: Option<&'a mut BufTracer>,
    /// Evaluation stack of the compiled code.
    st: Stack,
}

/// Replay's operand reads: purely local — by construction every remote
/// operand has already arrived via a Recv event.
pub(crate) struct Local<'m>(pub(crate) &'m Memory);

impl Load for Local<'_> {
    fn scalar(&mut self, _: &Code, _: &mut Stack, v: VarId) -> Result<Value, Fault> {
        Ok(self.0.scalar(v))
    }

    fn own(&mut self, v: VarId) -> Value {
        self.0.scalar(v)
    }

    fn elem(&mut self, _: &Code, site: &Site, _: &[i64], off: usize) -> Result<Value, Fault> {
        Ok(self.0.array(site.array).get(off))
    }
}

impl<'a, T: Transport> RankWorker<'a, T> {
    /// Record one comm event on this rank's timeline. Sends carry the
    /// link's wire sequence number (socket backend); receive-side numbers
    /// would race the reader thread, so they stay `None`.
    fn obs_comm(
        &mut self,
        kind: CommKind,
        (from, to): (usize, usize),
        op: Option<usize>,
        pattern: &str,
        elems: u64,
        seq: Option<u64>,
    ) {
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        let (level, stmt_level) = match op {
            Some(i) => {
                let c = &self.sp.comms[i];
                (c.level, c.stmt_level)
            }
            None => (0, 0),
        };
        o.push(Body::Comm {
            kind,
            from,
            to,
            op,
            pattern: pattern.to_string(),
            level,
            stmt_level,
            place: hpf_comm::placement_tag(level, stmt_level),
            elems,
            seq,
        });
    }
    /// Send one wire message.
    fn send_msg(&mut self, to: usize, msg: &WireMsg) -> Result<(), String> {
        self.transport.send(to, msg).map_err(|e| e.to_string())?;
        self.stats.messages_sent += 1;
        Ok(())
    }

    fn recv_msg(&mut self, from: usize) -> Result<WireMsg, String> {
        self.transport.recv(from).map_err(|e| e.to_string())
    }

    fn recv_one(&mut self, from: usize) -> Result<Value, String> {
        match self.recv_msg(from)? {
            WireMsg::One(v) => Ok(v),
            WireMsg::Many(_) => Err("expected a single-value message, got a section".into()),
        }
    }

    fn slot_bytes(&self, slot: Slot) -> u64 {
        let v = match slot {
            Slot::Scalar(v) => v,
            Slot::Elem(v, _) => v,
        };
        self.program.vars.info(v).ty.byte_size() as u64
    }

    fn step(&mut self, ev: &'a Event) -> Result<(), String> {
        self.stats.events += 1;
        match ev {
            Event::Send { to, slot } => {
                let v = self.load(*slot);
                let bytes = self.slot_bytes(*slot);
                self.send_msg(*to, &WireMsg::One(v))
                    .map_err(|e| format!("element send to {}: {}", to, e))?;
                // The trace does not attribute per-element sends to an
                // operation; count them under the generic element pattern.
                self.metrics
                    .note_message(crate::metrics::ELEMENT, None, self.pid, *to, bytes);
                let seq = self.transport.link_seq(*to);
                self.obs_comm(CommKind::Send, (self.pid, *to), None, crate::metrics::ELEMENT, 1, seq);
            }
            Event::Recv { from, slot } => {
                let v = self
                    .recv_one(*from)
                    .map_err(|e| format!("element recv from {}: {}", from, e))?;
                self.obs_comm(CommKind::Recv, (*from, self.pid), None, crate::metrics::ELEMENT, 1, None);
                self.last_vec = None;
                self.store_slot(*slot, v).map_err(|e| e.to_string())?;
            }
            Event::SendVec { to, op, slots } => {
                let vals = match &self.last_vec {
                    Some((mop, mslots, buf)) if *mop == *op && *mslots == &slots[..] => {
                        buf.clone()
                    }
                    _ => {
                        let buf: Arc<Vec<Value>> =
                            Arc::new(slots.iter().map(|&s| self.load(s)).collect());
                        self.last_vec = Some((*op, slots, buf.clone()));
                        buf
                    }
                };
                let pattern = self.sp.comms[*op].pattern.name();
                self.metrics
                    .note_message(pattern, Some(*op), self.pid, *to, 0);
                for &s in slots {
                    let b = self.slot_bytes(s);
                    self.metrics.note_payload(pattern, *op, self.pid, *to, b);
                }
                self.send_msg(*to, &WireMsg::Many(vals))
                    .map_err(|e| format!("section send (op {}) to {}: {}", op, to, e))?;
                let seq = self.transport.link_seq(*to);
                self.obs_comm(CommKind::SendVec, (self.pid, *to), Some(*op), pattern, slots.len() as u64, seq);
            }
            Event::RecvVec { from, op, slots } => {
                let vals = match self
                    .recv_msg(*from)
                    .map_err(|e| format!("section recv (op {}) from {}: {}", op, from, e))?
                {
                    WireMsg::Many(v) => v,
                    WireMsg::One(_) => {
                        return Err("expected a coalesced section, got a single value".into())
                    }
                };
                if vals.len() != slots.len() {
                    return Err(format!(
                        "section length mismatch: got {}, expected {}",
                        vals.len(),
                        slots.len()
                    ));
                }
                let pattern = self.sp.comms[*op].pattern.name();
                self.obs_comm(CommKind::RecvVec, (*from, self.pid), Some(*op), pattern, slots.len() as u64, None);
                self.last_vec = None;
                for (&s, &v) in slots.iter().zip(vals.iter()) {
                    self.store_slot(s, v).map_err(|e| e.to_string())?;
                }
            }
            Event::Exec { stmt, env } => {
                self.last_vec = None;
                self.bind(env);
                let StmtCode::Assign { .. } = self.code.stmt(*stmt) else {
                    return Err("Exec event on non-assignment".into());
                };
                self.run_assign(*stmt).map_err(|e| e.to_string())?;
            }
            Event::CondExec { stmt, env } => {
                self.last_vec = None;
                self.bind(env);
                let (hpf_ir::Stmt::If { then_body, .. }, StmtCode::If { cond, .. }) =
                    (self.program.stmt(*stmt), self.code.stmt(*stmt))
                else {
                    return Err("CondExec event on non-IF".into());
                };
                let c = self
                    .code
                    .eval(cond, &mut Local(self.mem), &mut self.st)
                    .map_err(|e| e.to_string())?
                    .as_bool()
                    .map_err(|e| e.to_string())?;
                if c {
                    for &t in then_body {
                        if self.program.stmt(t).is_assign() {
                            self.run_assign(t).map_err(|e| e.to_string())?;
                        }
                    }
                }
            }
            Event::RecvPartial { from, has_loc } => {
                let acc = self
                    .recv_one(*from)
                    .map_err(|e| format!("reduction partial from {}: {}", from, e))?;
                self.obs_comm(CommKind::Reduce, (*from, self.pid), None, crate::metrics::REDUCE, 1, None);
                let loc = if *has_loc {
                    let l = self
                        .recv_one(*from)
                        .map_err(|e| format!("reduction location from {}: {}", from, e))?;
                    self.obs_comm(CommKind::Reduce, (*from, self.pid), None, crate::metrics::REDUCE, 1, None);
                    Some(l)
                } else {
                    None
                };
                self.stack.push((acc, loc));
            }
            Event::Combine {
                op,
                acc,
                loc,
                count,
            } => {
                self.last_vec = None;
                let mut best = self.mem.scalar(*acc);
                let mut best_loc = loc.map(|lv| self.mem.scalar(lv));
                for _ in 0..*count {
                    let (v, vl) = self
                        .stack
                        .pop()
                        .ok_or_else(|| "combine stack underflow".to_string())?;
                    if fold(*op, &mut best, v).map_err(|e| e.to_string())? {
                        best_loc = vl;
                    }
                }
                self.mem.set_scalar(*acc, best);
                if let (Some(lv), Some(bl)) = (loc, best_loc) {
                    self.mem.set_scalar(*lv, bl);
                }
            }
        }
        Ok(())
    }

    fn bind(&mut self, env: &Env) {
        for (v, x) in env.iter() {
            self.mem.set_scalar(v, Value::Int(x));
        }
    }

    fn load(&self, slot: Slot) -> Value {
        match slot {
            Slot::Scalar(v) => self.mem.scalar(v),
            Slot::Elem(v, off) => self.mem.array(v).get(off),
        }
    }

    fn store_slot(&mut self, slot: Slot, val: Value) -> Result<(), InterpError> {
        match slot {
            Slot::Scalar(v) => {
                let ty = self.program.vars.info(v).ty;
                self.mem.set_scalar(v, val.coerce(ty)?);
            }
            Slot::Elem(v, off) => {
                self.mem.array_mut(v).set(off, val)?;
            }
        }
        Ok(())
    }

    /// Run assignment `s` on local memory.
    fn run_assign(&mut self, s: hpf_ir::StmtId) -> Result<(), Fault> {
        let (slot, val) = self.code.assign(s, &mut Local(self.mem), &mut self.st)?;
        code::store(self.mem, slot, val)
    }
}

/// Compare the *authoritative* slots of replayed memories against the
/// reference executor's: every array element on its owner processor(s).
/// (Non-owned local copies legitimately differ: the replay stages received
/// values into them, while the reference executor reads owner memory
/// directly.) Shared by the threaded validation below and the socket
/// backend's multi-process validation.
pub fn check_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    reference: &[Memory],
) -> Result<(), String> {
    compare_owner_slots(sp, mems, false, |pid, v, off, got| {
        let want = reference[pid].array(v).get(off);
        (got == want).then_some(()).ok_or("diverged from reference")
    })
}

/// Compare the owner slots of `mems` with the sequential interpreter's
/// memory `seq`: bit for bit, or within the 1e-9 relative tolerance of
/// [`crate::validate_against_sequential`] when a Sum or Prod reduction
/// combines partials across ranks (it adds them in another order). Arrays
/// with privatized dimensions are skipped: their contents after the loop
/// are unspecified.
fn check_against_interpreter(
    sp: &SpmdProgram,
    mems: &[Memory],
    seq: &Memory,
) -> Result<(), String> {
    let tolerant = sp
        .reduces
        .iter()
        .any(|r| !r.reduce_dims.is_empty() && matches!(r.op, RedOp::Sum | RedOp::Prod));
    compare_owner_slots(sp, mems, true, |_, v, off, got| {
        let want = seq.array(v).get(off);
        let same = match (got, want) {
            (Value::Real(g), Value::Real(w)) if tolerant => {
                (g - w).abs() <= 1e-9 * (1.0 + w.abs())
            }
            (Value::Real(g), Value::Real(w)) => g.to_bits() == w.to_bits(),
            _ => got == want,
        };
        same.then_some(()).ok_or("differs from the sequential interpreter")
    })
}

/// Run `check(pid, array, offset, value)` on every owner slot of `mems`,
/// skipping arrays with privatized dimensions when `skip_private`.
fn compare_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    skip_private: bool,
    check: impl Fn(usize, VarId, usize, Value) -> Result<(), &'static str>,
) -> Result<(), String> {
    let grid = &sp.maps.grid;
    let mut idx = Vec::new();
    for (v, info) in sp.program.vars.arrays() {
        let shape = info.shape().unwrap();
        let mapping = sp.maps.of(v);
        if skip_private && !mapping.private_dims().is_empty() {
            continue;
        }
        // Without replicated or privatized dimensions each element has
        // exactly one owner; otherwise a pid owns a copy exactly when the
        // element resolves to itself for that reader.
        let copies = mapping.has_copies();
        for off in 0..shape.len() as usize {
            shape.delinearize_into(off, &mut idx);
            let single = mapping.owner_pid(grid, &idx, 0);
            for pid in grid.pids() {
                let owns = if copies {
                    mapping.owner_pid(grid, &idx, pid) == pid
                } else {
                    pid == single
                };
                if !owns {
                    continue;
                }
                if let Err(what) = check(pid, v, off, mems[pid].array(v).get(off)) {
                    return Err(format!("proc {} array {} {} at {:?}", pid, info.name, what, idx));
                }
            }
        }
    }
    Ok(())
}

/// Run a lowered program on threads and check every processor's owner
/// slots. Returns the run's memories, stats and metrics.
pub fn validate_replay(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory) + Sync,
) -> Result<Replayed, String> {
    validate_replay_opts(sp, init, true)
}

/// [`validate_replay`] with explicit control over message vectorization:
/// `vectorize = false` moves every remote element as its own message (the
/// differential baseline for the coalesced schedule).
pub fn validate_replay_opts(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory) + Sync,
    vectorize: bool,
) -> Result<Replayed, String> {
    validate_replay_traced(sp, init, vectorize, false)
}

/// [`validate_replay_opts`] with an optional merged observability trace of
/// the ranks (`want_obs = true` fills [`Replayed::obs`]).
///
/// The engine comes from [`node::engine`]. Node programs run on one thread
/// per rank with the sequential interpreter on a thread beside them, and
/// the ranks' owner slots are checked against the interpreter
/// ([`check_against_interpreter`]). A program that falls back records a
/// trace with the reference executor, replays it on threads and checks the
/// owner slots against the executor's memories.
pub fn validate_replay_traced(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory) + Sync,
    vectorize: bool,
    want_obs: bool,
) -> Result<Replayed, String> {
    let why = match node::engine(sp) {
        Engine::Node => {
            let (ranks, seq) = std::thread::scope(|scope| {
                let oracle = std::thread::Builder::new()
                    .name("oracle".into())
                    .spawn_scoped(scope, || hpf_ir::interp::run_program(&sp.program, &init))
                    .expect("spawn the oracle thread");
                let ranks = node::run(sp, &init, vectorize, want_obs);
                (ranks, oracle.join())
            });
            let seq = match seq {
                Ok(Ok((mem, _))) => mem,
                Ok(Err(e)) => return ranks.and(Err(format!("sequential run failed: {}", e))),
                Err(e) => {
                    return Err(format!("sequential interpreter panicked: {}", panic_text(e)))
                }
            };
            let ranks = ranks?;
            check_against_interpreter(sp, &ranks.mems, &seq)
                .map_err(|e| format!("threads vs interpreter: {}", e))?;
            return Ok(ranks);
        }
        Engine::Replay(why) => why,
    };
    let mut exec = SpmdExec::new(sp, &init).with_trace();
    if !vectorize {
        exec = exec.without_vectorization();
    }
    exec.run().map_err(|e| format!("reference run failed: {}", e))?;
    let trace = exec.trace.take().expect("trace recorded");
    let mut replayed = replay_traced(sp, &trace, &init, want_obs)?;
    check_owner_slots(sp, &replayed.mems, &exec.mems)
        .map_err(|e| format!("threads vs reference: {}", e))?;
    replayed.engine = Some(Engine::Replay(why));
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    fn lowered(src: &str, cfg: CoreConfig) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        crate::lower::lower(&p, &a, &maps, d)
    }

    #[test]
    fn threaded_replay_matches_reference_stencil() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(32), B(32)
INTEGER i, t
DO t = 1, 3
  DO i = 2, 31
    B(i) = (A(i-1) + A(i+1)) * 0.5
  END DO
  DO i = 2, 31
    A(i) = B(i)
  END DO
END DO
"#;
        let sp = lowered(src, CoreConfig::full());
        let a = sp.program.vars.lookup("a").unwrap();
        let r = validate_replay(&sp, move |m| {
            let data: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        // Boundary exchanges really happened over channels.
        assert!(r.stats.messages_sent > 0);
        assert!(r.stats.events > 0);
        assert_eq!(r.metrics.messages(), r.stats.messages_sent);
        assert!(r.metrics.max_in_flight >= 1);
    }

    #[test]
    fn threaded_replay_with_reduction() {
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
        let sp = lowered(src, CoreConfig::full());
        let a = sp.program.vars.lookup("a").unwrap();
        let r = validate_replay(&sp, move |m| {
            let data: Vec<f64> = (0..64).map(|i| (i % 9) as f64).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        assert!(r.stats.messages_sent > 0);
    }

    #[test]
    fn threaded_replay_figure1() {
        let src = r#"
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
        let sp = lowered(src, CoreConfig::full());
        let names: Vec<hpf_ir::VarId> = ["a", "b", "c", "e", "f"]
            .iter()
            .map(|n| sp.program.vars.lookup(n).unwrap())
            .collect();
        let r = validate_replay(&sp, move |m| {
            for &v in &names {
                let data: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 0.125).collect();
                m.fill_real(v, &data);
            }
        })
        .unwrap();
        assert!(r.stats.events > 0);
    }
}
