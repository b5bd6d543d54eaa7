//! Message-passing replay runtime over a pluggable transport.
//!
//! One worker per virtual processor — an OS thread over the in-process
//! [`hpf_net::channel`] backend, or a whole OS process over the
//! [`hpf_net::socket`] backend — communicating only through a
//! [`Transport`]. The runtime *replays* the communication schedule
//! recorded by the reference executor
//! ([`crate::exec::SpmdExec::with_trace`]): each worker owns a private
//! [`Memory`], runs its assignments' compiled [`Code`] purely locally, and
//! obtains every remote operand through an actual message, over its
//! [`Wire`]. A `Combine` folds the partials its `RecvPartial`s stacked in
//! the order they arrived (pid order), as the executor does.
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
//! separate OS processes, one epoch at a time as the events arrive. One
//! thread driver ([`spawn_ranks`]) runs every rank engine, the replay and
//! the node programs alike.
//!
//! On threads, [`validate_replay`] and its variants replay only the
//! programs [`crate::node::engine`] keeps off node programs; every other
//! program runs as [`crate::node`] programs, checked against the
//! sequential interpreter.

use crate::code::{self, Code, Fault, Load, Site, Stack, StmtCode};
use crate::env::Env;
use crate::exec::{Event, Slot, SpmdExec, Tag, Trace};
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;
use crate::node::{self, Engine};
use crate::wire::{self, Wire};
use hpf_analysis::RedOp;
use hpf_dist::layout::held_dims;
use hpf_ir::interp::Memory;
use hpf_ir::HeldBox;
use hpf_ir::{Program, Value, VarId};
use hpf_net::{channel_group, ChannelTransport, Transport};
use hpf_obs::BufTracer;
use std::sync::Arc;

/// Everything a replay produces.
#[derive(Debug)]
pub struct Replayed {
    pub mems: Vec<Memory>,
    /// Wire-level accounting, merged over workers: the run's one count of
    /// its messages and bytes (a coalesced section counts once). `max_in_flight` is the
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

/// Replay a *segment* of a rank's event list — the epoch-sized unit of
/// [`crate::exec::SpmdExec::epoch_cuts`] — over the rank's [`Wire`],
/// mutating its (already initialised) memory in place. The wire keeps
/// its metrics across calls, so a socket worker can replay each
/// epoch over one mesh as the parent streams it and end with one
/// [`Wire::finish`]; the threaded replay runs one segment of the whole
/// list. The caller compiles `code` ([`Code::new`]) once for all
/// segments. `tick` runs after every replayed event; the fault plan's
/// kill trigger hangs off it.
///
/// Segments must start at epoch cuts: the worker's reduction stack is
/// empty there (a `RecvPartial` batch and its `Combine` always share an
/// epoch), so a fresh internal worker per segment is sound.
pub fn replay_rank_segment<T: Transport>(
    code: &Code,
    events: &[Event],
    mem: &mut Memory,
    wire: &mut Wire<'_, T>,
    mut tick: impl FnMut(u64),
) -> Result<(), String> {
    let pid = wire.rank();
    let mut worker = RankWorker {
        program: &wire.sp().program,
        code,
        mem,
        wire,
        stack: Vec::new(),
        last_vec: None,
        st: Stack::default(),
        target: Vec::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        worker
            .step(ev)
            .map_err(|e| format!("proc {}: {}", pid, e))?;
        tick(i as u64);
    }
    Ok(())
}

/// Run the threaded replay of a recorded trace; returns the per-processor
/// memories and merged communication metrics.
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
    let code = &Code::new(sp);
    let whole = |_| Memory::zeroed(&sp.program);
    run_ranks(sp, trace.len(), &init, want_obs, whole, |wire, mut mem| {
        let events = &trace[wire.rank()];
        replay_rank_segment(code, events, &mut mem, wire, |_| {})?;
        Ok(mem)
    })
}

/// What a rank thread of [`spawn_ranks`] ends with: the engine's output
/// with the rank's metrics (or its error) and the rank's timeline, or the
/// panic that ended it.
pub(crate) type RankEnd<M> = std::thread::Result<(Result<(CommMetrics, M), String>, BufTracer)>;

/// Run one rank engine per scoped thread over the in-process channel
/// backend. `rank` gets the rank's [`Wire`] and its memory, `memory(pid)`
/// filled by `init`; [`Wire::finish`] ends every rank. Returns each rank's
/// end, in rank order.
pub(crate) fn spawn_ranks<'s, M: Send>(
    sp: &'s SpmdProgram,
    nproc: usize,
    init: &(impl Fn(&mut Memory) + Sync),
    want_obs: bool,
    memory: impl Fn(usize) -> Memory + Sync,
    rank: impl Fn(&mut Wire<'s, ChannelTransport>, Memory) -> Result<M, String> + Sync,
) -> Vec<RankEnd<M>> {
    let (rank, memory) = (&rank, &memory);
    std::thread::scope(|scope| {
        let handles: Vec<_> = channel_group(nproc)
            .into_iter()
            .enumerate()
            .map(|(pid, transport)| {
                let thread = std::thread::Builder::new().name(format!("rank {}", pid));
                let spawned = thread.spawn_scoped(scope, move || {
                    let mut mem = memory(pid);
                    init(&mut mem);
                    let mut wire = Wire::new(sp, transport, want_obs);
                    let run = rank(&mut wire, mem);
                    wire.finish(run)
                });
                spawned.expect("spawn a rank thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// [`spawn_ranks`] for engines that end with the rank's memory: merges
/// what the ranks hand back. A rank that fails or panics fails the run
/// with an error naming it.
pub(crate) fn run_ranks<'s>(
    sp: &'s SpmdProgram,
    nproc: usize,
    init: &(impl Fn(&mut Memory) + Sync),
    want_obs: bool,
    memory: impl Fn(usize) -> Memory + Sync,
    rank: impl Fn(&mut Wire<'s, ChannelTransport>, Memory) -> Result<Memory, String> + Sync,
) -> Result<Replayed, String> {
    let joined = spawn_ranks(sp, nproc, init, want_obs, memory, rank);
    let mut out = Replayed {
        mems: Vec::with_capacity(nproc),
        metrics: CommMetrics::new(nproc, sp.comms.len()),
        obs: None,
        degraded: false,
        engine: None,
    };
    let mut timelines = Vec::with_capacity(nproc);
    // A rank that panicked is reported before the link errors its panic
    // caused on its peers; otherwise the first failed rank is.
    let mut failed = None;
    for (pid, joined) in joined.into_iter().enumerate() {
        match joined {
            Err(e) => return Err(format!("proc {}: panicked: {}", pid, panic_text(e))),
            Ok((Err(e), _)) => {
                failed.get_or_insert(e);
            }
            Ok((Ok((metrics, mem)), timeline)) => {
                out.metrics.merge(&metrics);
                out.mems.push(mem);
                timelines.push((pid, timeline.into_events()));
            }
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }
    out.obs = want_obs.then(|| hpf_obs::Trace::from_ranks(timelines));
    Ok(out)
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

struct RankWorker<'a, 's, T: Transport> {
    program: &'s Program,
    code: &'a Code,
    mem: &'a mut Memory,
    wire: &'a mut Wire<'s, T>,
    /// Stack of received reduction partials `(acc, loc)`.
    stack: Vec<(Value, Option<Value>)>,
    /// Memo of the last materialised `SendVec` payload, so a broadcast
    /// fan-out (the same op and section sent to several destinations)
    /// shares one reference-counted buffer instead of re-cloning the
    /// values per destination. Invalidated by any event that mutates
    /// local memory.
    last_vec: Option<VecMemo<'a>>,
    /// Evaluation stack of the compiled code.
    st: Stack,
    /// An assignment target's subscripts.
    target: Vec<i64>,
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

    fn elem(&mut self, code: &Code, site: &Site, idx: &[i64], off: usize) -> Result<Value, Fault> {
        let store = self.0.array(site.array);
        match store.at(idx, off) {
            Some(k) => Ok(store.load(k)),
            None => Err(code.not_held(site.array, idx)),
        }
    }
}

impl<'a, T: Transport> RankWorker<'a, '_, T> {
    fn step(&mut self, ev: &'a Event) -> Result<(), String> {
        match ev {
            Event::Send { to, slot, tag } => {
                let val = wire::load(self.mem, *slot);
                self.wire.send_one(*to, *slot, val, *tag)?
            }
            Event::Recv { from, slot, tag } => {
                let v = self.wire.recv_one(*from, *tag)?;
                self.last_vec = None;
                wire::store(self.program, self.mem, *slot, v).map_err(|e| e.to_string())?;
            }
            Event::SendVec { to, op, slots } => {
                let vals = match &self.last_vec {
                    Some((mop, mslots, buf)) if *mop == *op && *mslots == &slots[..] => {
                        buf.clone()
                    }
                    _ => {
                        let buf: Arc<Vec<Value>> =
                            Arc::new(slots.iter().map(|&s| wire::load(self.mem, s)).collect());
                        self.last_vec = Some((*op, slots, buf.clone()));
                        buf
                    }
                };
                self.wire.send_section(*to, *op, slots, vals)?;
            }
            Event::RecvVec { from, op, slots } => {
                let vals = self.wire.recv_section(*from, *op, Some(slots.len()))?;
                self.last_vec = None;
                for (&s, &v) in slots.iter().zip(vals.iter()) {
                    wire::store(self.program, self.mem, s, v).map_err(|e| e.to_string())?;
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
            Event::RecvPartial {
                from,
                has_loc,
                level,
            } => {
                let tag = Tag::Reduce(*level);
                let acc = self.wire.recv_one(*from, tag)?;
                let loc = if *has_loc {
                    Some(self.wire.recv_one(*from, tag)?)
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
                // The partials were stacked in their senders' pid order.
                let start = self.stack.len().checked_sub(*count);
                let start = start.ok_or_else(|| "combine stack underflow".to_string())?;
                let own = code::partial(self.mem, *acc, *loc);
                let best = code::fold_partials(*op, own, self.stack.drain(start..))
                    .map_err(|e| e.to_string())?;
                code::set_partial(self.mem, *acc, *loc, best);
            }
        }
        Ok(())
    }

    fn bind(&mut self, env: &Env) {
        for (v, x) in env.iter() {
            self.mem.set_scalar(v, Value::Int(x));
        }
    }

    /// Run assignment `s` on local memory.
    fn run_assign(&mut self, s: hpf_ir::StmtId) -> Result<(), Fault> {
        let (slot, val) =
            self.code
                .assign(s, &mut Local(self.mem), &mut self.st, &mut self.target)?;
        code::store(self.mem, slot, val)
    }
}

/// Compare the *authoritative* slots of replayed memories against the
/// reference executor's: every array element on its owner processor(s).
/// (Non-owned local copies legitimately differ: the replay stages received
/// values into them, while the reference executor reads owner memory
/// directly.) Values compare bit for bit, so a NaN matches the same NaN.
/// Shared by the threaded validation below and the socket backend's
/// multi-process validation.
pub fn check_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    reference: &[Memory],
) -> Result<(), String> {
    compare_owner_slots(sp, mems, false, |pid, v, off, got| {
        let want = reference[pid].array(v).get(off);
        same_bits(got, want).then_some(()).ok_or("diverged from reference")
    })
}

/// Bit-for-bit equality of two values.
fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Compare the owner slots of `mems` with the sequential interpreter's
/// memory `seq`: bit for bit, or within a 1e-9 relative tolerance when a
/// Sum or Prod reduction combines partials across ranks (it adds them in
/// another order). Arrays with privatized dimensions are skipped: their
/// contents after the loop are unspecified. The one rule for every
/// comparison with the interpreter: the thread backend's runs and
/// [`crate::validate_against_sequential`].
pub(crate) fn check_against_interpreter(
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
            _ => same_bits(got, want),
        };
        same.then_some(()).ok_or("differs from the sequential interpreter")
    })
}

/// Run `check(pid, array, offset, value)` on every owner slot of `mems`,
/// skipping arrays with privatized dimensions when `skip_private`. Each
/// rank's owner slots are its `held_dims` box, walked in place when its
/// store holds exactly that box. A rank whose store lacks one of its owner
/// slots fails the comparison.
fn compare_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    skip_private: bool,
    check: impl Fn(usize, VarId, usize, Value) -> Result<(), &'static str>,
) -> Result<(), String> {
    let grid = &sp.maps.grid;
    if mems.len() != grid.total() {
        return Err(format!("{} memories for {} ranks", mems.len(), grid.total()));
    }
    for (v, info) in sp.program.vars.arrays() {
        let shape = info.shape().unwrap();
        let mapping = sp.maps.of(v);
        if skip_private && !mapping.private_dims().is_empty() {
            continue;
        }
        for (pid, mem) in grid.pids().zip(mems) {
            let dims = held_dims(mapping, grid, shape, &grid.coords_of(pid));
            let store = mem.array(v);
            let in_place = store.held().is_some_and(|b| b.dims() == &dims[..]);
            let mut failed = None;
            HeldBox::new(shape, dims).for_each(|k, off| {
                if failed.is_some() {
                    return;
                }
                let got = if in_place { Some(store.load(k)) } else { store.try_get(off) };
                let res = got
                    .ok_or("does not hold its owner slot")
                    .and_then(|got| check(pid, v, off, got));
                if let Err(what) = res {
                    failed = Some((off, what));
                }
            });
            if let Some((off, what)) = failed {
                let idx = shape.delinearize(off);
                return Err(format!("proc {} array {} {} at {:?}", pid, info.name, what, idx));
            }
        }
    }
    Ok(())
}

/// Run a lowered program on threads and check every processor's owner
/// slots. Returns the run's memories and metrics.
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
    let engine = node::engine(sp);
    crate::stores::check_budget(sp, engine == Engine::Node)?;
    let why = match engine {
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
        assert!(r.metrics.messages() > 0);
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
        assert!(r.metrics.messages() > 0);
    }

    /// Owner slots of the interpreter's memory on every rank, with `b`'s
    /// element at offset `off` one ulp off on its owner; returns that
    /// owner's pid.
    fn one_ulp_off(sp: &SpmdProgram, seq: &Memory, off: usize) -> (Vec<Memory>, usize) {
        let b = sp.program.vars.lookup("b").unwrap();
        let mut idx = Vec::new();
        sp.program.vars.info(b).shape().unwrap().delinearize_into(off, &mut idx);
        let owner = sp.maps.of(b).owner_pid(&sp.maps.grid, &idx, 0);
        let mut mems = vec![seq.clone(); sp.maps.grid.total()];
        let Value::Real(x) = seq.array(b).get(off) else {
            panic!("b is REAL");
        };
        let bumped = Value::Real(f64::from_bits(x.to_bits() + 1));
        mems[owner].array_mut(b).set(off, bumped).unwrap();
        (mems, owner)
    }

    #[test]
    fn interpreter_check_is_bit_exact_without_cross_rank_sums() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(32), B(32)
INTEGER i
DO i = 2, 31
  B(i) = (A(i-1) + A(i+1)) * 0.5
END DO
"#;
        let sp = lowered(src, CoreConfig::full());
        let a = sp.program.vars.lookup("a").unwrap();
        let data: Vec<f64> = (0..32).map(|i| i as f64 / 3.0).collect();
        let init = |m: &mut Memory| m.fill_real(a, &data);
        let (seq, _) = hpf_ir::interp::run_program(&sp.program, init).unwrap();
        let (mems, owner) = one_ulp_off(&sp, &seq, 20);
        assert_eq!(owner, 2);
        let err = check_against_interpreter(&sp, &mems, &seq).unwrap_err();
        assert_eq!(err, "proc 2 array b differs from the sequential interpreter at [21]");
    }

    #[test]
    fn interpreter_check_tolerates_cross_rank_sums() {
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
        assert!(sp
            .reduces
            .iter()
            .any(|r| !r.reduce_dims.is_empty() && r.op == RedOp::Sum));
        let a = sp.program.vars.lookup("a").unwrap();
        let data: Vec<f64> = (0..64).map(|i| i as f64 / 7.0).collect();
        let init = |m: &mut Memory| m.fill_real(a, &data);
        let (seq, _) = hpf_ir::interp::run_program(&sp.program, init).unwrap();
        let (mems, _) = one_ulp_off(&sp, &seq, 5);
        check_against_interpreter(&sp, &mems, &seq).unwrap();
    }

    /// A Sum over four ranks whose partials round (`examples/hpf/
    /// row_sum.hpf`, `A(i,j) / 3.0`): replay folds the stacked partials in
    /// their senders' pid order, as the executor does, so every owner slot
    /// matches the executor's bit for bit.
    #[test]
    fn replay_folds_partials_in_pid_order() {
        let sp = lowered(include_str!("../../../examples/hpf/row_sum.hpf"), CoreConfig::full());
        assert!(sp
            .reduces
            .iter()
            .any(|r| r.reduce_dims == [0] && r.op == RedOp::Sum));
        let a = sp.program.vars.lookup("a").unwrap();
        let data: Vec<f64> = (0..64).map(|k| 1.0 + k as f64 * 0.25).collect();
        let init = |m: &mut Memory| m.fill_real(a, &data);
        let mut exec = SpmdExec::new(&sp, init).with_trace();
        exec.run().unwrap();
        let trace = exec.trace.take().unwrap();
        let r = replay(&sp, &trace, init).unwrap();
        check_owner_slots(&sp, &r.mems, &exec.mems).unwrap();
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
        let r = validate_replay(&sp, |m| {
            for &v in &names {
                let data: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 0.125).collect();
                m.fill_real(v, &data);
            }
        })
        .unwrap();
        assert!(r.metrics.messages() > 0);
        // On zeroed data it divides 0 by 0: the replay's NaNs carry the
        // executor's bits, and the owner-slot check accepts them.
        let r = validate_replay(&sp, |_| {}).unwrap();
        assert!(matches!(r.mems[0].array(names[0]).get(3), Value::Real(x) if x.is_nan()));
    }
}
