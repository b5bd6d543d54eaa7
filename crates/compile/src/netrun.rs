//! Multi-process orchestration for the socket backend.
//!
//! `phpfc --backend socket` (and the differential tests) validate a
//! replay where every virtual processor is a real OS process exchanging
//! frames over [`hpf_net::socket`] links. The pieces:
//!
//! * the *parent* ([`socket_validate_replay`]) compiles the program,
//!   spawns one `networker` process per rank and plays rendezvous server:
//!   each worker registers `(rank, data address, protocol number)` over a
//!   framed control connection, and the parent answers with the job spec
//!   plus the full address map. Only then does it run the reference
//!   executor, for the authoritative memories and the per-rank event
//!   trace. The executor hands off every finished epoch
//!   ([`SpmdExec::with_epoch_sink`]), and one parent thread per rank
//!   streams it to that rank's worker ([`hpf_spmd::encode_events`], in
//!   Blob frames of at most about [`EVENT_CHUNK_BYTES`]) while the
//!   executor produces the next one. An epoch is dropped once every
//!   rank's stream has sent it, so the parent never holds the whole
//!   trace. Finally it collects one result blob per rank (stats, wire
//!   metrics, the rank's entire memory);
//! * each *worker* ([`worker_main`], the `networker` binary) compiles the
//!   same source (replay needs the lowered program), applies the fills,
//!   meshes with its peers via [`SocketTransport::connect_mesh`], and
//!   replays its rank's events epoch by epoch as they arrive, with
//!   [`hpf_spmd::replay_rank_segment`] — the engine the threaded backend
//!   uses, just over sockets. No worker runs the reference executor;
//! * the parent merges the per-rank [`CommMetrics`] and checks every
//!   owner slot bit-for-bit against the reference memories
//!   ([`hpf_spmd::check_owner_slots`]).
//!
//! After the job, every parent → worker Blob is an event chunk: a flags
//! byte (epoch end, stream end), then one [`encode_events`] chunk. Epoch
//! ends travel in-band, so the job carries no cut offsets.
//!
//! Self-healing is a retry loop around this one driver. With a fault plan
//! or a respawn budget, a cohort that fails — a worker reports an error or
//! dies — is reaped and the run starts again from the beginning with a
//! fresh cohort and a fresh reference executor, under
//! [`FaultPlan::after_failure`]. Once the respawn budget is spent the run
//! degrades to the in-process thread backend.
//!
//! A worker whose registration carries another [`PROTOCOL`] number (a
//! binary built from older sources) is killed with its cohort before it
//! receives anything; see [`socket_validate_replay`].
//!
//! Every blocking step on the parent carries a deadline (rendezvous
//! accepts, job dispatch, result collection, child reaping), so a worker
//! that dies or wedges surfaces as an error with its rank attached, never
//! a hang. A worker waits for its events as long as its control link is
//! open: the parent reaps or kills every child on each path out.

use crate::{compile_source, Compiled, Options, Version};
use hpf_ir::interp::Memory;
use hpf_ir::{Program, ScalarTy};
use hpf_net::fault::observes_injection;
use hpf_net::frame::{Dec, Enc, FrameKind, FrameReader, FrameWriter, ReadStep};
use hpf_net::socket::{
    connect_backoff, Addr, AddrKind, NetListener, NetStream, SocketConfig, SocketTransport,
};
use hpf_net::{FaultInjector, NetError, RetryPolicy, Transport};
use hpf_obs::{Body, BufTracer, CommKind, TraceEvent, Tracer};
use hpf_spmd::metrics::{self, CommMetrics, RecoveryCounters};
use hpf_spmd::{
    check_owner_slots, decode_events, encode_events, replay_rank_segment,
    validate_replay_traced, Event, ReplayStats, Replayed, SpmdExec, SpmdProgram,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use hpf_net::FaultPlan;

/// Environment variable naming the parent's rendezvous address for a
/// spawned worker.
pub const ENV_PARENT: &str = "PHPF_NETRUN_PARENT";
/// Environment variable carrying a worker's rank.
pub const ENV_RANK: &str = "PHPF_NETRUN_RANK";
/// Optional override for the worker binary path.
pub const ENV_WORKER_BIN: &str = "PHPF_NET_WORKER";

/// Version of the parent ↔ worker control protocol, carried in every
/// worker's registration frame. A registration without it comes from a
/// worker binary that predates versioning.
pub const PROTOCOL: u32 = 5;

/// Soft size bound of one event-stream frame: a chunk stops taking events
/// once its payload reaches this many bytes, so a frame exceeds it by at
/// most one event.
pub const EVENT_CHUNK_BYTES: usize = 1 << 16;

/// Everything a worker needs besides its event stream: the source and
/// options it compiles (deterministically, to the parent's lowered
/// program) and the fills that give every rank its initial memory. The
/// trace itself is recorded once, by the parent, and each worker is sent
/// only its own rank's events, epoch by epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct NetJob {
    pub source: String,
    pub version: Version,
    pub grid: Option<Vec<usize>>,
    pub combine: bool,
    pub auto_priv: bool,
    /// Record a vectorized (coalesced) trace; `false` replays the
    /// per-element schedule.
    pub vectorize: bool,
    /// Record observability timelines: pipeline phase spans on the parent
    /// and per-rank comm/fault events on the workers, merged into
    /// [`Replayed::obs`].
    pub trace: bool,
    /// Initial contents of REAL arrays, by variable name.
    pub fills: Vec<(String, Vec<f64>)>,
}

impl NetJob {
    pub fn new(source: impl Into<String>) -> NetJob {
        NetJob {
            source: source.into(),
            version: Version::SelectedAlignment,
            grid: None,
            combine: false,
            auto_priv: false,
            vectorize: true,
            trace: false,
            fills: Vec::new(),
        }
    }

    pub fn options(&self) -> Options {
        let mut opts = Options::new(self.version);
        if let Some(g) = &self.grid {
            opts = opts.with_grid(g.clone());
        }
        if self.combine {
            opts = opts.with_message_combining();
        }
        if self.auto_priv {
            opts.core.auto_array_priv = true;
        }
        opts
    }

    pub fn compile(&self) -> Result<Compiled, String> {
        compile_source(&self.source, self.options())
    }

    /// Compile with pipeline phase spans recorded on `tracer`.
    pub fn compile_traced(&self, tracer: &mut dyn Tracer) -> Result<Compiled, String> {
        crate::compile_source_traced(&self.source, self.options(), tracer)
    }

    /// Fill every REAL array with the deterministic default pattern
    /// (`1.0 + k * 0.25`) used by `phpfc --observe`.
    pub fn with_default_fills(mut self) -> Result<NetJob, String> {
        let compiled = self.compile()?;
        self.fills = compiled
            .spmd
            .program
            .vars
            .arrays()
            .filter(|(_, info)| info.ty == ScalarTy::Real)
            .map(|(_, info)| {
                let n = info.shape().unwrap().len() as usize;
                (
                    info.name.clone(),
                    (0..n).map(|k| 1.0 + k as f64 * 0.25).collect(),
                )
            })
            .collect();
        Ok(self)
    }
}

/// Failed cohorts the driver reruns before it degrades to the thread
/// backend, unless [`NetRunConfig::respawn_budget`] says otherwise: enough
/// for a seeded plan's corrupt, drop and kill to each fail one.
pub const DEFAULT_RESPAWN_BUDGET: u32 = 3;

/// Deadlines, address family and recovery knobs for a multi-process run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
    pub addr_kind: AddrKind,
    /// Per-link send/recv deadline inside the mesh.
    pub io_deadline: Duration,
    /// Mesh establishment and rendezvous deadline.
    pub connect_deadline: Duration,
    /// How long the parent waits for each worker's result.
    pub result_deadline: Duration,
    /// Fault injection: this rank aborts its process right after the mesh
    /// handshake, so its peers exercise the dead-peer detection path.
    /// Deliberately *not* consumed by a respawn: every cohort loses the
    /// same rank, so it proves the failure path stays loud (a self-healing
    /// run spends its budget and degrades).
    pub fail_rank: Option<usize>,
    /// Deterministic fault plan (corrupt/drop/kill actions) injected into
    /// the workers. A non-empty plan makes the run self-healing: a failed
    /// cohort is rerun from the start by a fresh one.
    pub fault_plan: Option<FaultPlan>,
    /// How many failed cohorts the driver may rerun before it degrades to
    /// the in-process thread backend. Setting it makes the run
    /// self-healing even without a fault plan; `None` means
    /// [`DEFAULT_RESPAWN_BUDGET`].
    pub respawn_budget: Option<u32>,
}

impl Default for NetRunConfig {
    fn default() -> Self {
        NetRunConfig {
            addr_kind: AddrKind::default(),
            io_deadline: Duration::from_secs(5),
            connect_deadline: Duration::from_secs(10),
            result_deadline: Duration::from_secs(60),
            fail_rank: None,
            fault_plan: None,
            respawn_budget: None,
        }
    }
}

impl NetRunConfig {
    fn plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or_default()
    }

    /// Self-healing mode: a failed cohort is rerun from the start by a
    /// fresh one, up to the respawn budget. Engaged by a non-empty fault
    /// plan or an explicit respawn budget; by default the first failure is
    /// the run's error.
    pub fn supervised(&self) -> bool {
        !self.plan().is_empty() || self.respawn_budget.is_some()
    }
}

const NO_RANK: u32 = u32::MAX;

/// The job blob: the job itself, the worker-side knobs of `cfg`, the mesh
/// address map and the (resolved, possibly respawn-pruned) fault plan.
fn encode_job(
    job: &NetJob,
    cfg: &NetRunConfig,
    nproc: usize,
    addrs: &[Addr],
    plan: &FaultPlan,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&job.source);
    e.str(job.version.flag());
    match &job.grid {
        Some(g) => {
            e.u8(1);
            e.u32(g.len() as u32);
            for &d in g {
                e.u32(d as u32);
            }
        }
        None => e.u8(0),
    }
    e.boolean(job.combine);
    e.boolean(job.auto_priv);
    e.boolean(job.vectorize);
    e.boolean(job.trace);
    e.u32(job.fills.len() as u32);
    for (name, data) in &job.fills {
        e.str(name);
        e.u32(data.len() as u32);
        for &x in data {
            e.f64(x);
        }
    }
    e.u32(cfg.fail_rank.map(|r| r as u32).unwrap_or(NO_RANK));
    e.u64(cfg.io_deadline.as_millis() as u64);
    e.u64(cfg.connect_deadline.as_millis() as u64);
    e.u32(nproc as u32);
    e.u32(addrs.len() as u32);
    for a in addrs {
        e.str(&a.to_string());
    }
    e.str(&plan.to_string());
    e.buf
}

struct WireJob {
    job: NetJob,
    fail_rank: Option<usize>,
    io_deadline: Duration,
    connect_deadline: Duration,
    nproc: usize,
    addrs: Vec<Addr>,
    plan: FaultPlan,
}

impl WireJob {
    fn mesh_cfg(&self) -> SocketConfig {
        SocketConfig {
            io_deadline: self.io_deadline,
            connect_deadline: self.connect_deadline,
        }
    }
}

fn decode_job(payload: &[u8]) -> Result<WireJob, String> {
    let mut d = Dec::new(payload);
    let source = d.str().map_err(|e| e.to_string())?;
    let flag = d.str().map_err(|e| e.to_string())?;
    let version =
        Version::from_flag(&flag).ok_or_else(|| format!("unknown version flag {:?}", flag))?;
    let grid = match d.u8().map_err(|e| e.to_string())? {
        0 => None,
        _ => {
            let n = d.u32().map_err(|e| e.to_string())? as usize;
            let mut g = Vec::with_capacity(n);
            for _ in 0..n {
                g.push(d.u32().map_err(|e| e.to_string())? as usize);
            }
            Some(g)
        }
    };
    let combine = d.boolean().map_err(|e| e.to_string())?;
    let auto_priv = d.boolean().map_err(|e| e.to_string())?;
    let vectorize = d.boolean().map_err(|e| e.to_string())?;
    let trace = d.boolean().map_err(|e| e.to_string())?;
    let nfills = d.u32().map_err(|e| e.to_string())? as usize;
    let mut fills = Vec::with_capacity(nfills);
    for _ in 0..nfills {
        let name = d.str().map_err(|e| e.to_string())?;
        let n = d.u32().map_err(|e| e.to_string())? as usize;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(d.f64().map_err(|e| e.to_string())?);
        }
        fills.push((name, data));
    }
    let fail_rank = match d.u32().map_err(|e| e.to_string())? {
        NO_RANK => None,
        r => Some(r as usize),
    };
    let io_deadline = Duration::from_millis(d.u64().map_err(|e| e.to_string())?);
    let connect_deadline = Duration::from_millis(d.u64().map_err(|e| e.to_string())?);
    let nproc = d.u32().map_err(|e| e.to_string())? as usize;
    let naddrs = d.u32().map_err(|e| e.to_string())? as usize;
    let mut addrs = Vec::with_capacity(naddrs);
    for _ in 0..naddrs {
        let s = d.str().map_err(|e| e.to_string())?;
        addrs.push(Addr::parse(&s).map_err(|e| e.to_string())?);
    }
    let plan = FaultPlan::parse(&d.str().map_err(|e| e.to_string())?)?;
    d.done().map_err(|e| e.to_string())?;
    Ok(WireJob {
        job: NetJob {
            source,
            version,
            grid,
            combine,
            auto_priv,
            vectorize,
            trace,
            fills,
        },
        fail_rank,
        io_deadline,
        connect_deadline,
        nproc,
        addrs,
        plan,
    })
}

/// The executor, the threaded runtime and the socket workers all key
/// pattern counters by `&'static str`; worker results arrive as owned
/// strings and must map back onto the same statics.
fn intern_pattern(name: &str) -> Option<&'static str> {
    [
        "local",
        "shift",
        "broadcast",
        "transpose",
        "point-to-point",
        metrics::REDUCE,
        metrics::UNTRACKED,
        metrics::ELEMENT,
        metrics::CONTROL,
    ]
    .into_iter()
    .find(|&k| k == name)
}

fn encode_metrics(e: &mut Enc, m: &CommMetrics) {
    e.u32(m.per_proc.len() as u32);
    for p in &m.per_proc {
        e.u64(p.sent_messages);
        e.u64(p.sent_bytes);
        e.u64(p.recv_messages);
        e.u64(p.recv_bytes);
    }
    e.u32(m.per_pattern.len() as u32);
    for (k, c) in &m.per_pattern {
        e.str(k);
        e.u64(c.messages);
        e.u64(c.bytes);
    }
    e.u32(m.per_op.len() as u32);
    for o in &m.per_op {
        e.u64(o.messages);
        e.u64(o.bytes);
        e.u64(o.elements);
    }
    e.u64(m.untracked_messages);
    e.u64(m.max_in_flight);
    e.u64(m.recovery.retransmits);
    e.u64(m.recovery.heartbeat_misses);
    e.u64(m.recovery.respawns);
    e.u64(m.recovery.fallbacks);
}

fn decode_metrics(d: &mut Dec) -> Result<CommMetrics, String> {
    let nproc = d.u32().map_err(|e| e.to_string())? as usize;
    let nops_placeholder = 0;
    let mut m = CommMetrics::new(nproc, nops_placeholder);
    for p in m.per_proc.iter_mut() {
        p.sent_messages = d.u64().map_err(|e| e.to_string())?;
        p.sent_bytes = d.u64().map_err(|e| e.to_string())?;
        p.recv_messages = d.u64().map_err(|e| e.to_string())?;
        p.recv_bytes = d.u64().map_err(|e| e.to_string())?;
    }
    let npat = d.u32().map_err(|e| e.to_string())? as usize;
    for _ in 0..npat {
        let name = d.str().map_err(|e| e.to_string())?;
        let key = intern_pattern(&name)
            .ok_or_else(|| format!("unknown communication pattern {:?} in result", name))?;
        let c = m.per_pattern.entry(key).or_default();
        c.messages = d.u64().map_err(|e| e.to_string())?;
        c.bytes = d.u64().map_err(|e| e.to_string())?;
    }
    let nops = d.u32().map_err(|e| e.to_string())? as usize;
    m.per_op = Vec::with_capacity(nops);
    for _ in 0..nops {
        m.per_op.push(metrics::OpMetrics {
            messages: d.u64().map_err(|e| e.to_string())?,
            bytes: d.u64().map_err(|e| e.to_string())?,
            elements: d.u64().map_err(|e| e.to_string())?,
        });
    }
    m.untracked_messages = d.u64().map_err(|e| e.to_string())?;
    m.max_in_flight = d.u64().map_err(|e| e.to_string())?;
    m.recovery.retransmits = d.u64().map_err(|e| e.to_string())?;
    m.recovery.heartbeat_misses = d.u64().map_err(|e| e.to_string())?;
    m.recovery.respawns = d.u64().map_err(|e| e.to_string())?;
    m.recovery.fallbacks = d.u64().map_err(|e| e.to_string())?;
    Ok(m)
}

fn comm_kind_code(k: CommKind) -> u8 {
    match k {
        CommKind::Send => 0,
        CommKind::Recv => 1,
        CommKind::SendVec => 2,
        CommKind::RecvVec => 3,
        CommKind::Reduce => 4,
        CommKind::Broadcast => 5,
    }
}

fn comm_kind_from(code: u8) -> Result<CommKind, String> {
    Ok(match code {
        0 => CommKind::Send,
        1 => CommKind::Recv,
        2 => CommKind::SendVec,
        3 => CommKind::RecvVec,
        4 => CommKind::Reduce,
        5 => CommKind::Broadcast,
        _ => return Err(format!("unknown comm kind code {}", code)),
    })
}

fn enc_opt_u64(e: &mut Enc, v: Option<u64>) {
    match v {
        Some(x) => {
            e.u8(1);
            e.u64(x);
        }
        None => e.u8(0),
    }
}

fn dec_opt_u64(d: &mut Dec) -> Result<Option<u64>, String> {
    match d.u8().map_err(|e| e.to_string())? {
        0 => Ok(None),
        _ => Ok(Some(d.u64().map_err(|e| e.to_string())?)),
    }
}

/// Serialise one rank's observability timeline for the result blob.
fn encode_obs_events(e: &mut Enc, events: &[TraceEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        e.u64(ev.t_us);
        e.u32(ev.rank.map(|r| r as u32).unwrap_or(NO_RANK));
        match &ev.body {
            Body::Begin { name } => {
                e.u8(0);
                e.str(name);
            }
            Body::End { name } => {
                e.u8(1);
                e.str(name);
            }
            Body::Comm {
                kind,
                from,
                to,
                op,
                pattern,
                level,
                stmt_level,
                place,
                elems,
                seq,
            } => {
                e.u8(2);
                e.u8(comm_kind_code(*kind));
                e.u32(*from as u32);
                e.u32(*to as u32);
                e.u32(op.map(|i| i as u32).unwrap_or(NO_RANK));
                e.str(pattern);
                e.u32(*level as u32);
                e.u32(*stmt_level as u32);
                e.str(place);
                e.u64(*elems);
                enc_opt_u64(e, *seq);
            }
            Body::Fault {
                name,
                detail,
                peer,
                last_seq,
            } => {
                e.u8(3);
                e.str(name);
                e.str(detail);
                e.u32(peer.map(|p| p as u32).unwrap_or(NO_RANK));
                enc_opt_u64(e, *last_seq);
            }
        }
    }
}

fn decode_obs_events(d: &mut Dec) -> Result<Vec<TraceEvent>, String> {
    let n = d.u32().map_err(|e| e.to_string())? as usize;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let t_us = d.u64().map_err(|e| e.to_string())?;
        let rank = match d.u32().map_err(|e| e.to_string())? {
            NO_RANK => None,
            r => Some(r as usize),
        };
        let body = match d.u8().map_err(|e| e.to_string())? {
            0 => Body::Begin {
                name: d.str().map_err(|e| e.to_string())?,
            },
            1 => Body::End {
                name: d.str().map_err(|e| e.to_string())?,
            },
            2 => Body::Comm {
                kind: comm_kind_from(d.u8().map_err(|e| e.to_string())?)?,
                from: d.u32().map_err(|e| e.to_string())? as usize,
                to: d.u32().map_err(|e| e.to_string())? as usize,
                op: match d.u32().map_err(|e| e.to_string())? {
                    NO_RANK => None,
                    i => Some(i as usize),
                },
                pattern: d.str().map_err(|e| e.to_string())?,
                level: d.u32().map_err(|e| e.to_string())? as usize,
                stmt_level: d.u32().map_err(|e| e.to_string())? as usize,
                place: d.str().map_err(|e| e.to_string())?,
                elems: d.u64().map_err(|e| e.to_string())?,
                seq: dec_opt_u64(d)?,
            },
            3 => Body::Fault {
                name: d.str().map_err(|e| e.to_string())?,
                detail: d.str().map_err(|e| e.to_string())?,
                peer: match d.u32().map_err(|e| e.to_string())? {
                    NO_RANK => None,
                    p => Some(p as usize),
                },
                last_seq: dec_opt_u64(d)?,
            },
            t => return Err(format!("unknown trace event tag {}", t)),
        };
        events.push(TraceEvent { t_us, rank, body });
    }
    Ok(events)
}

/// Serialise one rank's entire memory: variables in declaration order,
/// arrays as `len` tagged values, scalars tagged with a sentinel length.
fn encode_memory(e: &mut Enc, program: &Program, mem: &Memory) {
    const SCALAR: u32 = u32::MAX;
    e.u32(program.vars.len() as u32);
    for (v, info) in program.vars.iter() {
        match info.shape() {
            Some(sh) => {
                let n = sh.len() as usize;
                e.u32(n as u32);
                for off in 0..n {
                    e.value(mem.array(v).get(off));
                }
            }
            None => {
                e.u32(SCALAR);
                e.value(mem.scalar(v));
            }
        }
    }
}

fn decode_memory(d: &mut Dec, program: &Program) -> Result<Memory, String> {
    const SCALAR: u32 = u32::MAX;
    let mut mem = Memory::zeroed(program);
    let n = d.u32().map_err(|e| e.to_string())? as usize;
    if n != program.vars.len() {
        return Err(format!(
            "memory dump has {} variables, program has {}",
            n,
            program.vars.len()
        ));
    }
    for (v, info) in program.vars.iter() {
        let tag = d.u32().map_err(|e| e.to_string())?;
        match info.shape() {
            Some(sh) if tag != SCALAR => {
                let len = sh.len() as usize;
                if tag as usize != len {
                    return Err(format!(
                        "array {} dump has {} elements, shape says {}",
                        info.name, tag, len
                    ));
                }
                for off in 0..len {
                    let val = d.value().map_err(|e| e.to_string())?;
                    mem.array_mut(v)
                        .set(off, val)
                        .map_err(|e| format!("array {}: {}", info.name, e))?;
                }
            }
            None if tag == SCALAR => {
                mem.set_scalar(v, d.value().map_err(|e| e.to_string())?);
            }
            _ => {
                return Err(format!(
                    "variable {} kind mismatch in memory dump",
                    info.name
                ))
            }
        }
    }
    Ok(mem)
}

/// A rank's result: its cumulative counters, wire metrics and memory, or
/// its replay error; then its timeline.
fn encode_result(res: &RankResult, obs: &[TraceEvent], program: &Program) -> Vec<u8> {
    let mut e = Enc::new();
    match res {
        Ok((stats, m, mem)) => {
            e.u8(1);
            e.u64(stats.messages_sent);
            e.u64(stats.events);
            encode_metrics(&mut e, m);
            encode_memory(&mut e, program, mem);
        }
        Err(msg) => {
            e.u8(0);
            e.str(msg);
        }
    }
    // The timeline rides along in both arms: a failed replay still ships
    // its transport's fault events, and its comm events when traced.
    encode_obs_events(&mut e, obs);
    e.buf
}

type RankResult = Result<(ReplayStats, CommMetrics, Memory), String>;

fn decode_result(
    payload: &[u8],
    program: &Program,
) -> Result<(RankResult, Vec<TraceEvent>), String> {
    let mut d = Dec::new(payload);
    match d.u8().map_err(|e| e.to_string())? {
        0 => {
            let msg = d.str().map_err(|e| e.to_string())?;
            let obs = decode_obs_events(&mut d)?;
            d.done().map_err(|e| e.to_string())?;
            Ok((Err(msg), obs))
        }
        _ => {
            let stats = ReplayStats {
                messages_sent: d.u64().map_err(|e| e.to_string())?,
                events: d.u64().map_err(|e| e.to_string())?,
            };
            let m = decode_metrics(&mut d)?;
            let mem = decode_memory(&mut d, program)?;
            let obs = decode_obs_events(&mut d)?;
            d.done().map_err(|e| e.to_string())?;
            Ok((Ok((stats, m, mem)), obs))
        }
    }
}

fn make_init<'a>(
    compiled: &Compiled,
    fills: &'a [(String, Vec<f64>)],
) -> Result<impl Fn(&mut Memory) + Sync + 'a, String> {
    let mut resolved = Vec::with_capacity(fills.len());
    for (name, data) in fills {
        let v = compiled
            .spmd
            .program
            .vars
            .lookup(name)
            .ok_or_else(|| format!("fill names unknown variable {:?}", name))?;
        resolved.push((v, data));
    }
    Ok(move |m: &mut Memory| {
        for &(v, data) in &resolved {
            m.fill_real(v, data);
        }
    })
}

/// Locate (building on demand) the `networker` binary. `cargo test` at
/// the workspace root compiles only library targets, so the worker may
/// not exist yet; in that case it is built with a nested cargo call.
pub fn worker_bin() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var(ENV_WORKER_BIN) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("{} points at missing {}", ENV_WORKER_BIN, p.display()));
    }
    let candidates = worker_candidates();
    if let Some(c) = candidates.iter().find(|c| c.is_file()) {
        return Ok(c.clone());
    }
    build_worker()
}

/// Where a `networker` built alongside the running binary can be found:
/// beside it, one directory up (test binaries live in `deps/`), and in the
/// workspace's own target directory.
fn worker_candidates() -> Vec<PathBuf> {
    let mut candidates = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join("networker"));
            if let Some(up) = dir.parent() {
                candidates.push(up.join("networker"));
            }
        }
    }
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    candidates.push(
        workspace_dir()
            .join("target")
            .join(profile)
            .join("networker"),
    );
    candidates
}

fn workspace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Build the `networker` from this workspace's sources with a nested cargo
/// call (in the running binary's profile) and return its path.
fn build_worker() -> Result<PathBuf, String> {
    let workspace = workspace_dir();
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "-p", "hpf-compile", "--bin", "networker"]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.current_dir(&workspace);
    let status = cmd
        .status()
        .map_err(|e| format!("building networker: {}", e))?;
    if !status.success() {
        return Err(format!("building networker failed: {}", status));
    }
    worker_candidates()
        .into_iter()
        .find(|c| c.is_file())
        .ok_or_else(|| "networker binary not found after building it".into())
}

/// Wait for every child to exit, escalating to SIGKILL after a grace
/// period so a wedged worker cannot wedge the parent.
fn reap(children: &mut [(usize, Child)], grace: Duration) -> Vec<String> {
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut pending: Vec<bool> = vec![true; children.len()];
    loop {
        let mut alive = 0;
        for (i, (rank, child)) in children.iter_mut().enumerate() {
            if !pending[i] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    pending[i] = false;
                    if !status.success() {
                        errors.push(format!("worker {} exited with {}", rank, status));
                    }
                }
                Ok(None) => alive += 1,
                Err(e) => {
                    pending[i] = false;
                    errors.push(format!("worker {}: wait failed: {}", rank, e));
                }
            }
        }
        if alive == 0 {
            return errors;
        }
        if start.elapsed() >= grace {
            for (i, (rank, child)) in children.iter_mut().enumerate() {
                if pending[i] {
                    let _ = child.kill();
                    let _ = child.wait();
                    errors.push(format!("worker {} killed after {:?} grace", rank, grace));
                }
            }
            return errors;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Conn {
    reader: FrameReader<NetStream>,
    writer: FrameWriter<NetStream>,
}

fn read_blob(reader: &mut FrameReader<NetStream>, what: &str) -> Result<Vec<u8>, String> {
    blob(reader.read_step(), what)
}

/// The payload of a Blob frame read by `step`, or an error naming `what`.
fn blob(step: Result<ReadStep, hpf_net::frame::FrameError>, what: &str) -> Result<Vec<u8>, String> {
    match step {
        Ok(ReadStep::Frame((FrameKind::Blob, payload))) => Ok(payload),
        Ok(ReadStep::Frame((kind, _))) => {
            Err(format!("{}: expected a Blob frame, got {:?}", what, kind))
        }
        Ok(ReadStep::Eof) => Err(format!("{}: connection closed", what)),
        Ok(ReadStep::Idle) => Err(format!("{}: no frame within the deadline", what)),
        Err(e) => Err(format!("{}: {}", what, e)),
    }
}

/// Spawn one `networker` child per rank, pointed at the parent's
/// rendezvous address.
fn spawn_workers(
    bin: &PathBuf,
    parent_addr: &Addr,
    nproc: usize,
) -> Result<Vec<(usize, Child)>, String> {
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(nproc);
    for rank in 0..nproc {
        let child = Command::new(bin)
            .env(ENV_PARENT, parent_addr.to_string())
            .env(ENV_RANK, rank.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning worker {}: {}", rank, e))?;
        children.push((rank, child));
    }
    Ok(children)
}

/// A spawned cohort, and its control connections plus mesh address map
/// when the rendezvous succeeded.
type Cohort = (Vec<(usize, Child)>, Result<(Vec<Conn>, Vec<Addr>), String>);

/// Spawn one worker per rank and run the rendezvous. A cohort whose
/// registration carries another [`PROTOCOL`] number is killed. If its
/// binary came from the search path (not [`ENV_WORKER_BIN`]) it is
/// rebuilt once and a fresh cohort is spawned on a fresh listener, since
/// the killed cohort's connections may still wait in the old one's
/// backlog; otherwise the run fails naming the binary and both numbers.
fn launch(cfg: &NetRunConfig, nproc: usize, listener: &mut NetListener) -> Result<Cohort, String> {
    let mut bin = worker_bin()?;
    let mut rebuilt = false;
    loop {
        let parent_addr = listener.addr().map_err(|e| e.to_string())?;
        let mut children = spawn_workers(&bin, &parent_addr, nproc)?;
        match rendezvous(cfg, nproc, listener) {
            Ok(met) => return Ok((children, Ok(met))),
            Err(MeetError::Failed(e)) => return Ok((children, Err(e))),
            Err(MeetError::Stale { rank, got }) => {
                kill_cohort(&mut children);
                if rebuilt || std::env::var_os(ENV_WORKER_BIN).is_some() {
                    return Err(format!(
                        "worker binary {} (rank {}) speaks netrun protocol {}, this driver \
                         speaks protocol {}; rebuild it with \
                         `cargo build -p hpf-compile --bin networker`",
                        bin.display(),
                        rank,
                        got.map_or_else(|| "1 (unnumbered registration)".into(), |n| n.to_string()),
                        PROTOCOL
                    ));
                }
                bin = build_worker()?;
                rebuilt = true;
                *listener =
                    NetListener::bind(cfg.addr_kind, "netrun").map_err(|e| e.to_string())?;
            }
        }
    }
}

/// Flags of an event-chunk frame: the chunk ends an epoch, or the stream
/// (an end-of-stream chunk carries no events).
const EPOCH_END: u8 = 1;
const STREAM_END: u8 = 2;

/// The hand-off between the reference executor and the per-rank stream
/// threads of one cohort: finished epochs, each as one event list per
/// rank.
struct Feed {
    state: Mutex<FeedState>,
    changed: Condvar,
}

struct FeedState {
    /// Absolute index of `epochs[0]`.
    first: usize,
    epochs: VecDeque<Vec<Arc<Vec<Event>>>>,
    /// The executor's outcome, once it stopped.
    done: Option<Result<(), String>>,
    /// Per rank: the next epoch its stream sends (`usize::MAX` once the
    /// stream broke). An epoch is dropped once every stream has sent it.
    next: Vec<usize>,
}

/// What a stream thread writes next.
enum StreamStep {
    Epoch(Arc<Vec<Event>>),
    End,
}

impl Feed {
    fn new(nproc: usize) -> Feed {
        Feed {
            state: Mutex::new(FeedState {
                first: 0,
                epochs: VecDeque::new(),
                done: None,
                next: vec![0; nproc],
            }),
            changed: Condvar::new(),
        }
    }

    fn update<R>(&self, f: impl FnOnce(&mut FeedState) -> R) -> R {
        let r = f(&mut self.state.lock().unwrap());
        self.changed.notify_all();
        r
    }

    /// Run the reference executor, publishing every finished epoch, and
    /// record its outcome; returns the reference memories.
    fn run_reference(
        self: &Arc<Feed>,
        compiled: &Compiled,
        init: &(impl Fn(&mut Memory) + Sync),
        vectorize: bool,
    ) -> Result<Vec<Memory>, String> {
        /// Marks the executor failed if it unwinds, so no stream thread
        /// waits for an epoch that never comes.
        struct Unwinding<'a>(&'a Feed);
        impl Drop for Unwinding<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.update(|st| st.done = Some(Err("reference executor panicked".into())));
                }
            }
        }
        let _unwinding = Unwinding(self);
        let feed = Arc::clone(self);
        let mut exec = SpmdExec::new(&compiled.spmd, init).with_epoch_sink(move |epoch| {
            feed.update(|st| {
                st.epochs
                    .push_back(epoch.into_iter().map(Arc::new).collect())
            })
        });
        if !vectorize {
            exec = exec.without_vectorization();
        }
        let res = exec.run().map(|_| ()).map_err(|e| format!("reference run failed: {}", e));
        self.update(|st| st.done = Some(res.clone()));
        res.map(|()| exec.mems)
    }

    /// Wait for what `rank`'s stream writes next; `None` once the executor
    /// failed.
    fn next_step(&self, rank: usize) -> Option<StreamStep> {
        let mut st = self.state.lock().unwrap();
        loop {
            let pending = st.next[rank].checked_sub(st.first);
            if let Some(epoch) = pending.and_then(|k| st.epochs.get(k)) {
                return Some(StreamStep::Epoch(Arc::clone(&epoch[rank])));
            }
            match &st.done {
                Some(Ok(())) => return Some(StreamStep::End),
                Some(Err(_)) => return None,
                None => {}
            }
            st = self.changed.wait(st).unwrap();
        }
    }

    /// `rank`'s stream sent its next epoch (`ok`), or broke and sends no
    /// more.
    fn sent(&self, rank: usize, ok: bool) {
        self.update(|st| {
            st.next[rank] = if ok { st.next[rank] + 1 } else { usize::MAX };
            let floor = st.next.iter().copied().min().unwrap_or(0);
            while st.first < floor && st.epochs.pop_front().is_some() {
                st.first += 1;
            }
        })
    }
}

/// One rank's stream thread: write each finished epoch to the worker as it
/// arrives, then the end of stream. This thread is the connection's only
/// writer.
fn stream_rank(feed: &Feed, rank: usize, mut writer: FrameWriter<NetStream>) -> Result<(), String> {
    let mut enc = Enc::new();
    while let Some(step) = feed.next_step(rank) {
        let (events, flags) = match &step {
            StreamStep::Epoch(events) => (&events[..], EPOCH_END),
            StreamStep::End => (&[][..], STREAM_END),
        };
        if let Err(e) = send_chunks(&mut writer, &mut enc, events, flags) {
            feed.sent(rank, false);
            return Err(format!("streaming events to worker {}: {}", rank, e));
        }
        match step {
            StreamStep::Epoch(events) => {
                drop(events);
                feed.sent(rank, true);
            }
            StreamStep::End => return Ok(()),
        }
    }
    Ok(())
}

/// Write a rank's events as Blob frames of at most about
/// [`EVENT_CHUNK_BYTES`], all built in `enc`'s reused buffer; the last
/// frame carries `flags` (no events: one empty chunk).
fn send_chunks(
    writer: &mut FrameWriter<NetStream>,
    enc: &mut Enc,
    events: &[Event],
    flags: u8,
) -> std::io::Result<()> {
    let mut rest = events;
    loop {
        enc.buf.clear();
        enc.u8(0);
        let n = encode_events(enc, rest, EVENT_CHUNK_BYTES);
        rest = &rest[n..];
        if rest.is_empty() {
            enc.buf[0] = flags;
        }
        writer.write(FrameKind::Blob, &enc.buf)?;
        if rest.is_empty() {
            return Ok(());
        }
    }
}

type StreamThread<'scope> = std::thread::ScopedJoinHandle<'scope, Result<(), String>>;

/// Start one [`stream_rank`] thread per connection; returns the
/// connections' readers and the threads.
fn spawn_streams<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    feed: &'env Feed,
    conns: Vec<Conn>,
) -> (Vec<FrameReader<NetStream>>, Vec<StreamThread<'scope>>) {
    conns
        .into_iter()
        .enumerate()
        .map(|(rank, Conn { reader, writer })| {
            (reader, scope.spawn(move || stream_rank(feed, rank, writer)))
        })
        .unzip()
}

/// The worker's side of the parent → worker stream after the job: each
/// epoch's event chunks, then the end of stream.
struct ParentStream<'p> {
    reader: FrameReader<NetStream>,
    sp: &'p SpmdProgram,
    nproc: usize,
}

impl ParentStream<'_> {
    /// The next epoch's events, validated against the compiled program;
    /// `None` at the end of the stream. Waits as long as the link is open:
    /// the parent may still be producing the events.
    fn next_epoch(&mut self) -> Result<Option<Vec<Event>>, String> {
        let mut events = Vec::new();
        loop {
            let payload = loop {
                match self.reader.read_step() {
                    Ok(ReadStep::Idle) => continue,
                    step => break blob(step, "event stream from parent")?,
                }
            };
            let mut d = Dec::new(&payload);
            let flags = d.u8().map_err(|e| format!("event stream: {}", e))?;
            let chunk = decode_events(&mut d, self.sp, self.nproc)
                .map_err(|e| format!("event stream: {}", e))?;
            d.done().map_err(|e| format!("event stream: {}", e))?;
            if flags & STREAM_END != 0 {
                if !chunk.is_empty() || !events.is_empty() {
                    return Err("event stream: end of stream inside an epoch".into());
                }
                return Ok(None);
            }
            events.extend(chunk);
            if flags & EPOCH_END != 0 {
                return Ok(Some(events));
            }
        }
    }
}

/// Run the job's replay with one OS process per virtual processor and
/// validate it exactly like the threaded `validate_replay`: owner slots
/// bit-for-bit against the reference executor, metrics merged over ranks.
/// The cohort is launched first; the workers replay each epoch while the
/// reference executor produces the next.
///
/// With a fault plan or a respawn budget ([`NetRunConfig::supervised`])
/// a failed run is rerun from the start by a fresh cohort, under
/// [`FaultPlan::after_failure`] and with its own reference executor, and
/// when the respawn budget is exhausted the whole run degrades to the
/// in-process thread backend ([`Replayed::degraded`]). A fault plan that
/// names a rank outside the grid is an error before anything launches.
///
/// Pipeline spans land on the parent's timeline, one pair per cohort:
/// `reference-exec` runs from the launch to the end of the reference
/// executor, which the workers' replay overlaps, and `replay` is the tail
/// after it. Workers only contribute per-rank comm/fault events.
pub fn socket_validate_replay(job: &NetJob, cfg: &NetRunConfig) -> Result<Replayed, String> {
    let mut pipe = hpf_obs::BufTracer::pipeline();
    let compiled = if job.trace {
        job.compile_traced(&mut pipe)?
    } else {
        job.compile()?
    };
    let nproc = compiled.spmd.maps.grid.total();
    let init = make_init(&compiled, &job.fills)?;
    let mut plan = cfg.plan().resolve(nproc)?;
    let budget = cfg.respawn_budget.unwrap_or(DEFAULT_RESPAWN_BUDGET);
    let mut recovery = RecoveryCounters::default();
    // Fault events of failed cohorts, per rank.
    let mut salvaged: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    loop {
        let failure = match run_cohort(job, cfg, &compiled, &init, &plan, &mut pipe)? {
            Ok((reference, (stats, mut metrics, mems, mut rank_obs))) => {
                check_owner_slots(&compiled.spmd, &mems, &reference)
                    .map_err(|e| format!("processes vs reference: {}", e))?;
                metrics.recovery.merge(&recovery);
                let obs = if job.trace {
                    pipe.end("replay");
                    // Evidence from failed cohorts precedes the surviving
                    // cohort's timeline.
                    for (rank, mut faults) in salvaged {
                        match rank_obs.iter_mut().find(|(r, _)| *r == rank) {
                            Some((_, evs)) => {
                                faults.append(evs);
                                *evs = faults;
                            }
                            None => rank_obs.push((rank, faults)),
                        }
                    }
                    Some(hpf_obs::Trace::merge(pipe.into_events(), rank_obs))
                } else {
                    None
                };
                return Ok(Replayed {
                    mems,
                    stats,
                    metrics,
                    obs,
                    degraded: false,
                });
            }
            Err(failure) => failure,
        };
        let who = failure.why.join("; ");
        if !cfg.supervised() {
            return Err(who);
        }
        if recovery.respawns >= u64::from(budget) {
            let reason = format!(
                "respawn budget ({}) exhausted; last cohort failed with: {}",
                budget, who
            );
            return degrade(job, &compiled, &init, &reason, recovery, pipe);
        }
        recovery.respawns += 1;
        // The next cohort must not re-suffer the faults this one observed;
        // the others have yet to fire.
        plan = plan.after_failure(&failure.died, &failure.faulted);
        if job.trace {
            let peer = failure
                .died
                .first()
                .copied()
                .or(failure.faulted.first().map(|&(_, to)| to))
                .or(failure.failed.first().copied());
            pipe.push(Body::Fault {
                name: "respawn".into(),
                detail: format!(
                    "{}; rerunning from the start with a fresh cohort (attempt {}/{})",
                    who, recovery.respawns, budget
                ),
                peer,
                last_seq: None,
            });
            salvaged.extend(failure.faults);
        }
        std::thread::sleep(RetryPolicy::default().delay(recovery.respawns as u32 - 1));
    }
}

/// The respawn budget ran dry: re-run on the in-process thread backend
/// and mark the result [`Replayed::degraded`].
fn degrade(
    job: &NetJob,
    compiled: &Compiled,
    init: &(impl Fn(&mut Memory) + Sync),
    reason: &str,
    mut recovery: RecoveryCounters,
    mut pipe: BufTracer,
) -> Result<Replayed, String> {
    recovery.fallbacks += 1;
    eprintln!(
        "phpf netrun: {}; degrading to the in-process thread backend",
        reason
    );
    if job.trace {
        pipe.push(Body::Fault {
            name: "fallback".into(),
            detail: format!("{}; re-running on the thread backend", reason),
            peer: None,
            last_seq: None,
        });
        pipe.begin("replay");
    }
    let mut r = validate_replay_traced(&compiled.spmd, init, job.vectorize, job.trace)?;
    r.metrics.recovery.merge(&recovery);
    r.degraded = true;
    if job.trace {
        pipe.end("replay");
        match &mut r.obs {
            Some(t) => t.prepend_pipeline(pipe.into_events()),
            None => r.obs = Some(hpf_obs::Trace::from_pipeline(pipe.into_events())),
        }
    }
    Ok(r)
}

/// The reference memories and the merged worker output of a cohort that
/// finished, or why it failed.
type CohortOutcome = Result<(Vec<Memory>, DriveOutput), Failure>;

/// Why a cohort failed, and which planned faults it observed.
#[derive(Default)]
struct Failure {
    /// What went wrong: one entry per failing worker, then broken event
    /// streams and child exit diagnostics.
    why: Vec<String>,
    /// The failing ranks, ascending.
    failed: Vec<usize>,
    /// Ranks whose control link closed, reset or went silent before any
    /// result: their process died.
    died: Vec<usize>,
    /// `(from, to)` links on which rank `to` reported a fault about
    /// `from` that an injection can cause.
    faulted: Vec<(usize, usize)>,
    /// Traced runs: each reporting rank's fault events, salvaged into the
    /// trace of the run.
    faults: Vec<(usize, Vec<TraceEvent>)>,
}

/// Launch a fresh cohort under `plan`, dispatch the job, run the
/// reference executor while one thread per rank streams each finished
/// epoch, collect one result per rank and reap the cohort. The outer
/// `Err` is fatal and never retried: a failed reference run, a launch
/// failure, or reap errors after every rank succeeded.
fn run_cohort(
    job: &NetJob,
    cfg: &NetRunConfig,
    compiled: &Compiled,
    init: &(impl Fn(&mut Memory) + Sync),
    plan: &FaultPlan,
    pipe: &mut BufTracer,
) -> Result<CohortOutcome, String> {
    let nproc = compiled.spmd.maps.grid.total();
    if job.trace {
        pipe.begin("reference-exec");
    }
    let mut listener = NetListener::bind(cfg.addr_kind, "netrun").map_err(|e| e.to_string())?;
    let (mut children, met) = launch(cfg, nproc, &mut listener)?;
    let dispatched = met.and_then(|(mut conns, addrs)| {
        let job_blob = encode_job(job, cfg, nproc, &addrs, plan);
        for (rank, conn) in conns.iter_mut().enumerate() {
            conn.writer
                .write(FrameKind::Blob, &job_blob)
                .map_err(|e| format!("dispatching job to worker {}: {}", rank, e))?;
        }
        Ok(conns)
    });
    let outcome = match dispatched {
        Ok(conns) => stream_and_collect(job, compiled, init, conns, &mut children, pipe)?,
        Err(e) => {
            if job.trace {
                pipe.end("reference-exec");
            }
            Err(Failure {
                why: vec![e],
                ..Failure::default()
            })
        }
    };
    let reap_errors = reap(&mut children, cfg.result_deadline);
    match outcome {
        Ok(_) if !reap_errors.is_empty() => Err(reap_errors.join("; ")),
        Ok(done) => Ok(Ok(done)),
        Err(mut failure) => {
            // Child exit diagnostics often explain the failure.
            failure.why.extend(reap_errors);
            Ok(Err(failure))
        }
    }
}

/// Run the reference executor while one thread per rank streams each
/// finished epoch, then collect the results. A failed reference run kills
/// and reaps the cohort, leaving `children` empty, and is the `Err`.
fn stream_and_collect(
    job: &NetJob,
    compiled: &Compiled,
    init: &(impl Fn(&mut Memory) + Sync),
    conns: Vec<Conn>,
    children: &mut Vec<(usize, Child)>,
    pipe: &mut BufTracer,
) -> Result<CohortOutcome, String> {
    let feed = Arc::new(Feed::new(conns.len()));
    std::thread::scope(|scope| {
        let (mut readers, streams) = spawn_streams(scope, &feed, conns);
        let reference = match feed.run_reference(compiled, init, job.vectorize) {
            Ok(mems) => mems,
            Err(e) => {
                // The stream threads see the failure and stop.
                kill_cohort(children);
                children.clear();
                return Err(e);
            }
        };
        if job.trace {
            pipe.end("reference-exec");
            pipe.begin("replay");
        }
        let collected = collect_results(job, compiled, &mut readers);
        let stream_errors: Vec<String> = streams
            .into_iter()
            .filter_map(|h| h.join().expect("event stream thread panicked").err())
            .collect();
        Ok(match collected {
            Ok(out) => Ok((reference, out)),
            Err(mut failure) => {
                if job.trace {
                    pipe.end("replay");
                }
                failure.why.extend(stream_errors);
                Err(failure)
            }
        })
    })
}

type DriveOutput = (
    ReplayStats,
    CommMetrics,
    Vec<Memory>,
    Vec<(usize, Vec<TraceEvent>)>,
);

/// A worker's first frame on its control connection.
#[derive(Debug, PartialEq)]
struct Registration {
    rank: usize,
    addr: String,
    /// `None` for a worker that predates protocol numbers.
    protocol: Option<u32>,
}

fn encode_registration(rank: usize, addr: &Addr) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(rank as u32);
    e.str(&addr.to_string());
    e.u32(PROTOCOL);
    e.buf
}

fn decode_registration(payload: &[u8]) -> Result<Registration, String> {
    let mut d = Dec::new(payload);
    let rank = d.u32().map_err(|e| e.to_string())? as usize;
    let addr = d.str().map_err(|e| e.to_string())?;
    let protocol = if d.remaining() == 0 {
        None
    } else {
        Some(d.u32().map_err(|e| e.to_string())?)
    };
    d.done().map_err(|e| e.to_string())?;
    Ok(Registration {
        rank,
        addr,
        protocol,
    })
}

enum MeetError {
    /// A worker registered with another protocol number (`None`: an
    /// unnumbered registration, i.e. protocol 1).
    Stale {
        rank: usize,
        got: Option<u32>,
    },
    Failed(String),
}

impl From<String> for MeetError {
    fn from(e: String) -> MeetError {
        MeetError::Failed(e)
    }
}

/// Rendezvous: accept one control connection per rank, each registering
/// `(rank, data address, protocol)`. Returns the per-rank connections and
/// mesh address map.
fn rendezvous(
    cfg: &NetRunConfig,
    nproc: usize,
    listener: &NetListener,
) -> Result<(Vec<Conn>, Vec<Addr>), MeetError> {
    let mut conns: Vec<Option<Conn>> = (0..nproc).map(|_| None).collect();
    let mut addrs: Vec<Option<Addr>> = (0..nproc).map(|_| None).collect();
    for _ in 0..nproc {
        let stream = listener
            .accept_deadline(cfg.connect_deadline)
            .map_err(|e| format!("rendezvous: {}", e))?;
        // The write timeout keeps a worker that stops reading its event
        // stream from wedging the parent.
        stream
            .set_read_timeout(Some(cfg.result_deadline))
            .and_then(|()| stream.set_write_timeout(Some(cfg.result_deadline)))
            .map_err(|e| format!("rendezvous: set timeout: {}", e))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| format!("rendezvous: clone stream: {}", e))?;
        let mut reader = FrameReader::new(reader_stream);
        let writer = FrameWriter::new(stream);
        let payload = read_blob(&mut reader, "worker registration")?;
        let Registration {
            rank,
            addr: addr_s,
            protocol,
        } = decode_registration(&payload)?;
        if protocol != Some(PROTOCOL) {
            return Err(MeetError::Stale {
                rank,
                got: protocol,
            });
        }
        if rank >= nproc {
            return Err(format!("worker registered bogus rank {}", rank).into());
        }
        if conns[rank].is_some() {
            return Err(format!("worker rank {} registered twice", rank).into());
        }
        addrs[rank] = Some(Addr::parse(&addr_s).map_err(|e| e.to_string())?);
        conns[rank] = Some(Conn { reader, writer });
    }
    Ok((
        conns.into_iter().map(|c| c.unwrap()).collect(),
        addrs.into_iter().map(|a| a.unwrap()).collect(),
    ))
}

/// Read every rank's result and merge them. A rank ends in one of three
/// ways: a result (it is done), an error result (it failed, and its fault
/// events name the faulted links), or a closed, reset or silent control
/// link before any result (it died). The collector reads every rank
/// before it reports a failure.
fn collect_results(
    job: &NetJob,
    compiled: &Compiled,
    readers: &mut [FrameReader<NetStream>],
) -> Result<DriveOutput, Failure> {
    let nproc = readers.len();
    let program = &compiled.spmd.program;
    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
    let mut mems: Vec<Memory> = Vec::with_capacity(nproc);
    let mut rank_obs: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    let mut failure = Failure::default();
    for (rank, reader) in readers.iter_mut().enumerate() {
        let what = format!("result from worker {}", rank);
        let payload = match read_blob(reader, &what) {
            Ok(payload) => payload,
            Err(e) => {
                failure.died.push(rank);
                failure.failed.push(rank);
                failure.why.push(e);
                continue;
            }
        };
        let (res, obs) = match decode_result(&payload, program) {
            Ok(decoded) => decoded,
            Err(e) => {
                failure.failed.push(rank);
                failure.why.push(format!("{}: {}", what, e));
                continue;
            }
        };
        match res {
            Ok((s, m, mem)) => {
                stats.messages_sent += s.messages_sent;
                stats.events += s.events;
                metrics.merge(&m);
                mems.push(mem);
            }
            Err(msg) => {
                // Name the fault events the failed rank saw — they usually
                // explain the failure better than the replay error does.
                let mut names = Vec::new();
                for ev in &obs {
                    let Body::Fault { name, peer, .. } = &ev.body else {
                        continue;
                    };
                    names.push(name.as_str());
                    if let Some(peer) = *peer {
                        if observes_injection(name) && !failure.faulted.contains(&(peer, rank)) {
                            failure.faulted.push((peer, rank));
                        }
                    }
                }
                let mut msg = format!("worker {}: {}", rank, msg);
                if !names.is_empty() {
                    msg = format!("{} (faults: {})", msg, names.join(", "));
                }
                failure.failed.push(rank);
                failure.why.push(msg);
            }
        }
        if job.trace {
            rank_obs.push((rank, obs));
        }
    }
    if failure.failed.is_empty() {
        return Ok((stats, metrics, mems, rank_obs));
    }
    failure.faults = rank_obs
        .into_iter()
        .map(|(rank, obs)| {
            let faults = obs
                .into_iter()
                .filter(|ev| matches!(ev.body, Body::Fault { .. }))
                .collect();
            (rank, faults)
        })
        .collect();
    Err(failure)
}

fn kill_cohort(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
    }
    for (_, child) in children.iter_mut() {
        let _ = child.wait();
    }
}

/// Entry point of the `networker` binary: one spawned process per rank.
/// Reads its rank and the parent address from the environment, registers,
/// receives the job, meshes with its peers, replays its rank's events
/// epoch by epoch as the parent streams them, and reports back.
pub fn worker_main() -> Result<(), String> {
    let parent = std::env::var(ENV_PARENT)
        .map_err(|_| format!("{} not set (run via the socket backend driver)", ENV_PARENT))?;
    let rank: usize = std::env::var(ENV_RANK)
        .map_err(|_| format!("{} not set", ENV_RANK))?
        .parse()
        .map_err(|e| format!("bad {}: {}", ENV_RANK, e))?;
    let parent_addr = Addr::parse(&parent).map_err(|e| e.to_string())?;
    let kind = match parent_addr {
        Addr::Tcp(_) => AddrKind::Tcp,
        Addr::Unix(_) => AddrKind::Unix,
    };
    let listener =
        NetListener::bind(kind, &format!("rank{}", rank)).map_err(|e| e.to_string())?;
    let my_addr = listener.addr().map_err(|e| e.to_string())?;

    let stream = connect_backoff(&parent_addr, Duration::from_secs(10))
        .map_err(|e| format!("reaching parent: {}", e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {}", e))?;
    let reader_stream = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {}", e))?;
    let mut reader = FrameReader::new(reader_stream);
    let mut writer = FrameWriter::new(stream);

    writer
        .write(FrameKind::Blob, &encode_registration(rank, &my_addr))
        .map_err(|e| format!("registering with parent: {}", e))?;

    let payload = read_blob(&mut reader, "job from parent")?;
    let wire = decode_job(&payload)?;
    let compiled = compile_for(&wire)?;
    let program = &compiled.spmd.program;
    let mut stream = ParentStream {
        reader,
        sp: &compiled.spmd,
        nproc: wire.nproc,
    };
    // Untraced, the timeline holds only the transport's fault events:
    // they tell the parent which planned injection fired.
    let mut obs = BufTracer::for_rank(rank);
    let result = run_rank_inner(&wire, rank, &compiled, &mut stream, &listener, &mut obs);
    writer
        .write(FrameKind::Blob, &encode_result(&result, obs.events(), program))
        .map_err(|e| format!("sending result: {}", e))?;
    result.map(|_| ())
}

/// Compile the job's source — deterministically the parent's lowered
/// program — and check it has the grid the parent's job names.
fn compile_for(wire: &WireJob) -> Result<Compiled, String> {
    let compiled = wire.job.compile()?;
    let nproc = compiled.spmd.maps.grid.total();
    if nproc != wire.nproc {
        return Err(format!(
            "compiled grid has {} processors, job says {}",
            nproc, wire.nproc
        ));
    }
    Ok(compiled)
}

/// Replay this rank under the job's fault plan. Comm events go to `obs`
/// when the job is traced; the transport's fault events always do, on
/// errors too, so a dead peer's faults (with the link's last acknowledged
/// sequence number) still reach the parent.
fn run_rank_inner(
    wire: &WireJob,
    rank: usize,
    compiled: &Compiled,
    stream: &mut ParentStream,
    listener: &NetListener,
    obs: &mut BufTracer,
) -> RankResult {
    let nproc = wire.nproc;
    let init = make_init(compiled, &wire.job.fills)?;
    let mut mem = Memory::zeroed(&compiled.spmd.program);
    init(&mut mem);
    let mut transport =
        SocketTransport::connect_mesh(rank, nproc, listener, &wire.addrs, wire.mesh_cfg())
            .map_err(|e: NetError| format!("proc {}: mesh: {}", rank, e))?;
    let injector = (!wire.plan.is_empty()).then(|| FaultInjector::new(&wire.plan, rank));
    if let Some(inj) = &injector {
        transport.set_fault_injector(inj.clone());
    }
    if wire.fail_rank == Some(rank) {
        // Fault injection: die abruptly after the handshake so peers see
        // a closed link mid-replay, not a clean goodbye.
        std::process::abort();
    }
    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
    let replayed = (|| {
        while let Some(events) = stream.next_epoch()? {
            replay_rank_segment(
                &compiled.spmd,
                &events,
                &mut mem,
                &mut transport,
                &mut stats,
                &mut metrics,
                wire.job.trace.then_some(&mut *obs),
                |_| {
                    if injector.as_ref().is_some_and(FaultInjector::note_event) {
                        // The fault plan's kill: die as abruptly as a
                        // real crash, mid-epoch, without a goodbye.
                        std::process::abort();
                    }
                },
            )?;
        }
        transport
            .finish()
            .map_err(|e| format!("proc {}: teardown: {}", rank, e))
    })();
    obs.absorb(transport.take_fault_events());
    replayed?;
    metrics.saw_in_flight(transport.peak_in_flight());
    Ok((stats, metrics, mem))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connect to `addr` and send `payload` as a worker registration. The
    /// frame stays readable on the parent's side after this side closes.
    fn fake_worker(addr: Addr, payload: Vec<u8>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let stream = connect_backoff(&addr, Duration::from_secs(5)).expect("connect");
            let mut w = FrameWriter::new(stream);
            w.write(FrameKind::Blob, &payload).expect("register");
        })
    }

    fn meet(payload: Vec<u8>) -> Result<(Vec<Conn>, Vec<Addr>), MeetError> {
        let listener = NetListener::bind(AddrKind::default(), "regtest").unwrap();
        let worker = fake_worker(listener.addr().unwrap(), payload);
        let res = rendezvous(&NetRunConfig::default(), 1, &listener);
        worker.join().unwrap();
        res
    }

    fn old_registration(rank: u32, addr: &str) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(rank);
        e.str(addr);
        e.buf
    }

    #[test]
    fn registration_round_trips_with_the_protocol_number() {
        let addr = Addr::parse("tcp:127.0.0.1:4000").unwrap();
        let reg = decode_registration(&encode_registration(3, &addr)).unwrap();
        assert_eq!(
            reg,
            Registration {
                rank: 3,
                addr: addr.to_string(),
                protocol: Some(PROTOCOL),
            }
        );
        // The protocol number is the only addition: four bytes.
        assert_eq!(
            encode_registration(3, &addr).len(),
            old_registration(3, &addr.to_string()).len() + 4
        );
    }

    #[test]
    fn unnumbered_registration_is_stale() {
        let reg = decode_registration(&old_registration(0, "tcp:127.0.0.1:4000")).unwrap();
        assert_eq!(reg.protocol, None);
        match meet(old_registration(0, "tcp:127.0.0.1:4000")) {
            Err(MeetError::Stale { rank: 0, got: None }) => {}
            Err(MeetError::Failed(e)) => panic!("expected a stale-worker error, got {e}"),
            other => panic!("expected a stale-worker error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn wrong_protocol_number_is_stale() {
        let mut payload = old_registration(0, "tcp:127.0.0.1:4000");
        payload.extend_from_slice(&(PROTOCOL + 7).to_le_bytes());
        match meet(payload) {
            Err(MeetError::Stale {
                rank: 0,
                got: Some(n),
            }) => assert_eq!(n, PROTOCOL + 7),
            Err(MeetError::Failed(e)) => panic!("expected a stale-worker error, got {e}"),
            other => panic!("expected a stale-worker error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn current_registration_meets() {
        let addr = Addr::parse("tcp:127.0.0.1:4000").unwrap();
        let (conns, addrs) = meet(encode_registration(0, &addr)).unwrap_or_else(|e| match e {
            MeetError::Failed(e) => panic!("{e}"),
            MeetError::Stale { got, .. } => panic!("stale: {got:?}"),
        });
        assert_eq!(conns.len(), 1);
        assert_eq!(addrs, vec![addr]);
    }

    #[test]
    fn trailing_bytes_after_the_protocol_number_are_rejected() {
        let mut payload = encode_registration(0, &Addr::parse("tcp:127.0.0.1:4000").unwrap());
        payload.push(0);
        assert!(decode_registration(&payload).is_err());
    }
}
