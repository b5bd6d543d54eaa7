//! Multi-process orchestration for the socket backend.
//!
//! `phpfc --backend socket` (and the differential tests) validate a
//! replay where every virtual processor is a real OS process exchanging
//! frames over [`hpf_net::socket`] links. The pieces:
//!
//! * the *parent* ([`socket_validate_replay`]) compiles the program, runs
//!   the reference executor once for the authoritative memories and the
//!   per-rank event trace, then spawns one `networker` process per rank
//!   and plays rendezvous server: each worker registers `(rank, data
//!   address, protocol number)` over a framed control connection, the
//!   parent answers with the job spec plus the full address map, streams
//!   the worker its own rank's events ([`hpf_spmd::encode_events`], in
//!   Blob frames of at most about [`EVENT_CHUNK_BYTES`]), and finally
//!   collects one result blob per rank (stats, wire metrics, the rank's
//!   entire memory);
//! * each *worker* ([`worker_main`], the `networker` binary) compiles the
//!   same source (replay needs the lowered program), applies the fills,
//!   decodes its event stream, meshes with its peers via
//!   [`SocketTransport::connect_mesh`], and replays its rank's events
//!   with [`hpf_spmd::replay_rank`] — the exact engine the threaded
//!   backend uses, just over sockets. No worker runs the reference
//!   executor;
//! * the parent merges the per-rank [`CommMetrics`] and checks every
//!   owner slot bit-for-bit against the reference memories
//!   ([`hpf_spmd::check_owner_slots`]).
//!
//! A worker whose registration carries another [`PROTOCOL`] number (a
//! binary built from older sources) is killed with its cohort before it
//! receives anything; see [`socket_validate_replay`].
//!
//! Every blocking step carries a deadline (rendezvous accepts, job
//! dispatch, result collection, child reaping), so a worker that dies or
//! wedges surfaces as an error with its rank attached, never a hang.

use crate::{compile_source, Compiled, Options, Version};
use hpf_ir::interp::Memory;
use hpf_ir::{Program, ScalarTy};
use hpf_net::frame::{Dec, Enc, FrameKind, FrameReader, FrameWriter, ReadStep};
use hpf_net::socket::{
    connect_backoff, Addr, AddrKind, NetListener, NetStream, SocketConfig, SocketTransport,
};
use hpf_net::{FaultInjector, NetError, RetryPolicy, Transport};
use hpf_obs::{Body, BufTracer, CommKind, TraceEvent, Tracer};
use hpf_spmd::metrics::{self, CommMetrics, RecoveryCounters};
use hpf_spmd::{
    check_owner_slots, decode_events, encode_events, replay_rank_segment, replay_rank_traced,
    validate_replay_traced, Event, ReplayStats, Replayed, SpmdExec, SpmdProgram, Trace,
};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
pub const PROTOCOL: u32 = 2;

/// Soft size bound of one event-stream frame: a chunk stops taking events
/// once its payload reaches this many bytes, so a frame exceeds it by at
/// most one event.
pub const EVENT_CHUNK_BYTES: usize = 1 << 16;

/// Everything a worker needs besides its event stream: the source and
/// options it compiles (deterministically, to the parent's lowered
/// program) and the fills that give every rank its initial memory. The
/// trace itself is recorded once, by the parent, and each worker is sent
/// only its own rank's events.
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
    /// Deliberately *not* rescued by supervision: it exists to prove the
    /// unsupervised failure path stays loud.
    pub fail_rank: Option<usize>,
    /// Link retransmission budget (NACK-driven resends per link). `0`
    /// derives a default: 3 when a fault plan is active, else off.
    pub retries: u32,
    /// Deterministic fault plan (corrupt/drop/kill actions) injected into
    /// the workers. A non-empty plan switches the driver into supervised
    /// mode: lock-step epochs, checkpoints, heartbeats and gang respawn.
    pub fault_plan: Option<FaultPlan>,
    /// How often each worker's heartbeat thread beats on its control link.
    pub heartbeat_interval: Duration,
    /// Parent-side silence budget per worker before it is declared dead.
    pub heartbeat_deadline: Duration,
    /// How many failed generations the supervisor may respawn before it
    /// degrades to the in-process thread backend. `None` derives the
    /// budget from the effective retry count.
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
            retries: 0,
            fault_plan: None,
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_deadline: Duration::from_secs(5),
            respawn_budget: None,
        }
    }
}

impl NetRunConfig {
    fn plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or_default()
    }

    /// Supervised mode: lock-step epoch checkpoints, worker heartbeats and
    /// gang respawn on failure. Engaged by any recovery knob; the default
    /// configuration keeps the original fire-and-collect driver
    /// byte-for-byte.
    pub fn supervised(&self) -> bool {
        self.retries > 0 || !self.plan().is_empty() || self.respawn_budget.is_some()
    }

    /// Link retransmission budget actually shipped to the workers: an
    /// explicit `retries`, or 3 when a fault plan is active, else 0.
    pub fn effective_retries(&self) -> u32 {
        if self.retries > 0 {
            self.retries
        } else if !self.plan().is_empty() {
            3
        } else {
            0
        }
    }
}

const NO_RANK: u32 = u32::MAX;

/// Per-rank supervision extras riding on the job blob: the (resolved,
/// possibly respawn-pruned) fault plan, the retransmission budget, the
/// heartbeat cadence, this rank's epoch-cut offsets into its event stream
/// (relative to the stream's first event), and — for a respawned
/// generation — how many epochs are already committed plus this rank's
/// checkpointed memory.
struct JobExtras<'a> {
    plan: &'a FaultPlan,
    retries: u32,
    supervised: bool,
    cuts: &'a [usize],
    resume: Option<(u32, &'a [u8])>,
}

impl<'a> JobExtras<'a> {
    fn unsupervised(empty: &'a FaultPlan) -> JobExtras<'a> {
        JobExtras {
            plan: empty,
            retries: 0,
            supervised: false,
            cuts: &[],
            resume: None,
        }
    }
}

fn encode_job(
    job: &NetJob,
    cfg: &NetRunConfig,
    nproc: usize,
    addrs: &[Addr],
    extras: &JobExtras,
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
    e.str(&extras.plan.to_string());
    e.u32(extras.retries);
    e.u64(cfg.heartbeat_interval.as_millis() as u64);
    e.boolean(extras.supervised);
    e.u32(extras.cuts.len() as u32);
    for &c in extras.cuts {
        e.u64(c as u64);
    }
    match extras.resume {
        Some((epochs, blob)) => {
            e.u8(1);
            e.u32(epochs);
            e.bytes(blob);
        }
        None => e.u8(0),
    }
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
    retries: u32,
    heartbeat_interval: Duration,
    supervised: bool,
    /// Epoch-cut offsets into this rank's event stream (supervised only).
    cuts: Vec<usize>,
    /// Respawn resume state: committed epoch count + this rank's
    /// checkpointed memory (an [`encode_memory`] blob).
    resume: Option<(u32, Vec<u8>)>,
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
    let retries = d.u32().map_err(|e| e.to_string())?;
    let heartbeat_interval = Duration::from_millis(d.u64().map_err(|e| e.to_string())?);
    let supervised = d.boolean().map_err(|e| e.to_string())?;
    let ncuts = d.u32().map_err(|e| e.to_string())? as usize;
    let mut cuts = Vec::with_capacity(ncuts.min(d.remaining() / 8));
    for _ in 0..ncuts {
        cuts.push(d.u64().map_err(|e| e.to_string())? as usize);
    }
    let resume = match d.u8().map_err(|e| e.to_string())? {
        0 => None,
        _ => {
            let epochs = d.u32().map_err(|e| e.to_string())?;
            let blob = d.bytes().map_err(|e| e.to_string())?;
            Some((epochs, blob))
        }
    };
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
        retries,
        heartbeat_interval,
        supervised,
        cuts,
        resume,
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

fn encode_result(
    res: &Result<(ReplayStats, CommMetrics, Memory), String>,
    obs: &[TraceEvent],
    program: &Program,
) -> Vec<u8> {
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
    // its comm events and the transport's fault events.
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
    reader: FrameReader<hpf_net::socket::NetStream>,
    writer: FrameWriter<hpf_net::socket::NetStream>,
}

fn read_blob(reader: &mut FrameReader<hpf_net::socket::NetStream>, what: &str) -> Result<Vec<u8>, String> {
    match reader.read_step() {
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
                kill_generation(&mut children);
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

/// Stream every worker its events, `events(rank)`, one thread per
/// connection so that the workers decode in parallel.
fn stream_events<'a>(
    conns: &mut [Conn],
    events: impl Fn(usize) -> &'a [Event] + Sync,
) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(rank, conn)| {
                let events = &events;
                scope.spawn(move || {
                    send_events(&mut conn.writer, events(rank))
                        .map_err(|e| format!("streaming events to worker {}: {}", rank, e))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("event stream thread panicked"))
    })
}

/// Stream one rank's events to its worker as Blob frames of at most about
/// [`EVENT_CHUNK_BYTES`], all built in one reused buffer. Each payload is
/// a last-chunk flag followed by one [`encode_events`] chunk; an empty
/// list is one empty last chunk.
fn send_events(writer: &mut FrameWriter<NetStream>, events: &[Event]) -> std::io::Result<()> {
    let mut enc = Enc::new();
    let mut rest = events;
    loop {
        enc.buf.clear();
        enc.u8(0);
        let n = encode_events(&mut enc, rest, EVENT_CHUNK_BYTES);
        rest = &rest[n..];
        enc.buf[0] = rest.is_empty() as u8;
        writer.write(FrameKind::Blob, &enc.buf)?;
        if rest.is_empty() {
            return Ok(());
        }
    }
}

/// Receive the event stream [`send_events`] wrote, validating every event
/// against the worker's compiled program.
fn recv_events(
    reader: &mut FrameReader<NetStream>,
    sp: &SpmdProgram,
    nproc: usize,
) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    loop {
        let payload = read_blob(reader, "event stream from parent")?;
        let mut d = Dec::new(&payload);
        let last = d.boolean().map_err(|e| e.to_string())?;
        let chunk = decode_events(&mut d, sp, nproc).map_err(|e| format!("event stream: {}", e))?;
        events.extend(chunk);
        d.done().map_err(|e| format!("event stream: {}", e))?;
        if last {
            return Ok(events);
        }
    }
}

/// Run the job's replay with one OS process per virtual processor and
/// validate it exactly like the threaded `validate_replay`: owner slots
/// bit-for-bit against the reference executor, metrics merged over ranks.
///
/// With any recovery knob set ([`NetRunConfig::supervised`]) the driver
/// runs the self-healing protocol instead: injected link faults heal via
/// retransmission, dead workers are respawned from the last epoch
/// checkpoint, and when the respawn budget is exhausted the whole run
/// degrades to the in-process thread backend ([`Replayed::degraded`]).
pub fn socket_validate_replay(job: &NetJob, cfg: &NetRunConfig) -> Result<Replayed, String> {
    // Pipeline spans land on the parent's timeline; workers only
    // contribute per-rank comm/fault events.
    let mut pipe = hpf_obs::BufTracer::pipeline();
    let compiled = if job.trace {
        job.compile_traced(&mut pipe)?
    } else {
        job.compile()?
    };
    let nproc = compiled.spmd.maps.grid.total();
    let init = make_init(&compiled, &job.fills)?;
    if job.trace {
        pipe.begin("reference-exec");
    }
    let mut exec = SpmdExec::new(&compiled.spmd, &init).with_trace();
    if !job.vectorize {
        exec = exec.without_vectorization();
    }
    exec.run()
        .map_err(|e| format!("reference run failed: {}", e))?;
    if job.trace {
        pipe.end("reference-exec");
        pipe.begin("replay");
    }

    if cfg.supervised() {
        return supervised_validate_replay(job, cfg, &compiled, nproc, &init, &exec, pipe);
    }

    let mut listener = NetListener::bind(cfg.addr_kind, "netrun").map_err(|e| e.to_string())?;
    let (mut children, met) = launch(cfg, nproc, &mut listener)?;
    let result = met.and_then(|(conns, addrs)| {
        let trace = exec.trace.as_ref().expect("reference run was traced");
        drive_workers(job, cfg, &compiled, trace, conns, &addrs)
    });
    let reap_errors = reap(&mut children, cfg.result_deadline);
    let (stats, metrics, mems, rank_obs) = match result {
        Ok(r) => r,
        Err(mut e) => {
            // Child exit diagnostics often explain the protocol error.
            if !reap_errors.is_empty() {
                e = format!("{}; {}", e, reap_errors.join("; "));
            }
            return Err(e);
        }
    };
    if !reap_errors.is_empty() {
        return Err(reap_errors.join("; "));
    }
    check_owner_slots(&compiled.spmd, &mems, &exec.mems)
        .map_err(|e| format!("processes vs reference: {}", e))?;
    let obs = if job.trace {
        pipe.end("replay");
        Some(hpf_obs::Trace::merge(pipe.into_events(), rank_obs))
    } else {
        None
    };
    Ok(Replayed {
        mems,
        stats,
        metrics,
        obs,
        degraded: false,
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

fn drive_workers(
    job: &NetJob,
    cfg: &NetRunConfig,
    compiled: &Compiled,
    trace: &Trace,
    mut conns: Vec<Conn>,
    addrs: &[Addr],
) -> Result<DriveOutput, String> {
    let nproc = conns.len();
    // Dispatch the job (with the address map) to every worker first, so
    // they all compile before their event streams start.
    let empty = FaultPlan::default();
    let job_blob = encode_job(job, cfg, nproc, addrs, &JobExtras::unsupervised(&empty));
    for (rank, conn) in conns.iter_mut().enumerate() {
        conn.writer
            .write(FrameKind::Blob, &job_blob)
            .map_err(|e| format!("dispatching job to worker {}: {}", rank, e))?;
    }
    stream_events(&mut conns, |rank| &trace[rank])?;

    // Collect one result per rank.
    let program = &compiled.spmd.program;
    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
    let mut mems: Vec<Option<Memory>> = (0..nproc).map(|_| None).collect();
    let mut rank_obs: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    let mut worker_errors = Vec::new();
    for (rank, conn) in conns.iter_mut().enumerate() {
        let payload = read_blob(&mut conn.reader, &format!("result from worker {}", rank))?;
        let (res, obs) = decode_result(&payload, program)?;
        match res {
            Ok((s, m, mem)) => {
                stats.messages_sent += s.messages_sent;
                stats.events += s.events;
                metrics.merge(&m);
                mems[rank] = Some(mem);
            }
            Err(msg) => {
                // Name the fault events the failed rank saw — they usually
                // explain the failure better than the replay error does.
                let faults: Vec<&str> = obs
                    .iter()
                    .filter_map(|ev| match &ev.body {
                        Body::Fault { name, .. } => Some(name.as_str()),
                        _ => None,
                    })
                    .collect();
                let mut msg = format!("worker {}: {}", rank, msg);
                if !faults.is_empty() {
                    msg = format!("{} (faults: {})", msg, faults.join(", "));
                }
                worker_errors.push(msg);
            }
        }
        if job.trace {
            rank_obs.push((rank, obs));
        }
    }
    if !worker_errors.is_empty() {
        return Err(worker_errors.join("; "));
    }
    let mems: Vec<Memory> = mems.into_iter().map(|m| m.unwrap()).collect();
    Ok((stats, metrics, mems, rank_obs))
}

// ---------------------------------------------------------------------------
// Supervised mode: lock-step epochs, heartbeats, checkpoints, gang respawn.
//
// The parent runs the replay as a sequence of *epochs* (the executor's
// loop-level barrier cuts, [`SpmdExec::epoch_cuts`]). After each epoch every
// worker ships a status — its checkpointed memory plus any fault events its
// transport healed — and waits for a `Proceed` directive. The parent commits
// the checkpoint once all ranks report, so there is always a globally
// consistent cut to restart from. When a worker dies (abrupt socket close,
// error status, or missed heartbeats) the whole generation is torn down and
// respawned from the last committed checkpoint: links are meshes of fresh
// processes, so a gang restart needs no live re-rendezvous, and the pruned
// fault plan ([`FaultPlan::for_respawn`]) guarantees the same fault never
// fires twice. When the respawn budget runs dry the caller degrades to the
// in-process thread backend.

/// Control-frame tags on the worker → parent connection. Tags 0/1 are
/// never sent (they keep the unsupervised single-blob protocol
/// unambiguous).
const TAG_STATUS: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_RESULT: u8 = 4;
/// Parent → worker directive after a committed epoch.
const DIRECTIVE_PROCEED: u8 = 1;

fn memory_blob(program: &Program, mem: &Memory) -> Vec<u8> {
    let mut e = Enc::new();
    encode_memory(&mut e, program, mem);
    e.buf
}

/// One worker's end-of-epoch report.
struct StatusMsg {
    epoch: u32,
    /// Cumulative link retransmissions this process performed so far.
    retransmits: u64,
    /// Checkpointed memory on success (an [`encode_memory`] blob, kept
    /// encoded: the parent only ever hands it back to a respawned
    /// worker, which decodes and checks it), replay error otherwise.
    body: Result<Vec<u8>, String>,
    /// All fault events the worker accumulated so far (cumulative, so a
    /// generation that dies later still leaves its healing on record).
    faults: Vec<TraceEvent>,
}

fn decode_status(payload: &[u8]) -> Result<StatusMsg, String> {
    let mut d = Dec::new(payload);
    let epoch = d.u32().map_err(|e| e.to_string())?;
    let retransmits = d.u64().map_err(|e| e.to_string())?;
    let body = match d.u8().map_err(|e| e.to_string())? {
        0 => Err(d.str().map_err(|e| e.to_string())?),
        _ => Ok(d.bytes().map_err(|e| e.to_string())?),
    };
    let faults = decode_obs_events(&mut d)?;
    d.done().map_err(|e| e.to_string())?;
    Ok(StatusMsg {
        epoch,
        retransmits,
        body,
        faults,
    })
}

enum ParentMsg {
    Heartbeat { rank: usize },
    Status { rank: usize, payload: Vec<u8> },
    Result { rank: usize, payload: Vec<u8> },
    Gone { rank: usize, why: String },
}

/// Per-connection reader thread: turns control frames into [`ParentMsg`]s
/// until the worker delivers its result or the link dies.
fn control_reader(
    mut reader: FrameReader<NetStream>,
    rank: usize,
    tx: mpsc::Sender<ParentMsg>,
) {
    loop {
        let msg = match reader.read_step() {
            Ok(ReadStep::Frame((FrameKind::Blob, payload))) => match payload.split_first() {
                Some((&TAG_HEARTBEAT, _)) => ParentMsg::Heartbeat { rank },
                Some((&TAG_STATUS, rest)) => ParentMsg::Status {
                    rank,
                    payload: rest.to_vec(),
                },
                Some((&TAG_RESULT, rest)) => {
                    let _ = tx.send(ParentMsg::Result {
                        rank,
                        payload: rest.to_vec(),
                    });
                    return;
                }
                other => {
                    let _ = tx.send(ParentMsg::Gone {
                        rank,
                        why: format!("unknown control tag {:?}", other.map(|(t, _)| *t)),
                    });
                    return;
                }
            },
            Ok(ReadStep::Frame((kind, _))) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: format!("unexpected {:?} control frame", kind),
                });
                return;
            }
            Ok(ReadStep::Idle) => continue,
            Ok(ReadStep::Eof) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: "control connection closed (worker died?)".into(),
                });
                return;
            }
            Err(e) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: e.to_string(),
                });
                return;
            }
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

fn kill_generation(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
    }
    for (_, child) in children.iter_mut() {
        let _ = child.wait();
    }
}

/// Globally consistent restart state: how many epochs every rank has
/// committed, and each rank's memory at that cut (as the encoded blob
/// its worker reported).
struct Committed {
    epoch: u32,
    mems: Vec<Vec<u8>>,
}

enum GenOutcome {
    /// Every rank delivered a successful result.
    Finished(Vec<(RankResult, Vec<TraceEvent>)>),
    /// At least one rank died or failed; the generation was torn down.
    /// `None` ranks are setup failures not attributable to one worker.
    Failed { dead: Vec<(Option<usize>, String)> },
}

/// Run one supervised generation: spawn all ranks, drive the lock-step
/// epoch protocol, and either collect every result or tear the cohort
/// down on the first failure. Salvages fault evidence (events and
/// retransmission counts reported in statuses) from failed generations.
#[allow(clippy::too_many_arguments)]
fn run_generation(
    job: &NetJob,
    cfg: &NetRunConfig,
    compiled: &Compiled,
    exec: &SpmdExec,
    nproc: usize,
    listener: &mut NetListener,
    plan: &FaultPlan,
    committed: &mut Committed,
    pipe: &mut BufTracer,
    recovery: &mut RecoveryCounters,
    salvaged: &mut [Vec<TraceEvent>],
) -> Result<GenOutcome, String> {
    let trace = job.trace;
    let program = &compiled.spmd.program;
    let (mut children, met) = launch(cfg, nproc, listener)?;

    // Rendezvous + dispatch. Failures here doom the generation, not the
    // run: they are charged to the respawn budget like any worker death.
    // Each rank is sent its events from the committed cut onward, with
    // its remaining cut offsets made relative to that cut.
    let events = exec.trace.as_ref().expect("reference run was traced");
    let cuts = &exec.epoch_cuts()[committed.epoch as usize..];
    let setup = met.and_then(|(mut conns, addrs)| {
        let retries = cfg.effective_retries();
        for (rank, conn) in conns.iter_mut().enumerate() {
            let rel: Vec<usize> = cuts.iter().map(|c| c[rank] - cuts[0][rank]).collect();
            let extras = JobExtras {
                plan,
                retries,
                supervised: true,
                cuts: &rel,
                resume: (committed.epoch > 0).then(|| (committed.epoch, &committed.mems[rank][..])),
            };
            let blob = encode_job(job, cfg, nproc, &addrs, &extras);
            conn.writer
                .write(FrameKind::Blob, &blob)
                .map_err(|e| format!("dispatching job to worker {}: {}", rank, e))?;
        }
        stream_events(&mut conns, |rank| &events[rank][cuts[0][rank]..])?;
        Ok(conns)
    });
    let conns = match setup {
        Ok(c) => c,
        Err(e) => {
            kill_generation(&mut children);
            return Ok(GenOutcome::Failed {
                dead: vec![(None, e)],
            });
        }
    };

    let (tx, rx) = mpsc::channel::<ParentMsg>();
    let mut writers: Vec<FrameWriter<NetStream>> = Vec::with_capacity(nproc);
    for (rank, conn) in conns.into_iter().enumerate() {
        let Conn { reader, writer } = conn;
        writers.push(writer);
        let tx = tx.clone();
        std::thread::spawn(move || control_reader(reader, rank, tx));
    }
    drop(tx);

    let mut last_heard: Vec<Instant> = vec![Instant::now(); nproc];
    let mut statuses: Vec<Option<Vec<u8>>> = (0..nproc).map(|_| None).collect();
    let mut results: Vec<Option<(RankResult, Vec<TraceEvent>)>> =
        (0..nproc).map(|_| None).collect();
    let mut prov_faults: Vec<Vec<TraceEvent>> = vec![Vec::new(); nproc];
    let mut prov_retx: Vec<u64> = vec![0; nproc];
    let mut failed: Vec<(Option<usize>, String)> = Vec::new();
    // A rank is "accounted" once it delivered a result or joined `failed`.
    let mut accounted: Vec<bool> = vec![false; nproc];
    let mut expect_epoch = committed.epoch;
    // Once a failure is seen, drain briefly: peers that error out on the
    // dead rank's closed links deliver their error statuses (with the
    // fault events they healed this epoch) before the teardown.
    let mut drain_deadline: Option<Instant> = None;
    let drain_grace = Duration::from_millis(1500);
    let start_drain = |dl: &mut Option<Instant>| {
        dl.get_or_insert_with(|| Instant::now() + drain_grace);
    };

    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ParentMsg::Heartbeat { rank }) => last_heard[rank] = Instant::now(),
            Ok(ParentMsg::Status { rank, payload }) => {
                last_heard[rank] = Instant::now();
                match decode_status(&payload) {
                    Ok(st) => {
                        prov_retx[rank] = st.retransmits;
                        prov_faults[rank] = st.faults;
                        match st.body {
                            Ok(mem)
                                if st.epoch == expect_epoch && drain_deadline.is_none() =>
                            {
                                statuses[rank] = Some(mem);
                            }
                            // A stale or raced status while draining only
                            // contributes its salvage payload.
                            Ok(_) => {}
                            Err(msg) => {
                                if !accounted[rank] {
                                    accounted[rank] = true;
                                    failed.push((
                                        Some(rank),
                                        format!("epoch {}: {}", st.epoch, msg),
                                    ));
                                }
                                start_drain(&mut drain_deadline);
                            }
                        }
                    }
                    Err(e) => {
                        if !accounted[rank] {
                            accounted[rank] = true;
                            failed.push((Some(rank), format!("bad status: {}", e)));
                        }
                        start_drain(&mut drain_deadline);
                    }
                }
            }
            Ok(ParentMsg::Result { rank, payload }) => {
                last_heard[rank] = Instant::now();
                match decode_result(&payload, program) {
                    Ok((Ok(res), obs)) => {
                        accounted[rank] = true;
                        results[rank] = Some((Ok(res), obs));
                    }
                    Ok((Err(msg), _)) => {
                        if !accounted[rank] {
                            accounted[rank] = true;
                            failed.push((Some(rank), msg));
                        }
                        start_drain(&mut drain_deadline);
                    }
                    Err(e) => {
                        if !accounted[rank] {
                            accounted[rank] = true;
                            failed.push((Some(rank), format!("bad result: {}", e)));
                        }
                        start_drain(&mut drain_deadline);
                    }
                }
            }
            Ok(ParentMsg::Gone { rank, why }) => {
                if !accounted[rank] {
                    accounted[rank] = true;
                    failed.push((Some(rank), why));
                    start_drain(&mut drain_deadline);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // All reader threads exited; the state checks below decide.
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }

        // Deadline-based failure detection: a worker that stops
        // heartbeating is dead to the supervisor even if its socket is
        // still open (wedged process, livelocked replay).
        for rank in 0..nproc {
            if !accounted[rank] && last_heard[rank].elapsed() > cfg.heartbeat_deadline {
                accounted[rank] = true;
                recovery.heartbeat_misses += 1;
                if trace {
                    pipe.push(Body::Fault {
                        name: "heartbeat-miss".into(),
                        detail: format!(
                            "rank {} silent for more than {:?}",
                            rank, cfg.heartbeat_deadline
                        ),
                        peer: Some(rank),
                        last_seq: None,
                    });
                }
                failed.push((
                    Some(rank),
                    format!("no heartbeat within {:?}", cfg.heartbeat_deadline),
                ));
                start_drain(&mut drain_deadline);
            }
        }

        match drain_deadline {
            None => {
                if results.iter().all(|r| r.is_some()) {
                    let out = std::mem::take(&mut results);
                    break GenOutcome::Finished(
                        out.into_iter().map(|r| r.unwrap()).collect(),
                    );
                }
                if statuses.iter().all(|s| s.is_some()) {
                    // Commit the epoch: every rank checkpointed this cut,
                    // so it is a globally consistent restart point.
                    committed.epoch = expect_epoch + 1;
                    committed.mems =
                        statuses.iter_mut().map(|s| s.take().unwrap()).collect();
                    if trace {
                        pipe.push(Body::Fault {
                            name: "checkpoint".into(),
                            detail: format!(
                                "epoch {} committed across {} ranks",
                                expect_epoch, nproc
                            ),
                            peer: None,
                            last_seq: None,
                        });
                    }
                    expect_epoch += 1;
                    for (rank, w) in writers.iter_mut().enumerate() {
                        if let Err(e) = w.write(FrameKind::Blob, &[DIRECTIVE_PROCEED]) {
                            if !accounted[rank] {
                                accounted[rank] = true;
                                failed.push((
                                    Some(rank),
                                    format!("sending proceed: {}", e),
                                ));
                            }
                            start_drain(&mut drain_deadline);
                        }
                    }
                }
            }
            Some(dl) => {
                if accounted.iter().all(|&a| a) || Instant::now() >= dl {
                    break GenOutcome::Failed {
                        dead: std::mem::take(&mut failed),
                    };
                }
            }
        }
    };

    match outcome {
        GenOutcome::Finished(res) => {
            let reap_errors = reap(&mut children, cfg.result_deadline);
            if !reap_errors.is_empty() {
                return Err(reap_errors.join("; "));
            }
            Ok(GenOutcome::Finished(res))
        }
        GenOutcome::Failed { dead } => {
            // Salvage the failed generation's recovery evidence: its fault
            // events and retransmission counts would otherwise die with it.
            for rank in 0..nproc {
                salvaged[rank].append(&mut prov_faults[rank]);
                recovery.retransmits += prov_retx[rank];
            }
            kill_generation(&mut children);
            Ok(GenOutcome::Failed { dead })
        }
    }
}

enum SupvDrive {
    Done(DriveOutput),
    Exhausted(String),
}

/// The supervised replacement for the fire-and-collect driver: run
/// generations until one finishes, respawning failed cohorts from the
/// last committed checkpoint, then validate exactly like the default
/// path. When the respawn budget is exhausted, degrade to the in-process
/// thread backend and mark the result [`Replayed::degraded`].
fn supervised_validate_replay(
    job: &NetJob,
    cfg: &NetRunConfig,
    compiled: &Compiled,
    nproc: usize,
    init: &(impl Fn(&mut Memory) + Sync),
    exec: &SpmdExec,
    mut pipe: BufTracer,
) -> Result<Replayed, String> {
    let trace = job.trace;
    let mut recovery = RecoveryCounters::default();
    let mut salvaged: Vec<Vec<TraceEvent>> = vec![Vec::new(); nproc];
    let mut listener = NetListener::bind(cfg.addr_kind, "netrun").map_err(|e| e.to_string())?;
    let mut plan = cfg.plan().resolve(nproc);
    let budget = cfg
        .respawn_budget
        .unwrap_or_else(|| cfg.effective_retries().max(1));
    let respawn_retry = RetryPolicy::default();
    let mut committed = Committed {
        epoch: 0,
        mems: Vec::new(),
    };
    let mut attempts: u32 = 0;

    let drive = loop {
        let outcome = run_generation(
            job,
            cfg,
            compiled,
            exec,
            nproc,
            &mut listener,
            &plan,
            &mut committed,
            &mut pipe,
            &mut recovery,
            &mut salvaged,
        )?;
        match outcome {
            GenOutcome::Finished(results) => {
                let mut stats = ReplayStats::default();
                let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
                let mut mems = Vec::with_capacity(nproc);
                let mut rank_obs: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
                for (rank, (res, obs)) in results.into_iter().enumerate() {
                    let (s, m, mem) =
                        res.expect("finished generation carries only successful results");
                    stats.messages_sent += s.messages_sent;
                    stats.events += s.events;
                    metrics.merge(&m);
                    mems.push(mem);
                    if trace {
                        rank_obs.push((rank, obs));
                    }
                }
                break SupvDrive::Done((stats, metrics, mems, rank_obs));
            }
            GenOutcome::Failed { dead } => {
                attempts += 1;
                let who = dead
                    .iter()
                    .map(|(r, why)| match r {
                        Some(r) => format!("rank {}: {}", r, why),
                        None => why.clone(),
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                if attempts > budget {
                    break SupvDrive::Exhausted(format!(
                        "respawn budget ({}) exhausted; last generation failed with: {}",
                        budget, who
                    ));
                }
                recovery.respawns += dead.iter().filter(|(r, _)| r.is_some()).count().max(1) as u64;
                for (r, why) in &dead {
                    let Some(r) = *r else { continue };
                    // The respawned cohort must not re-suffer consumed
                    // faults: this rank's kill fired, and link injections
                    // fire at most once per run.
                    plan = plan.for_respawn(r);
                    if trace {
                        pipe.push(Body::Fault {
                            name: "respawn".into(),
                            detail: format!(
                                "rank {} failed ({}); gang-restarting from checkpoint \
                                 epoch {} (attempt {}/{})",
                                r, why, committed.epoch, attempts, budget
                            ),
                            peer: Some(r),
                            last_seq: None,
                        });
                    }
                }
                std::thread::sleep(respawn_retry.delay(attempts - 1));
            }
        }
    };

    match drive {
        SupvDrive::Done((stats, mut metrics, mems, mut rank_obs)) => {
            check_owner_slots(&compiled.spmd, &mems, &exec.mems)
                .map_err(|e| format!("processes vs reference: {}", e))?;
            metrics.recovery.merge(&recovery);
            let obs = if trace {
                pipe.end("replay");
                // Fault evidence salvaged from rolled-back generations
                // precedes the surviving generation's timeline.
                for (rank, list) in salvaged.iter_mut().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    if let Some((_, evs)) = rank_obs.iter_mut().find(|(r, _)| *r == rank) {
                        let mut merged = std::mem::take(list);
                        merged.append(evs);
                        *evs = merged;
                    } else {
                        rank_obs.push((rank, std::mem::take(list)));
                    }
                }
                Some(hpf_obs::Trace::merge(pipe.into_events(), rank_obs))
            } else {
                None
            };
            Ok(Replayed {
                mems,
                stats,
                metrics,
                obs,
                degraded: false,
            })
        }
        SupvDrive::Exhausted(reason) => {
            recovery.fallbacks += 1;
            eprintln!(
                "phpf netrun: {}; degrading to the in-process thread backend",
                reason
            );
            if trace {
                pipe.push(Body::Fault {
                    name: "fallback".into(),
                    detail: format!("{}; re-running on the thread backend", reason),
                    peer: None,
                    last_seq: None,
                });
            }
            let mut r = validate_replay_traced(&compiled.spmd, init, job.vectorize, trace)?;
            r.metrics.recovery.merge(&recovery);
            r.degraded = true;
            if trace {
                pipe.end("replay");
                match &mut r.obs {
                    Some(t) => t.prepend_pipeline(pipe.into_events()),
                    None => r.obs = Some(hpf_obs::Trace::from_pipeline(pipe.into_events())),
                }
            }
            Ok(r)
        }
    }
}

/// Entry point of the `networker` binary: one spawned process per rank.
/// Reads its rank and the parent address from the environment, registers,
/// receives the job and its rank's event stream, meshes with its peers,
/// replays its rank and reports back.
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
    if wire.supervised {
        return worker_supervised(&wire, rank, &listener, reader, writer);
    }
    let compiled = compile_for(&wire)?;
    let program = &compiled.spmd.program;
    let events = recv_events(&mut reader, &compiled.spmd, wire.nproc)?;

    let (result, obs) = run_rank(&wire, rank, &compiled, &events, &listener);
    writer
        .write(FrameKind::Blob, &encode_result(&result, &obs, program))
        .map_err(|e| format!("sending result: {}", e))?;
    result.map(|_| ())
}

/// Replay this rank, collecting its observability timeline when the job
/// asks for one — on errors too, so a dead peer's fault events (with the
/// link's last acknowledged sequence number) still reach the parent.
fn run_rank(
    wire: &WireJob,
    rank: usize,
    compiled: &Compiled,
    events: &[Event],
    listener: &NetListener,
) -> (RankResult, Vec<TraceEvent>) {
    let mut obs = if wire.job.trace {
        Some(hpf_obs::BufTracer::for_rank(rank))
    } else {
        None
    };
    let res = run_rank_inner(wire, rank, compiled, events, listener, obs.as_mut());
    (res, obs.map(|o| o.into_events()).unwrap_or_default())
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

fn run_rank_inner(
    wire: &WireJob,
    rank: usize,
    compiled: &Compiled,
    events: &[Event],
    listener: &NetListener,
    obs: Option<&mut hpf_obs::BufTracer>,
) -> Result<(ReplayStats, CommMetrics, Memory), String> {
    let nproc = wire.nproc;
    let init = make_init(compiled, &wire.job.fills)?;
    let mut mem = Memory::zeroed(&compiled.spmd.program);
    init(&mut mem);
    let mesh_cfg = SocketConfig {
        io_deadline: wire.io_deadline,
        connect_deadline: wire.connect_deadline,
        ..SocketConfig::default()
    };
    let mut transport =
        SocketTransport::connect_mesh(rank, nproc, listener, &wire.addrs, mesh_cfg)
            .map_err(|e: NetError| format!("proc {}: mesh: {}", rank, e))?;
    if wire.fail_rank == Some(rank) {
        // Fault injection: die abruptly after the handshake so peers see
        // a closed link mid-replay, not a clean goodbye.
        std::process::abort();
    }
    let (stats, metrics) =
        replay_rank_traced(&compiled.spmd, events, &mut mem, &mut transport, obs)?;
    Ok((stats, metrics, mem))
}

/// Supervised worker: heartbeats on a background thread, lock-step epoch
/// replay with per-epoch checkpoint statuses, fault injection from the
/// wire plan, and a final tagged result frame.
fn worker_supervised(
    wire: &WireJob,
    rank: usize,
    listener: &NetListener,
    mut reader: FrameReader<NetStream>,
    writer: FrameWriter<NetStream>,
) -> Result<(), String> {
    // Heartbeats start before the compile, the event stream and the mesh
    // so the parent's deadline detector never mistakes a busy worker for
    // a dead one.
    let control = Arc::new(Mutex::new(writer));
    let stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let control = Arc::clone(&control);
        let stop = Arc::clone(&stop);
        let interval = wire.heartbeat_interval.max(Duration::from_millis(10));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if control
                    .lock()
                    .unwrap()
                    .write(FrameKind::Blob, &[TAG_HEARTBEAT])
                    .is_err()
                {
                    return;
                }
                std::thread::sleep(interval);
            }
        })
    };
    let res = worker_supervised_inner(wire, rank, listener, &mut reader, &control);
    stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    res
}

fn worker_supervised_inner(
    wire: &WireJob,
    rank: usize,
    listener: &NetListener,
    reader: &mut FrameReader<NetStream>,
    control: &Arc<Mutex<FrameWriter<NetStream>>>,
) -> Result<(), String> {
    let compiled = compile_for(wire)?;
    let program = &compiled.spmd.program;
    let nproc = wire.nproc;
    // The stream starts at the committed cut, and `wire.cuts` are offsets
    // into it: cut `i` ends epoch `start_epoch + i - 1`.
    let events = recv_events(reader, &compiled.spmd, nproc)?;
    let cuts = &wire.cuts;
    if cuts.windows(2).any(|w| w[0] > w[1]) || cuts.last().is_some_and(|&c| c > events.len()) {
        return Err(format!(
            "epoch cuts {:?} do not fit a stream of {} events",
            cuts,
            events.len()
        ));
    }
    let init = make_init(&compiled, &wire.job.fills)?;
    let mut mem = Memory::zeroed(program);
    init(&mut mem);
    let mut start_epoch = 0usize;
    if let Some((done, blob)) = &wire.resume {
        // Resume from the supervisor's committed checkpoint instead of
        // the initial fills.
        let mut d = Dec::new(blob);
        mem = decode_memory(&mut d, program)?;
        d.done().map_err(|e| e.to_string())?;
        start_epoch = *done as usize;
    }

    let injector = (!wire.plan.is_empty()).then(|| FaultInjector::new(&wire.plan, rank));
    let mesh_cfg = SocketConfig {
        io_deadline: wire.io_deadline,
        connect_deadline: wire.connect_deadline,
        retry: RetryPolicy {
            max_attempts: wire.retries,
            // Decorrelate link backoff jitter across ranks.
            seed: rank as u64,
            ..RetryPolicy::default()
        },
    };
    let mut transport =
        SocketTransport::connect_mesh(rank, nproc, listener, &wire.addrs, mesh_cfg)
            .map_err(|e: NetError| format!("proc {}: mesh: {}", rank, e))?;
    if let Some(inj) = &injector {
        transport.set_fault_injector(inj.clone());
    }
    if wire.fail_rank == Some(rank) {
        // Legacy abrupt-death injection: deliberately NOT rescued — it
        // models a crash outside the supervised protocol.
        std::process::abort();
    }

    let mut obs = wire.job.trace.then(|| BufTracer::for_rank(rank));
    let mut fault_log: Vec<TraceEvent> = Vec::new();
    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
    for (i, cut) in cuts.windows(2).enumerate() {
        let epoch = start_epoch + i;
        let seg = &events[cut[0]..cut[1]];
        let res = replay_rank_segment(
            &compiled.spmd,
            seg,
            &mut mem,
            &mut transport,
            &mut stats,
            &mut metrics,
            obs.as_mut(),
            |_| {
                if let Some(inj) = &injector {
                    if inj.note_event() {
                        // The fault plan's kill: die as abruptly as a real
                        // crash, mid-epoch, without a goodbye.
                        std::process::abort();
                    }
                }
            },
        );
        if obs.is_none() {
            fault_log.extend(transport.take_fault_events());
        }
        // Cumulative fault snapshot rides on every status so a later
        // death cannot erase this epoch's recovery evidence.
        let faults: Vec<TraceEvent> = match &obs {
            Some(o) => o
                .events()
                .iter()
                .filter(|ev| matches!(ev.body, Body::Fault { .. }))
                .cloned()
                .collect(),
            None => fault_log.clone(),
        };
        let mut enc = Enc::new();
        enc.u8(TAG_STATUS);
        enc.u32(epoch as u32);
        enc.u64(transport.retransmits());
        match &res {
            Ok(()) => {
                enc.u8(1);
                enc.bytes(&memory_blob(program, &mem));
            }
            Err(msg) => {
                enc.u8(0);
                enc.str(msg);
            }
        }
        encode_obs_events(&mut enc, &faults);
        let sent = control.lock().unwrap().write(FrameKind::Blob, &enc.buf);
        res?;
        sent.map_err(|e| format!("sending epoch {} status: {}", epoch, e))?;
        let payload = read_blob(reader, "directive from supervisor")?;
        if payload.first() != Some(&DIRECTIVE_PROCEED) {
            return Err(format!(
                "unexpected directive {:?} from supervisor",
                payload.first()
            ));
        }
    }

    let fin = transport.finish();
    if let Some(o) = obs.as_mut() {
        o.absorb(transport.take_fault_events());
    }
    metrics.saw_in_flight(transport.peak_in_flight());
    metrics.recovery.retransmits = transport.retransmits();
    let result: RankResult = match fin {
        Ok(()) => Ok((stats, metrics, mem)),
        Err(e) => Err(format!("proc {}: teardown: {}", rank, e)),
    };
    let obs_events = obs.map(|o| o.into_events()).unwrap_or_default();
    let mut blob = vec![TAG_RESULT];
    blob.extend(encode_result(&result, &obs_events, program));
    control
        .lock()
        .unwrap()
        .write(FrameKind::Blob, &blob)
        .map_err(|e| format!("sending result: {}", e))?;
    result.map(|_| ())
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
