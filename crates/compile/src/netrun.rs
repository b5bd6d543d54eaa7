//! Multi-process orchestration for the socket backend.
//!
//! `phpfc --backend socket` (and the differential tests) validate a
//! replay where every virtual processor is a real OS process exchanging
//! frames over [`hpf_net::socket`] links. The pieces:
//!
//! * the *parent* ([`socket_validate_replay`]) compiles the program,
//!   spawns one `networker` process per rank and plays rendezvous server:
//!   each worker registers `(rank, mesh socket path, protocol number)`
//!   over a framed control connection (all links are Unix-domain), and
//!   the parent answers with the job spec plus every rank's socket path. Only then does it run the reference
//!   executor, for the authoritative memories and the per-rank event
//!   trace. The executor hands off every finished epoch
//!   ([`SpmdExec::with_epoch_sink`]) and sends each rank its part over
//!   that rank's own channel. One parent thread per rank streams it to
//!   the rank's worker ([`hpf_spmd::encode_events`], in Blob frames of at
//!   most about [`EVENT_CHUNK_BYTES`]) while the executor produces the
//!   next epoch, and frees it once sent, so the parent never holds the
//!   whole trace. Finally it collects one result blob per rank (stats,
//!   wire metrics, the rank's entire memory, and its timeline as
//!   chrome://tracing JSON, which [`hpf_obs::parse_chrome_json`] reads
//!   back);
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
use hpf_ir::{Program, ScalarTy, VarId};
use hpf_net::fault::observes_injection;
use hpf_net::frame::{Dec, Enc, FrameError, FrameKind, FrameReader, FrameWriter, ReadStep};
use hpf_net::socket::{
    backoff, connect_backoff, framed, NetListener, SocketConfig, SocketTransport,
};
use hpf_net::FaultInjector;
use hpf_obs::{Body, BufTracer, Trace, TraceEvent, Tracer};
use hpf_spmd::metrics::{self, CommMetrics, RecoveryCounters};
use hpf_spmd::{
    check_owner_slots, decode_events, encode_events, replay_rank_segment,
    validate_replay_traced, Code, Event, Replayed, SpmdExec, SpmdProgram, Wire,
};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
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
pub const PROTOCOL: u32 = 9;

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

    /// Fill every REAL array with the data `phpfc` runs and verifies with
    /// (see [`fill_defaults`]), after the memory budget check.
    pub fn with_default_fills(mut self) -> Result<NetJob, String> {
        let compiled = self.compile()?;
        hpf_spmd::stores::check_budget(&compiled.spmd, false)?;
        let program = &compiled.spmd.program;
        self.fills = real_arrays(program)
            .map(|(v, n)| (program.vars.name(v).to_string(), default_data(n)))
            .collect();
        Ok(self)
    }
}

/// The deterministic default contents of an `n`-element REAL array:
/// `1.0 + k * 0.25` at linear offset `k`. `phpfc`'s runs and verifiers
/// ([`fill_defaults`]) and its socket jobs ([`NetJob::with_default_fills`])
/// all use it, and must: DGEFA's schedule depends on the data, so a
/// verifier that checked other data would check another schedule.
fn default_data(n: usize) -> Vec<f64> {
    (0..n).map(|k| 1.0 + k as f64 * 0.25).collect()
}

/// Fill every REAL array of `m` with its default data, `1.0 + k * 0.25` at
/// linear offset `k`. The data is built
/// here, one array at a time, so nothing is allocated before a run has
/// passed its memory budget check.
pub fn fill_defaults(program: &Program, m: &mut Memory) {
    for (v, n) in real_arrays(program) {
        m.fill_real(v, &default_data(n));
    }
}

/// Each REAL array with its declared element count.
fn real_arrays(program: &Program) -> impl Iterator<Item = (VarId, usize)> + '_ {
    program
        .vars
        .arrays()
        .filter(|(_, info)| info.ty == ScalarTy::Real)
        .map(|(v, info)| (v, info.shape().unwrap().len() as usize))
}

/// Failed cohorts the driver reruns before it degrades to the thread
/// backend, unless [`NetRunConfig::respawn_budget`] says otherwise: enough
/// for a seeded plan's corrupt, drop and kill to each fail one.
pub const DEFAULT_RESPAWN_BUDGET: u32 = 3;

/// Deadlines and recovery knobs for a multi-process run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
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

/// The job blob: the job itself, the worker-side knobs of `cfg`, every
/// rank's mesh socket path and the (resolved, possibly respawn-pruned)
/// fault plan.
fn encode_job(
    job: &NetJob,
    cfg: &NetRunConfig,
    nproc: usize,
    paths: &[PathBuf],
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
    e.u32(paths.len() as u32);
    for p in paths {
        e.str(&p.to_string_lossy());
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
    paths: Vec<PathBuf>,
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
    let source = d.str()?;
    let flag = d.str()?;
    let version =
        Version::from_flag(&flag).ok_or_else(|| format!("unknown version flag {:?}", flag))?;
    let grid = match d.u8()? {
        0 => None,
        _ => {
            let n = d.u32()? as usize;
            let mut g = Vec::with_capacity(n);
            for _ in 0..n {
                g.push(d.u32()? as usize);
            }
            Some(g)
        }
    };
    let combine = d.boolean()?;
    let auto_priv = d.boolean()?;
    let vectorize = d.boolean()?;
    let trace = d.boolean()?;
    let nfills = d.u32()? as usize;
    let mut fills = Vec::with_capacity(nfills);
    for _ in 0..nfills {
        let name = d.str()?;
        let n = d.u32()? as usize;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(d.f64()?);
        }
        fills.push((name, data));
    }
    let fail_rank = match d.u32()? {
        NO_RANK => None,
        r => Some(r as usize),
    };
    let io_deadline = Duration::from_millis(d.u64()?);
    let connect_deadline = Duration::from_millis(d.u64()?);
    let nproc = d.u32()? as usize;
    let npaths = d.u32()? as usize;
    let mut paths = Vec::with_capacity(npaths);
    for _ in 0..npaths {
        paths.push(PathBuf::from(d.str()?));
    }
    let plan = FaultPlan::parse(&d.str()?)?;
    d.done()?;
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
        paths,
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
        metrics::CONTROL,
    ]
    .into_iter()
    .find(|&k| k == name)
}

/// A worker's wire metrics. The recovery counters stay behind: a worker
/// never sets them, and the parent counts respawns and fallbacks itself.
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
}

fn decode_metrics(d: &mut Dec) -> Result<CommMetrics, String> {
    let nproc = d.u32()? as usize;
    let mut m = CommMetrics::new(nproc, 0);
    for p in m.per_proc.iter_mut() {
        p.sent_messages = d.u64()?;
        p.sent_bytes = d.u64()?;
        p.recv_messages = d.u64()?;
        p.recv_bytes = d.u64()?;
    }
    let npat = d.u32()? as usize;
    for _ in 0..npat {
        let name = d.str()?;
        let key = intern_pattern(&name)
            .ok_or_else(|| format!("unknown communication pattern {:?} in result", name))?;
        let c = m.per_pattern.entry(key).or_default();
        c.messages = d.u64()?;
        c.bytes = d.u64()?;
    }
    let nops = d.u32()? as usize;
    m.per_op = Vec::with_capacity(nops);
    for _ in 0..nops {
        m.per_op.push(metrics::OpMetrics {
            messages: d.u64()?,
            bytes: d.u64()?,
            elements: d.u64()?,
        });
    }
    m.untracked_messages = d.u64()?;
    m.max_in_flight = d.u64()?;
    Ok(m)
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
    let n = d.u32()? as usize;
    if n != program.vars.len() {
        return Err(format!(
            "memory dump has {} variables, program has {}",
            n,
            program.vars.len()
        ));
    }
    for (v, info) in program.vars.iter() {
        let tag = d.u32()?;
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
                    let val = d.value()?;
                    mem.array_mut(v)
                        .set(off, val)
                        .map_err(|e| format!("array {}: {}", info.name, e))?;
                }
            }
            None if tag == SCALAR => {
                mem.set_scalar(v, d.value()?);
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

/// A rank's result: its wire metrics and memory, or its replay error; then its timeline as chrome JSON. The timeline rides
/// along in both arms: a failed replay still ships its transport's fault
/// events, and its comm events when traced.
fn encode_result(res: &RankResult, timeline: &Trace, program: &Program) -> Vec<u8> {
    let mut e = Enc::new();
    match res {
        Ok((m, mem)) => {
            e.u8(1);
            encode_metrics(&mut e, m);
            encode_memory(&mut e, program, mem);
        }
        Err(msg) => {
            e.u8(0);
            e.str(msg);
        }
    }
    e.str(&timeline.to_chrome_json());
    e.buf
}

type RankResult = Result<(CommMetrics, Memory), String>;

fn decode_result(
    payload: &[u8],
    program: &Program,
) -> Result<(RankResult, Vec<TraceEvent>), String> {
    let mut d = Dec::new(payload);
    let res = match d.u8()? {
        0 => Err(d.str()?),
        _ => Ok((decode_metrics(&mut d)?, decode_memory(&mut d, program)?)),
    };
    let timeline = hpf_obs::parse_chrome_json(&d.str()?)?;
    d.done()?;
    Ok((res, timeline.events))
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
    reader: FrameReader<UnixStream>,
    writer: FrameWriter<UnixStream>,
}

fn read_blob(reader: &mut FrameReader<UnixStream>, what: &str) -> Result<Vec<u8>, String> {
    blob(reader.read_step(), what)
}

/// The payload of a Blob frame read by `step`, or an error naming `what`.
fn blob(step: Result<ReadStep, FrameError>, what: &str) -> Result<Vec<u8>, String> {
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
/// rendezvous socket. Its path travels as `unix:<path>`, the form workers
/// of every protocol parse, so a stale worker still registers and is told
/// apart by its protocol number.
fn spawn_workers(
    bin: &PathBuf,
    listener: &NetListener,
    nproc: usize,
) -> Result<Vec<(usize, Child)>, String> {
    let parent = format!("unix:{}", listener.path().display());
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(nproc);
    for rank in 0..nproc {
        let child = Command::new(bin)
            .env(ENV_PARENT, &parent)
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

/// A spawned cohort, and its control connections plus mesh socket paths
/// when the rendezvous succeeded.
type Cohort = (Vec<(usize, Child)>, Result<(Vec<Conn>, Vec<PathBuf>), String>);

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
        let mut children = spawn_workers(&bin, listener, nproc)?;
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
                *listener = NetListener::bind("netrun")?;
            }
        }
    }
}

/// Flags of an event-chunk frame: the chunk ends an epoch, or the stream
/// (an end-of-stream chunk carries no events).
const EPOCH_END: u8 = 1;
const STREAM_END: u8 = 2;

/// What the reference executor hands one rank's stream thread: an epoch
/// of that rank's events, or `None` at the end of a successful run. A
/// failed or panicking executor drops its senders instead, and the
/// streams stop without an end of stream.
type EpochMsg = Option<Vec<Event>>;

/// Run the reference executor, sending each rank its part of every
/// finished epoch, then the end of stream; returns the reference
/// memories.
fn run_reference(
    compiled: &Compiled,
    init: &(impl Fn(&mut Memory) + Sync),
    vectorize: bool,
    senders: Vec<Sender<EpochMsg>>,
) -> Result<Vec<Memory>, String> {
    let sink = senders.clone();
    let mut exec = SpmdExec::new(&compiled.spmd, init).with_epoch_sink(move |epoch| {
        // A stream that broke has dropped its receiver; its epochs are
        // dropped here.
        for (tx, events) in sink.iter().zip(epoch) {
            let _ = tx.send(Some(events));
        }
    });
    if !vectorize {
        exec = exec.without_vectorization();
    }
    exec.run().map_err(|e| format!("reference run failed: {}", e))?;
    for tx in &senders {
        let _ = tx.send(None);
    }
    Ok(exec.mems)
}

/// One rank's stream thread: write each epoch to the worker as it
/// arrives, then the end of stream. An epoch is freed once it is sent.
/// This thread is the connection's only writer.
fn stream_rank(
    epochs: Receiver<EpochMsg>,
    rank: usize,
    mut writer: FrameWriter<UnixStream>,
) -> Result<(), String> {
    let mut enc = Enc::new();
    while let Ok(epoch) = epochs.recv() {
        let (events, flags) = match &epoch {
            Some(events) => (&events[..], EPOCH_END),
            None => (&[][..], STREAM_END),
        };
        send_chunks(&mut writer, &mut enc, events, flags)
            .map_err(|e| format!("streaming events to worker {}: {}", rank, e))?;
        if epoch.is_none() {
            break;
        }
    }
    Ok(())
}

/// Write a rank's events as Blob frames of at most about
/// [`EVENT_CHUNK_BYTES`], all built in `enc`'s reused buffer; the last
/// frame carries `flags` (no events: one empty chunk).
fn send_chunks(
    writer: &mut FrameWriter<UnixStream>,
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

/// The worker's side of the parent → worker stream after the job: each
/// epoch's event chunks, then the end of stream.
struct ParentStream<'p> {
    reader: FrameReader<UnixStream>,
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
/// A run over the memory budget is refused before anything launches.
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
    hpf_spmd::stores::check_budget(&compiled.spmd, false)?;
    let nproc = compiled.spmd.maps.grid.total();
    let init = make_init(&compiled, &job.fills)?;
    let mut plan = cfg.plan().resolve(nproc)?;
    let budget = cfg.respawn_budget.unwrap_or(DEFAULT_RESPAWN_BUDGET);
    let mut recovery = RecoveryCounters::default();
    // Fault events of failed cohorts, per rank.
    let mut salvaged: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    loop {
        let failure = match run_cohort(job, cfg, &compiled, &init, &plan, &mut pipe)? {
            Ok((reference, (mut metrics, mems, mut rank_obs))) => {
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
                    metrics,
                    obs,
                    degraded: false,
                    engine: None,
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
        std::thread::sleep(backoff(recovery.respawns as u32 - 1));
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
    let mut listener = NetListener::bind("netrun")?;
    let (mut children, met) = launch(cfg, nproc, &mut listener)?;
    let dispatched = met.and_then(|(mut conns, paths)| {
        let job_blob = encode_job(job, cfg, nproc, &paths, plan);
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
    std::thread::scope(|scope| {
        // One stream thread per rank, fed by its own channel.
        let (mut readers, mut streams, mut senders) = (Vec::new(), Vec::new(), Vec::new());
        for (rank, Conn { reader, writer }) in conns.into_iter().enumerate() {
            let (tx, rx) = channel();
            readers.push(reader);
            streams.push(scope.spawn(move || stream_rank(rx, rank, writer)));
            senders.push(tx);
        }
        let reference = match run_reference(compiled, init, job.vectorize, senders) {
            Ok(mems) => mems,
            Err(e) => {
                // The senders are gone: the stream threads stop.
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

type DriveOutput = (CommMetrics, Vec<Memory>, Vec<(usize, Vec<TraceEvent>)>);

/// A worker's first frame on its control connection.
#[derive(Debug, PartialEq)]
struct Registration {
    rank: usize,
    /// The worker's mesh socket path.
    path: String,
    /// `None` for a worker that predates protocol numbers.
    protocol: Option<u32>,
}

fn encode_registration(rank: usize, path: &Path) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(rank as u32);
    e.str(&path.to_string_lossy());
    e.u32(PROTOCOL);
    e.buf
}

fn decode_registration(payload: &[u8]) -> Result<Registration, String> {
    let mut d = Dec::new(payload);
    let rank = d.u32()? as usize;
    let path = d.str()?;
    let protocol = if d.remaining() == 0 {
        None
    } else {
        Some(d.u32()?)
    };
    d.done()?;
    Ok(Registration {
        rank,
        path,
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
/// `(rank, mesh socket path, protocol)`. Returns the per-rank connections
/// and mesh socket paths.
fn rendezvous(
    cfg: &NetRunConfig,
    nproc: usize,
    listener: &NetListener,
) -> Result<(Vec<Conn>, Vec<PathBuf>), MeetError> {
    let mut conns: Vec<Option<Conn>> = (0..nproc).map(|_| None).collect();
    let mut paths: Vec<Option<PathBuf>> = (0..nproc).map(|_| None).collect();
    for _ in 0..nproc {
        let stream = listener
            .accept_deadline(cfg.connect_deadline)
            .map_err(|e| format!("rendezvous: {}", e))?;
        // The write timeout keeps a worker that stops reading its event
        // stream from wedging the parent.
        let (mut reader, writer) = stream
            .set_write_timeout(Some(cfg.result_deadline))
            .and_then(|()| framed(stream, cfg.result_deadline))
            .map_err(|e| format!("rendezvous: link setup: {}", e))?;
        let payload = read_blob(&mut reader, "worker registration")?;
        let Registration {
            rank,
            path,
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
        paths[rank] = Some(PathBuf::from(path));
        conns[rank] = Some(Conn { reader, writer });
    }
    Ok((
        conns.into_iter().map(|c| c.unwrap()).collect(),
        paths.into_iter().map(|p| p.unwrap()).collect(),
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
    readers: &mut [FrameReader<UnixStream>],
) -> Result<DriveOutput, Failure> {
    let nproc = readers.len();
    let program = &compiled.spmd.program;
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
            Ok((m, mem)) => {
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
        return Ok((metrics, mems, rank_obs));
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
    let parent = PathBuf::from(parent.strip_prefix("unix:").unwrap_or(&parent));
    let listener = NetListener::bind(&format!("rank{}", rank))?;

    let stream = connect_backoff(&parent, Duration::from_secs(10))
        .map_err(|e| format!("reaching parent: {}", e))?;
    let (mut reader, mut writer) = framed(stream, Duration::from_secs(30))
        .map_err(|e| format!("link to parent: {}", e))?;

    writer
        .write(FrameKind::Blob, &encode_registration(rank, listener.path()))
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
    let timeline = Trace::from_ranks(vec![(rank, obs.into_events())]);
    writer
        .write(FrameKind::Blob, &encode_result(&result, &timeline, program))
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

/// Replay this rank under the job's fault plan. The rank's [`Wire`]
/// records comm events when the job is traced and the transport's fault
/// events always, on errors too, so a dead peer's faults (with the link's
/// last acknowledged sequence number) still reach the parent; its
/// timeline replaces `obs`.
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
        SocketTransport::connect_mesh(rank, nproc, listener, &wire.paths, wire.mesh_cfg())
            .map_err(|e| format!("proc {}: mesh: {}", rank, e))?;
    let injector = (!wire.plan.is_empty()).then(|| FaultInjector::new(&wire.plan, rank));
    if let Some(inj) = &injector {
        transport.set_fault_injector(inj.clone());
    }
    if wire.fail_rank == Some(rank) {
        // Fault injection: die abruptly after the handshake so peers see
        // a closed link mid-replay, not a clean goodbye.
        std::process::abort();
    }
    let mut endpoint = Wire::new(&compiled.spmd, transport, wire.job.trace);
    let code = Code::new(&compiled.spmd);
    let replayed = (|| {
        while let Some(events) = stream.next_epoch()? {
            replay_rank_segment(&code, &events, &mut mem, &mut endpoint, |_| {
                if injector.as_ref().is_some_and(FaultInjector::note_event) {
                    // The fault plan's kill: die as abruptly as a real
                    // crash, mid-epoch, without a goodbye.
                    std::process::abort();
                }
            })?;
        }
        Ok(())
    })();
    let (res, timeline) = endpoint.finish(replayed.map(|()| mem));
    *obs = timeline;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_obs::CommKind;

    /// Connect to `path` and send `payload` as a worker registration. The
    /// frame stays readable on the parent's side after this side closes.
    fn fake_worker(path: PathBuf, payload: Vec<u8>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let stream = connect_backoff(&path, Duration::from_secs(5)).expect("connect");
            let mut w = FrameWriter::new(stream);
            w.write(FrameKind::Blob, &payload).expect("register");
        })
    }

    fn meet(payload: Vec<u8>) -> Result<(Vec<Conn>, Vec<PathBuf>), MeetError> {
        let listener = NetListener::bind("regtest").unwrap();
        let worker = fake_worker(listener.path().to_path_buf(), payload);
        let res = rendezvous(&NetRunConfig::default(), 1, &listener);
        worker.join().unwrap();
        res
    }

    fn old_registration(rank: u32, path: &str) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(rank);
        e.str(path);
        e.buf
    }

    const WORKER_SOCK: &str = "/tmp/phpf-net-4000-0-rank0.sock";

    #[test]
    fn registration_round_trips_with_the_protocol_number() {
        let path = Path::new(WORKER_SOCK);
        let reg = decode_registration(&encode_registration(3, path)).unwrap();
        assert_eq!(
            reg,
            Registration {
                rank: 3,
                path: WORKER_SOCK.into(),
                protocol: Some(PROTOCOL),
            }
        );
        // The protocol number is the only addition: four bytes.
        assert_eq!(
            encode_registration(3, path).len(),
            old_registration(3, WORKER_SOCK).len() + 4
        );
    }

    #[test]
    fn unnumbered_registration_is_stale() {
        let reg = decode_registration(&old_registration(0, WORKER_SOCK)).unwrap();
        assert_eq!(reg.protocol, None);
        match meet(old_registration(0, WORKER_SOCK)) {
            Err(MeetError::Stale { rank: 0, got: None }) => {}
            Err(MeetError::Failed(e)) => panic!("expected a stale-worker error, got {e}"),
            other => panic!("expected a stale-worker error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn wrong_protocol_number_is_stale() {
        let mut payload = old_registration(0, WORKER_SOCK);
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
        let path = Path::new(WORKER_SOCK);
        let (conns, paths) = meet(encode_registration(0, path)).unwrap_or_else(|e| match e {
            MeetError::Failed(e) => panic!("{e}"),
            MeetError::Stale { got, .. } => panic!("stale: {got:?}"),
        });
        assert_eq!(conns.len(), 1);
        assert_eq!(paths, vec![path.to_path_buf()]);
    }

    /// A 320 GB array is refused with the budget's located error before a
    /// worker is launched or any array data is built.
    #[test]
    fn a_socket_run_over_the_memory_budget_is_refused_before_launch() {
        let job = NetJob::new("REAL A(200000,200000)\nA(1,1) = 1.0\n");
        let err = job.clone().with_default_fills().unwrap_err();
        assert!(err.starts_with("memory budget exceeded: "), "{err}");
        assert!(err.contains("array `a` (declared on line 1)"), "{err}");
        let refused = socket_validate_replay(&job, &NetRunConfig::default());
        assert_eq!(refused.unwrap_err(), err);
    }

    #[test]
    fn trailing_bytes_after_the_protocol_number_are_rejected() {
        let mut payload = encode_registration(0, Path::new(WORKER_SOCK));
        payload.push(0);
        assert!(decode_registration(&payload).is_err());
    }

    /// A rank-2 timeline with every optional field of the comm and fault
    /// events both present and absent.
    fn timeline() -> Vec<TraceEvent> {
        let comm = |op: Option<usize>, seq: Option<u64>| Body::Comm {
            kind: CommKind::SendVec,
            from: 2,
            to: 3,
            op,
            pattern: "shift".into(),
            level: 1,
            stmt_level: 2,
            place: "hoisted L2->L1".into(),
            elems: 8,
            seq,
        };
        let fault = |peer: Option<usize>, last_seq: Option<u64>| Body::Fault {
            name: "bad-checksum".into(),
            detail: "payload \"checksum\" mismatch\n".into(),
            peer,
            last_seq,
        };
        [
            comm(None, Some(4)),
            comm(Some(3), None),
            fault(None, None),
            fault(Some(1), Some(7)),
        ]
        .into_iter()
        .enumerate()
        .map(|(t, body)| TraceEvent {
            t_us: 10 * t as u64,
            rank: Some(2),
            body,
        })
        .collect()
    }

    #[test]
    fn results_round_trip_with_their_timeline() {
        let compiled = NetJob::new(include_str!("../../../examples/hpf/do_exit_value.hpf"))
            .compile()
            .unwrap();
        let sp = &compiled.spmd;
        let program = &sp.program;
        let mut mem = Memory::zeroed(program);
        let a = program.vars.lookup("a").unwrap();
        mem.fill_real(a, &[1.5; 8]);
        mem.set_scalar(program.vars.lookup("i").unwrap(), hpf_ir::Value::Int(9));
        let mut metrics = CommMetrics::new(4, sp.comms.len());
        metrics.note_message("shift", None, 0, 1, 8);
        metrics.max_in_flight = 2;
        let events = timeline();
        let trace = Trace::from_ranks(vec![(2, events.clone())]);
        let ok: RankResult = Ok((metrics, mem));
        let (res, obs) = decode_result(&encode_result(&ok, &trace, program), program).unwrap();
        assert_eq!(res, ok);
        assert_eq!(obs, events);
        let err: RankResult = Err("proc 2: seq-gap".into());
        let (res, obs) = decode_result(&encode_result(&err, &trace, program), program).unwrap();
        assert_eq!(res, err);
        assert_eq!(obs, events);

        // A garbled timeline is an error, not a panic.
        let mut e = Enc::new();
        e.u8(0);
        e.str("boom");
        e.str("[{\"name\":\"Warp\",\"ph\":\"i\"");
        assert!(decode_result(&e.buf, program).is_err());
    }
}
