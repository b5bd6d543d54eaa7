//! perfbench: wall-clock benchmark of the phpf pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! binary and the repository's `networker` worker first. Workloads:
//! `tomcatv-thread` and `dgefa-socket` (see `workload.rs`).
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: the set-up
//! time, then validated runs and verifier runs, interleaved, for the given
//! number of seconds. The times reported are the fastest sample of each
//! kind; medians and tails go to stderr. On a shared 2-vCPU VM the same
//! validated run takes from 1x to 1.9x its fastest time, in bursts of
//! seconds to minutes, and the fastest sample of a run moves less with
//! them than the median does. `--trace 1` repeats a traced iteration for
//! that long instead: every layer call is wrapped in an `hpf_obs` span on
//! one `BufTracer`, per-layer self times are reported as medians over the
//! iterations, and the spans are written to `.bench_out/` as chrome JSON.
//!
//! The last line on stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed operation (wrong owner
//! slots, a replay error, an unclean verifier verdict, a recovery counter
//! above zero, or a panic in a layer) is counted, never fatal.

mod stats;
mod workload;

use hpf_analysis::Analysis;
use hpf_compile::netrun::{socket_validate_replay, NetRunConfig};
use hpf_compile::Options;
use hpf_obs::{span, BufTracer};
use hpf_spmd::{check_owner_slots, validate_replay, validate_replay_traced, Replayed, SpmdExec};
use hpf_verify::{csp, hb, privatize, Severity, VerifyReport};
use stats::{median, span_times};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Backend, Oracle, Setup, Workload, WORKLOADS};

/// Set-ups before the first run. The end-to-end loop adds one more per
/// iteration, so `setup_s` is sampled across the whole measuring window
/// like `run_s`, not in one burst.
const SETUP_REPS: usize = 5;

/// Allowed gap between the traced run's layer self times and the untraced
/// run time, as a share of the latter: the `run_s` bound in BENCHMARK.json.
const SPAN_SUM_TOLERANCE: f64 = 0.25;

/// Where the traced run writes its chrome JSON, relative to the checkout.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--selftest"] {
        return Ok(Mode::SelfTest);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k, v);
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {}", k));
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or(format!("unknown workload {:?}", name))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {}", e))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {}", e))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {:?}", other)),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Attempted and failed operations of one process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {} failed: {}", what, e);
                None
            }
        }
    }
}

/// Run `f`, turning a panic inside a layer into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {}", msg))
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The set-up plus the benchmark's own untimed preparation: the check of
/// the oracle against the plain-Rust reference, and the oracle.
struct Prepared {
    setup: Setup,
    oracle: Oracle,
}

fn prepare(w: &Workload, setup: Setup) -> Result<Prepared, String> {
    workload::check_reference(w.kernel, setup.sp())?;
    let (seq, _) = setup.interpret()?;
    let oracle = Oracle::new(setup.sp(), seq);
    Ok(Prepared { setup, oracle })
}

/// One set-up, its time appended to `samples`.
fn sample_setup(w: &Workload, seed: u64, samples: &mut Vec<f64>) -> Result<Setup, String> {
    let t = Instant::now();
    let s = workload::setup(w, seed)?;
    samples.push(secs(t));
    Ok(s)
}

/// The checks every replay must pass beyond its own owner-slot check.
fn check_replay(r: &Replayed, oracle: &Oracle) -> Result<(), String> {
    oracle.check(&r.mems)?;
    let rc = r.metrics.recovery;
    if !rc.is_zero() || r.degraded {
        return Err(format!(
            "recovery engaged on a clean run: {:?}, degraded: {}",
            rc, r.degraded
        ));
    }
    Ok(())
}

/// One validated run, timed, then checked against the oracle.
fn timed_run(p: &Prepared, cfg: &NetRunConfig) -> Result<(Replayed, f64), String> {
    guarded(|| {
        let t = Instant::now();
        let r = p.setup.validated_run(cfg)?;
        let elapsed = secs(t);
        check_replay(&r, &p.oracle)?;
        Ok((r, elapsed))
    })
}

fn require_clean(s: &Setup, report: &VerifyReport) -> Result<(), String> {
    if report.is_clean() {
        Ok(())
    } else {
        Err(s.compiled.render_diagnostics(report))
    }
}

/// One `Compiled::verify` call, timed; an unclean verdict is an error.
fn timed_verify(s: &Setup) -> Result<f64, String> {
    guarded(|| {
        let t = Instant::now();
        let report = s.compiled.verify(s.init());
        let elapsed = secs(t);
        require_clean(s, &report)?;
        Ok(elapsed)
    })
}

/// A metric value as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

/// End-to-end metrics, tracing off.
fn measure(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let mut setup_s = Vec::new();
    let mut setup = sample_setup(w, a.seed, &mut setup_s)?;
    for _ in 1..SETUP_REPS {
        setup = sample_setup(w, a.seed, &mut setup_s)?;
    }
    let p = prepare(w, setup)?;
    let cfg = NetRunConfig::default();
    let mut tally = Tally::default();
    let mut wire = tally
        .record("warm-up run", timed_run(&p, &cfg))
        .map(|(r, _)| r.metrics);
    // The peak through set-up and one validated run. Later peaks depend on
    // how much freed memory the allocator's per-thread arenas still hold,
    // which varies from run to run.
    let peak_rss_mb = stats::peak_rss_mb();
    tally.record("warm-up verify", timed_verify(&p.setup));

    let (mut run_s, mut verify_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        if let Some((r, t)) = tally.record("validated run", timed_run(&p, &cfg)) {
            run_s.push(t);
            wire = Some(r.metrics);
        }
        if let Some(t) = tally.record("verify", timed_verify(&p.setup)) {
            verify_s.push(t);
        }
        sample_setup(w, a.seed, &mut setup_s)?;
        if secs(start) >= a.seconds {
            break;
        }
    }
    let tail = stats::tail(&run_s).map_or_else(
        || "no percentile has 10 samples beyond it".to_string(),
        |(pct, v)| format!("p{:.0} {:.4} s", pct, v),
    );
    eprintln!(
        "perfbench: run_s over {} samples: median {:.4} s; {}",
        run_s.len(),
        median(&run_s),
        tail
    );
    for (name, samples) in [
        ("run_s", &run_s),
        ("verify_s", &verify_s),
        ("setup_s", &setup_s),
    ] {
        eprintln!("perfbench: {} samples: {:?}", name, samples);
    }
    let wire = wire.unwrap_or_default();
    Ok(Report {
        correct: tally.failed == 0,
        metrics: vec![
            ("run_s", stats::min(&run_s), "s"),
            ("verify_s", stats::min(&verify_s), "s"),
            ("setup_s", stats::min(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("wire_messages", wire.messages() as f64, "count"),
            ("wire_bytes", wire.bytes() as f64, "bytes"),
            ("model_s", p.setup.compiled.estimate().total_s(), "sp2_s"),
        ],
        tally,
    })
}

/// Named values of one traced iteration.
type Samples = BTreeMap<&'static str, f64>;

/// One traced iteration: every layer call in its own span on `t`.
fn traced_iteration(
    t: &mut BufTracer,
    w: &Workload,
    p: &Prepared,
    recovery: &mut hpf_spmd::RecoveryCounters,
) -> Result<Samples, String> {
    let s = &p.setup;
    let opts = Options::default();
    let mut out = Samples::new();

    // The compile pipeline, layer by layer.
    let program =
        span(t, "ir.parse", |_| hpf_ir::parse_program(&s.source)).map_err(|e| e.to_string())?;
    let a = span(t, "analysis.run", |_| Analysis::run(&program));
    let maps = span(t, "dist.mapping", |_| {
        hpf_dist::MappingTable::from_program(&program, None)
    })?;
    let decisions = span(t, "core.map_program", |_| {
        phpf_core::map_program(&program, &a, &maps, opts.core)
    });
    std::hint::black_box(span(t, "spmd.lower", |_| {
        hpf_spmd::lower(&program, &a, &maps, decisions)
    }));

    let sp = s.sp();
    let init = s.init();
    let (_, istats) = span(t, "ir.interp", |_| s.interpret())?;
    out.insert("ir.interp_steps", istats.steps as f64);

    if let Some(job) = &s.job {
        // The socket run compiles inside; time the same compilation here
        // so its share can be subtracted from the socket run.
        span(t, "compile", |t| {
            hpf_compile::compile_source_traced(&job.source, opts.clone(), t)
        })?;
    }
    let (mut exec, estats) = span(t, "spmd.exec", |_| {
        let mut exec = SpmdExec::new(sp, &init).with_trace();
        let r = exec.run();
        (exec, r)
    });
    let estats = estats.map_err(|e| format!("reference executor failed: {}", e))?;
    let trace = exec.trace.take().ok_or("the executor recorded no trace")?;
    out.insert("spmd.exec_stmt_execs", estats.stmt_execs as f64);
    out.insert(
        "spmd.trace_events",
        trace.iter().map(Vec::len).sum::<usize>() as f64,
    );

    let cfg = NetRunConfig::default();
    let replayed = match &s.job {
        None => span(t, "spmd.replay", |_| hpf_spmd::replay(sp, &trace, &init))?,
        Some(job) => span(t, "net.socket", |_| socket_validate_replay(job, &cfg))?,
    };
    span(t, "spmd.check", |_| {
        check_owner_slots(sp, &replayed.mems, &exec.mems)
    })?;
    recovery.merge(&replayed.metrics.recovery);
    check_replay(&replayed, &p.oracle)?;
    // The untraced run the layer times must add up to, right after them so
    // both see the same machine load.
    let untraced = span(t, "run.untraced", |_| s.validated_run(&cfg))?;
    recovery.merge(&untraced.metrics.recovery);
    check_replay(&untraced, &p.oracle)?;

    // The verifier's three fronts, on the trace just recorded.
    let (a_sp, mut diags) = span(t, "verify.privatization", |_| {
        let a = Analysis::run(&sp.program);
        let d = privatize::verify_privatization(sp, &a);
        (a, d)
    });
    let (csp_diags, sim) = span(t, "verify.csp", |_| {
        csp::check_schedule(&sp.program, &trace, exec.epoch_cuts())
    });
    diags.extend(csp_diags);
    diags.extend(span(t, "verify.hb", |_| {
        hb::check_races(sp, &a_sp, &trace, &sim)
    }));
    let report = VerifyReport { diags };
    require_clean(s, &report)?;
    let warnings = report
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    out.insert("verify.warnings", warnings as f64);
    std::hint::black_box(span(t, "compile.estimate", |_| s.compiled.estimate()));

    // Whole runs on the thread backend, supervised, and with comm tracing,
    // for the ratios to the untraced run.
    if w.backend == Backend::Socket {
        let thread = span(t, "net.thread", |_| validate_replay(sp, &init))?;
        check_replay(&thread, &p.oracle)?;
        let supervised_cfg = NetRunConfig {
            respawn_budget: Some(1),
            ..NetRunConfig::default()
        };
        let job = s.job.as_ref().expect("socket workloads have a job");
        let supervised = span(t, "net.supervised", |_| {
            socket_validate_replay(job, &supervised_cfg)
        })?;
        recovery.merge(&supervised.metrics.recovery);
        check_replay(&supervised, &p.oracle)?;
    }
    let observed = span(t, "obs.replay_traced", |_| {
        validate_replay_traced(sp, &init, true, true)
    })?;
    check_replay(&observed, &p.oracle)?;
    if observed.obs.is_none() {
        return Err("validate_replay_traced returned no trace".into());
    }
    Ok(out)
}

/// Per-layer metrics from a traced run.
fn trace_run(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let p = prepare(w, workload::setup(w, a.seed)?)?;
    let mut tally = Tally::default();
    tally.record("warm-up run", timed_run(&p, &NetRunConfig::default()));

    let mut t = BufTracer::pipeline();
    let mut recovery = hpf_spmd::RecoveryCounters::default();
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = Samples::new();
    let start = Instant::now();
    loop {
        let mark = t.len();
        let it = guarded(|| traced_iteration(&mut t, w, &p, &mut recovery));
        if let Some(c) = tally.record("traced iteration", it) {
            counts = c;
            for (name, v) in layer_samples(w, &span_times(&t.events()[mark..])) {
                series.entry(name).or_default().push(v);
            }
        }
        if secs(start) >= a.seconds {
            break;
        }
    }
    let trace = hpf_obs::Trace::from_pipeline(t.into_events());
    let correct = tally
        .record("chrome JSON round trip", write_trace(&trace, w, a.seed))
        .is_some();

    let m = |name: &str| series.get(name).map_or(0.0, |v| median(v));
    // A timing check, not an output check: a miss is reported, not counted
    // as a failed operation.
    let sum_over_run = m("obs.span_sum_over_run");
    if (sum_over_run - 1.0).abs() > SPAN_SUM_TOLERANCE {
        eprintln!(
            "perfbench: warning: layer self times sum to {:.3}x the untraced run time (tolerance {})",
            sum_over_run, SPAN_SUM_TOLERANCE
        );
    }
    let sched = p.setup.sp().schedule();
    let fail_ratio = tally.failed as f64 / tally.attempted as f64;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let metrics: Vec<Metric> = vec![
        ("ir.parse_s", m("ir.parse"), "s"),
        ("analysis.run_s", m("analysis.run"), "s"),
        ("dist.mapping_s", m("dist.mapping"), "s"),
        ("core.map_program_s", m("core.map_program"), "s"),
        ("spmd.lower_s", m("spmd.lower"), "s"),
        ("spmd.exec_s", m("spmd.exec"), "s"),
        (
            "spmd.exec_stmt_execs",
            count("spmd.exec_stmt_execs"),
            "count",
        ),
        ("spmd.exec_over_interp", m("spmd.exec_over_interp"), "ratio"),
        ("spmd.replay_s", m("spmd.replay"), "s"),
        ("spmd.trace_events", count("spmd.trace_events"), "count"),
        ("spmd.check_s", m("spmd.check"), "s"),
        ("spmd.comm_ops", sched.ops.len() as f64, "count"),
        ("spmd.hoisted_ops", sched.hoisted_count() as f64, "count"),
        (
            "spmd.inner_loop_ops",
            sched.inner_loop_count() as f64,
            "count",
        ),
        ("net.socket_rest_s", m("net.socket_rest"), "s"),
        (
            "net.socket_over_thread",
            m("net.socket_over_thread"),
            "ratio",
        ),
        (
            "net.supervised_over_plain",
            m("net.supervised_over_plain"),
            "ratio",
        ),
        ("net.retransmits", recovery.retransmits as f64, "count"),
        (
            "net.heartbeat_misses",
            recovery.heartbeat_misses as f64,
            "count",
        ),
        ("net.respawns", recovery.respawns as f64, "count"),
        ("net.fallbacks", recovery.fallbacks as f64, "count"),
        ("verify.privatization_s", m("verify.privatization"), "s"),
        ("verify.csp_s", m("verify.csp"), "s"),
        ("verify.hb_s", m("verify.hb"), "s"),
        ("verify.warnings", count("verify.warnings"), "count"),
        ("compile.estimate_s", m("compile.estimate"), "s"),
        (
            "obs.replay_overhead_ratio",
            m("obs.replay_overhead_ratio"),
            "ratio",
        ),
        ("obs.span_sum_over_run", sum_over_run, "ratio"),
        ("ir.interp_s", m("ir.interp"), "s"),
        ("ir.interp_steps", count("ir.interp_steps"), "count"),
        ("fail_ratio", fail_ratio, "ratio"),
    ];
    Ok(Report {
        correct: correct && tally.failed == 0,
        tally,
        metrics,
    })
}

/// Per-layer samples of one iteration from its span (self, total) times.
fn layer_samples(w: &Workload, spans: &BTreeMap<String, (f64, f64)>) -> Samples {
    let self_s = |n: &str| spans.get(n).map_or(0.0, |s| s.0);
    let total_s = |n: &str| spans.get(n).map_or(0.0, |s| s.1);
    let mut out = Samples::new();
    for name in [
        "ir.parse",
        "analysis.run",
        "dist.mapping",
        "core.map_program",
        "spmd.lower",
        "ir.interp",
        "spmd.exec",
        "spmd.replay",
        "spmd.check",
        "verify.privatization",
        "verify.csp",
        "verify.hb",
        "compile.estimate",
    ] {
        out.insert(name, self_s(name));
    }
    let untraced = total_s("run.untraced");
    out.insert(
        "spmd.exec_over_interp",
        self_s("spmd.exec") / total_s("ir.interp"),
    );
    let layer_sum = match w.backend {
        Backend::Thread => {
            out.insert(
                "obs.replay_overhead_ratio",
                total_s("obs.replay_traced") / untraced,
            );
            self_s("spmd.exec") + self_s("spmd.replay") + self_s("spmd.check")
        }
        Backend::Socket => {
            let socket = total_s("net.socket");
            let known = total_s("compile") + self_s("spmd.exec") + self_s("spmd.check");
            out.insert("net.socket_rest", socket - known);
            out.insert("net.socket_over_thread", socket / total_s("net.thread"));
            out.insert(
                "net.supervised_over_plain",
                total_s("net.supervised") / untraced,
            );
            out.insert(
                "obs.replay_overhead_ratio",
                total_s("obs.replay_traced") / total_s("net.thread"),
            );
            // Compile, exec, check and the remainder cover the socket run.
            socket
        }
    };
    out.insert("obs.span_sum_over_run", layer_sum / untraced);
    out
}

/// Write the traced run's spans as chrome JSON and read them back.
fn write_trace(trace: &hpf_obs::Trace, w: &Workload, seed: u64) -> Result<(), String> {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{}-seed{}.json", w.name, seed));
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{}: {}", TRACE_DIR, e))?;
    std::fs::write(&path, trace.to_chrome_json())
        .map_err(|e| format!("{}: {}", path.display(), e))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {}", path.display(), e))?;
    let back = hpf_obs::parse_chrome_json(&text)?;
    if back != *trace {
        return Err(format!(
            "{} does not parse back to the recorded spans",
            path.display()
        ));
    }
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Counts that must repeat exactly for one seed.
fn count_metrics(w: &Workload, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let s = workload::setup(w, seed)?;
    let r = s.validated_run(&NetRunConfig::default())?;
    let (_, istats) = s.interpret()?;
    let mut exec = SpmdExec::new(s.sp(), s.init()).with_trace();
    let estats = exec
        .run()
        .map_err(|e| format!("reference executor failed: {}", e))?;
    let trace = exec.trace.take().ok_or("the executor recorded no trace")?;
    Ok(vec![
        ("wire_messages", r.metrics.messages() as f64),
        ("wire_bytes", r.metrics.bytes() as f64),
        ("model_s", s.compiled.estimate().total_s()),
        ("spmd.comm_ops", s.sp().comms.len() as f64),
        ("spmd.exec_stmt_execs", estats.stmt_execs as f64),
        (
            "spmd.trace_events",
            trace.iter().map(Vec::len).sum::<usize>() as f64,
        ),
        ("ir.interp_steps", istats.steps as f64),
    ])
}

/// Every count repeats across two runs with one seed; on the socket
/// workload two seeds give different counts, so the seed reaches the
/// schedule. Also checks every workload's oracle against the plain-Rust
/// reference at the default seed.
fn selftest() -> Result<(), String> {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        let first = count_metrics(w, 1)?;
        let again = count_metrics(w, 1)?;
        for ((name, x), (_, y)) in first.iter().zip(&again) {
            if x != y {
                problems.push(format!(
                    "{}: {} differs across runs with one seed: {} vs {}",
                    w.name, name, x, y
                ));
            }
        }
        if w.backend == Backend::Socket {
            let other = count_metrics(w, 2)?;
            if other == first {
                problems.push(format!("{}: seeds 1 and 2 give identical counts", w.name));
            }
        }
        let s = workload::setup(w, workload::DEFAULT_SEED)?;
        if let Err(e) = workload::check_reference(w.kernel, s.sp()) {
            problems.push(format!("{}: {}", w.name, e));
        }
        let line: Vec<String> = first.iter().map(|(n, v)| format!("{}={}", n, v)).collect();
        eprintln!("selftest {}: {}", w.name, line.join(" "));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_report(r: &Report) {
    let mut json = String::from("{");
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        eprintln!("perfbench: {:<28} {:>16} {}", name, finite(*value), unit);
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            name,
            finite(*value),
            unit
        ));
    }
    json.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct, r.tally.attempted, r.tally.failed, json
    );
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::SelfTest => {
            return match selftest() {
                Ok(()) => {
                    eprintln!("selftest: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("selftest failed:\n{}", e);
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Run(a) if a.trace => trace_run(&a),
        Mode::Run(a) => measure(&a),
    };
    match result {
        Ok(r) => {
            print_report(&r);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {}", e);
            ExitCode::FAILURE
        }
    }
}
