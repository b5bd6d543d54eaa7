//! Chaos suite: the self-healing socket backend must produce *bit-identical*
//! results under injected faults. Every test drives a deterministic
//! `FaultPlan` through the supervised driver and compares the outcome
//! against a fault-free thread-backend run of the same program — the
//! recovery ladder (link retransmission → checkpointed gang respawn →
//! thread-backend fallback) may cost time, never correctness.

use phpf::compile::netrun::{self, FaultPlan, NetJob, NetRunConfig, EVENT_CHUNK_BYTES};
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::net::frame::Enc;
use phpf::spmd::exec::Event;
use phpf::spmd::{check_owner_slots, encode_events, validate_replay_opts, Replayed, SpmdExec};

const SOURCE_N: i64 = 12;
const SOURCE_P: usize = 4;
const SOURCE_ITERS: i64 = 2;

fn source() -> String {
    tomcatv::source(SOURCE_N, SOURCE_P, SOURCE_ITERS)
}

/// Fault-free thread-backend reference run with the job's default fills.
fn thread_reference(job: &NetJob) -> Replayed {
    let compiled = job.compile().unwrap();
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).expect("fill var"), d.clone()))
        .collect();
    validate_replay_opts(
        &compiled.spmd,
        move |m| {
            for (v, data) in &fills {
                m.fill_real(*v, data);
            }
        },
        true,
    )
    .expect("thread backend replay")
}

fn faulted_job(trace: bool) -> NetJob {
    let mut job = NetJob::new(source());
    job.trace = trace;
    job.with_default_fills().expect("kernel compiles")
}

fn cfg_with_plan(plan: &str) -> NetRunConfig {
    NetRunConfig {
        fault_plan: Some(FaultPlan::parse(plan).expect("valid plan")),
        ..NetRunConfig::default()
    }
}

/// Corrupted and dropped frames are healed by NACK-driven retransmission
/// alone: no respawn, no degradation, and the replay is bit-identical to
/// the fault-free thread run — traffic counters included.
#[test]
fn retransmission_heals_corrupt_and_drop() {
    let job = faulted_job(true);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan("corrupt:0>1@2,drop:2>3@1"))
        .expect("faulted socket replay");
    assert!(!r.degraded, "retransmission must heal without degradation");
    assert!(
        r.metrics.recovery.retransmits >= 2,
        "both injections must cost at least one retransmission each, got {}",
        r.metrics.recovery.retransmits
    );
    assert_eq!(r.metrics.recovery.respawns, 0, "no worker death was injected");
    assert_eq!(r.metrics.recovery.fallbacks, 0);

    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("faulted socket memories must be bit-identical to the thread run");
    assert_eq!(
        r.metrics.per_proc, threads.metrics.per_proc,
        "healed links must not change the logical traffic accounting"
    );
    assert_eq!(r.stats.messages_sent, threads.stats.messages_sent);

    let trace = r.obs.expect("trace requested");
    let names = trace.fault_names();
    assert!(
        names.contains(&"retransmit"),
        "trace must record the retransmissions, got {:?}",
        names
    );
}

/// A worker killed *after* the first committed checkpoint is respawned as
/// part of a gang restart that resumes from that checkpoint — and the
/// final memories still match the fault-free run bit for bit.
#[test]
fn gang_respawn_resumes_from_checkpoint() {
    let job = faulted_job(true);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    // Place the kill in the middle of the second epoch of rank 1 so the
    // respawned generation must resume from a non-trivial checkpoint.
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).unwrap(), d.clone()))
        .collect();
    let mut exec = SpmdExec::new(&compiled.spmd, |m| {
        for (v, data) in &fills {
            m.fill_real(*v, data);
        }
    })
    .with_trace();
    exec.run().expect("reference run");
    let cuts = exec.epoch_cuts();
    assert!(cuts.len() > 2, "kernel must have at least two epochs");
    let kill_at = (cuts[1][1] + cuts[2][1]) / 2;
    assert!(kill_at > cuts[1][1], "kill must land after the first commit");

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert!(
        r.metrics.recovery.respawns >= 1,
        "the kill must be visible in the respawn counter"
    );
    assert_eq!(r.metrics.recovery.fallbacks, 0);

    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("post-respawn memories must be bit-identical to the thread run");

    let trace = r.obs.expect("trace requested");
    let names = trace.fault_names();
    for needed in ["checkpoint", "respawn"] {
        assert!(
            names.contains(&needed),
            "trace must record `{}` events, got {:?}",
            needed,
            names
        );
    }
}

/// A respawned generation is streamed only its events from the committed
/// cut onward, with cut offsets relative to that cut. On DGEFA at n=40 the
/// rank streams span several event frames; the kill lands mid-stream, so
/// the resumed stream starts deep inside the trace and still matches the
/// fault-free run bit for bit.
#[test]
fn respawn_streams_events_from_the_committed_cut() {
    let job = NetJob::new(dgefa::source(40, SOURCE_P))
        .with_default_fills()
        .expect("kernel compiles");
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).unwrap(), d.clone()))
        .collect();
    let mut exec = SpmdExec::new(&compiled.spmd, |m| {
        for (v, data) in &fills {
            m.fill_real(*v, data);
        }
    })
    .with_trace();
    exec.run().expect("reference run");
    let events = &exec.trace.as_ref().unwrap()[1];
    let kill_at = events.len() / 2;
    assert!(
        exec.epoch_cuts().iter().any(|c| c[1] > 0 && c[1] < kill_at),
        "an epoch must commit before the kill"
    );
    // Whatever cut before the kill commits, the resumed stream holds at
    // least the second half of the rank's events: more than one frame.
    let mut e = Enc::new();
    encode_events(&mut e, &events[kill_at..], usize::MAX);
    assert!(e.buf.len() > 2 * EVENT_CHUNK_BYTES, "{} bytes", e.buf.len());

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert!(r.metrics.recovery.respawns >= 1);
    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("resumed memories must be bit-identical to the thread run");
}

/// Seeded plans (corrupt + drop + kill chosen by the seed) always converge
/// to the fault-free answer: whatever the seed throws at the mesh, the
/// supervised driver heals it deterministically.
#[test]
fn seeded_plans_are_bit_identical_to_fault_free() {
    let job = faulted_job(false);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    for seed in [7u64, 21] {
        let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("seed:{}", seed)))
            .unwrap_or_else(|e| panic!("seed {}: {}", seed, e));
        assert!(!r.degraded, "seed {}: must heal without degradation", seed);
        assert!(
            r.metrics.recovery.respawns >= 1,
            "seed {}: the seeded kill must fire",
            seed
        );
        check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
            .unwrap_or_else(|e| panic!("seed {}: memories diverge: {}", seed, e));
    }
}

/// The paper's acceptance matrix: on each of the three kernels (TOMCATV,
/// DGEFA, APPSP), a plan injecting one corrupted frame on a live link plus
/// one worker kill must heal — retransmission for the frame, checkpointed
/// gang respawn for the kill — and converge bit-identically to the
/// fault-free thread run.
#[test]
fn each_kernel_heals_corrupt_frame_plus_worker_kill() {
    let kernels = [
        ("TOMCATV", tomcatv::source(12, 4, 2)),
        ("DGEFA", dgefa::source(12, 4)),
        // niter=2: one sweep is a single epoch, and the kill must land in
        // a later epoch than the corrupted frame.
        ("APPSP", appsp::source_1d(8, 4, 2)),
    ];
    for (name, src) in kernels {
        let job = NetJob::new(src).with_default_fills().expect(name);
        let compiled = job.compile().unwrap();
        let threads = thread_reference(&job);

        // Trace a reference run to aim the faults: corrupt the first frame
        // of a link that carries traffic in epoch 0, and kill rank 1 in the
        // middle of epoch 1 — strictly after the corrupt fires and after
        // the first checkpoint commits, so both recovery rungs engage.
        let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
            .fills
            .iter()
            .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).unwrap(), d.clone()))
            .collect();
        let mut exec = SpmdExec::new(&compiled.spmd, |m| {
            for (v, data) in &fills {
                m.fill_real(*v, data);
            }
        })
        .with_trace();
        exec.run().unwrap_or_else(|e| panic!("{}: reference run: {:?}", name, e));
        let cuts = exec.epoch_cuts().to_vec();
        assert!(cuts.len() > 2, "{}: kernel must span at least two epochs", name);
        let trace = exec.trace.as_ref().unwrap();
        let link = trace
            .iter()
            .enumerate()
            .find_map(|(from, events)| {
                events[..cuts[1][from]].iter().find_map(|ev| match ev {
                    Event::Send { to, .. } | Event::SendVec { to, .. } => Some((from, *to)),
                    _ => None,
                })
            })
            .unwrap_or_else(|| panic!("{}: no epoch-0 wire traffic to corrupt", name));
        let kill_at = (cuts[1][1] + cuts[2][1]) / 2;
        assert!(kill_at > cuts[1][1], "{}: kill must land after the first commit", name);

        let plan = format!("corrupt:{}>{}@0,kill:1@{}", link.0, link.1, kill_at);
        let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&plan))
            .unwrap_or_else(|e| panic!("{} under `{}`: {}", name, plan, e));
        assert!(!r.degraded, "{}: must heal without degradation", name);
        assert!(
            r.metrics.recovery.retransmits >= 1,
            "{}: the corrupted frame must cost a retransmission",
            name
        );
        assert!(
            r.metrics.recovery.respawns >= 1,
            "{}: the kill must trigger a gang respawn",
            name
        );
        assert_eq!(r.metrics.recovery.fallbacks, 0, "{}", name);
        check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
            .unwrap_or_else(|e| panic!("{}: memories diverge from thread run: {}", name, e));
    }
}

/// Supervision without faults is free of side effects: an empty plan with
/// a retry budget runs the epoch protocol, reports all-zero recovery
/// counters, and matches the fault-free run exactly.
#[test]
fn supervised_clean_run_has_zero_counters() {
    let job = faulted_job(false);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    let cfg = NetRunConfig {
        retries: 2,
        ..NetRunConfig::default()
    };
    let r = netrun::socket_validate_replay(&job, &cfg).expect("supervised clean replay");
    assert!(!r.degraded);
    assert!(
        r.metrics.recovery.is_zero(),
        "clean run must report zero recovery counters, got {:?}",
        r.metrics.recovery
    );
    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("supervised clean memories must match the thread run");
    assert_eq!(r.metrics.per_proc, threads.metrics.per_proc);
    assert_eq!(r.stats.messages_sent, threads.stats.messages_sent);
}

/// When the respawn budget cannot absorb the failures, the driver degrades
/// gracefully: the run still succeeds — on the in-process thread backend —
/// and says so via `degraded`, the `fallbacks` counter, and a `fallback`
/// trace event.
#[test]
fn exhausted_budget_degrades_to_thread_backend() {
    let job = faulted_job(true);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    let cfg = NetRunConfig {
        fault_plan: Some(FaultPlan::parse("kill:1@40").unwrap()),
        respawn_budget: Some(0),
        ..NetRunConfig::default()
    };
    let r = netrun::socket_validate_replay(&job, &cfg)
        .expect("exhausted budget must degrade, not fail");
    assert!(r.degraded, "the result must be flagged as degraded");
    assert_eq!(r.metrics.recovery.fallbacks, 1);
    assert_eq!(r.metrics.recovery.respawns, 0, "budget of zero allows no respawn");

    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("degraded run must still produce the correct memories");

    let trace = r.obs.expect("trace requested");
    let names = trace.fault_names();
    assert!(
        names.contains(&"fallback"),
        "trace must record the degradation, got {:?}",
        names
    );
}
