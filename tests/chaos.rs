//! Chaos suite: the self-healing socket backend must produce *bit-identical*
//! results under injected faults. Every test drives a deterministic
//! `FaultPlan` through the socket driver and compares the outcome against
//! a fault-free thread-backend run of the same program. Every fault — a
//! corrupt or dropped frame as much as a killed worker — fails its cohort,
//! and the recovery ladder (rerun from the start by a fresh cohort →
//! thread-backend fallback) may cost time, never correctness.

use phpf::compile::netrun::{self, FaultPlan, NetJob, NetRunConfig, EVENT_CHUNK_BYTES};
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::net::frame::Enc;
use phpf::obs::Body;
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

/// Corrupted and dropped frames are terminal at the link: each fails its
/// cohort, and a fresh cohort reruns the run. Nothing is
/// retransmitted, nothing degrades, and the replay is bit-identical to the
/// fault-free thread run — traffic counters included. The salvaged trace
/// names each detected fault exactly once: each injection fired once.
#[test]
fn link_faults_heal_by_gang_respawn() {
    let job = faulted_job(true);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan("corrupt:0>1@2,drop:2>3@1"))
        .expect("faulted socket replay");
    assert!(!r.degraded, "gang respawn must heal without degradation");
    assert_eq!(r.metrics.recovery.retransmits, 0, "links never retransmit");
    assert!(
        r.metrics.recovery.respawns >= 1,
        "the link faults must cost a gang respawn"
    );
    assert_eq!(r.metrics.recovery.fallbacks, 0);

    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("faulted socket memories must be bit-identical to the thread run");
    assert_eq!(
        r.metrics.per_proc, threads.metrics.per_proc,
        "healed links must not change the logical traffic accounting"
    );
    assert_eq!(r.metrics.messages(), threads.metrics.messages());

    let trace = r.obs.expect("trace requested");
    let names = trace.fault_names();
    for detected in ["bad-checksum", "seq-gap"] {
        assert_eq!(
            names.iter().filter(|&&n| n == detected).count(),
            1,
            "trace must record `{}` once, got {:?}",
            detected,
            names
        );
    }
    assert!(names.contains(&"respawn"), "got {:?}", names);
}

/// A worker killed in the middle of the run fails its cohort; a fresh
/// cohort reruns the whole run from the start, and the final memories
/// still match the fault-free run bit for bit. No checkpoint is taken.
#[test]
fn killed_worker_heals_through_a_fresh_cohort() {
    let job = faulted_job(true);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    // Place the kill in the middle of the second epoch of rank 1, after
    // the workers replayed a whole epoch.
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
    assert!(kill_at > cuts[1][1], "kill must land after the first epoch");

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert_eq!(
        r.metrics.recovery.respawns, 1,
        "the kill must cost exactly one fresh cohort"
    );
    assert_eq!(r.metrics.recovery.fallbacks, 0);

    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("post-respawn memories must be bit-identical to the thread run");
    assert_eq!(r.metrics.per_proc, threads.metrics.per_proc);

    let trace = r.obs.expect("trace requested");
    let names = trace.fault_names();
    assert!(
        names.contains(&"respawn"),
        "trace must record the respawn, got {:?}",
        names
    );
    assert!(
        !names.contains(&"checkpoint"),
        "no checkpoint is taken, got {:?}",
        names
    );
}

/// A kill half-way through a rank's multi-frame event stream heals: on
/// DGEFA at n=72 the rank streams span several event frames, the kill
/// lands mid-stream after whole epochs were replayed, and the fresh
/// cohort, streamed everything again from the start, still matches the
/// fault-free run bit for bit.
#[test]
fn mid_stream_kill_heals_on_a_multi_frame_event_stream() {
    let job = NetJob::new(dgefa::source(72, SOURCE_P))
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
        "an epoch must end before the kill"
    );
    // The half of the rank's events the killed cohort never replayed
    // spans more than one frame.
    let mut e = Enc::new();
    encode_events(&mut e, &events[kill_at..], usize::MAX);
    assert!(e.buf.len() > 2 * EVENT_CHUNK_BYTES, "{} bytes", e.buf.len());

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert!(r.metrics.recovery.respawns >= 1);
    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("healed memories must be bit-identical to the thread run");
}

/// Seeded plans (corrupt + drop + kill chosen by the seed) always converge
/// to the fault-free answer: whatever the seed throws at the mesh, the
/// driver heals it deterministically.
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
        assert_eq!(
            r.metrics.per_proc, threads.metrics.per_proc,
            "seed {}",
            seed
        );
    }
}

/// The paper's acceptance matrix: on each of the three kernels (TOMCATV,
/// DGEFA, APPSP), a plan injecting one corrupted frame on a live link plus
/// one worker kill must heal — each by its own fresh cohort — and
/// converge bit-identically to the fault-free thread run.
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
        // middle of epoch 1. The corrupt frame's receiver is rank 1, so
        // rank 1 fails in epoch 0, before it reaches its kill: each fault
        // fails its own cohort.
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
        assert!(
            kill_at > cuts[1][1],
            "{}: kill must land after epoch 0",
            name
        );

        let plan = format!("corrupt:{}>{}@0,kill:1@{}", link.0, link.1, kill_at);
        let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&plan))
            .unwrap_or_else(|e| panic!("{} under `{}`: {}", name, plan, e));
        assert!(!r.degraded, "{}: must heal without degradation", name);
        // The corrupt frame fails cohort 1 in epoch 0 and consumes only
        // itself; the kill then fails cohort 2 in epoch 1, and cohort 3
        // finishes.
        assert_eq!(
            r.metrics.recovery.respawns, 2,
            "{}: the corrupt frame and the kill must each cost one gang respawn",
            name
        );
        assert_eq!(r.metrics.recovery.fallbacks, 0, "{}", name);
        check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
            .unwrap_or_else(|e| panic!("{}: memories diverge from thread run: {}", name, e));
        assert_eq!(r.metrics.per_proc, threads.metrics.per_proc, "{}", name);
    }
}

/// Supervision without faults is free of side effects: an empty plan with
/// a respawn budget runs one cohort, reports all-zero recovery counters,
/// and matches the fault-free run exactly.
#[test]
fn supervised_clean_run_has_zero_counters() {
    let job = faulted_job(false);
    let compiled = job.compile().unwrap();
    let threads = thread_reference(&job);

    let cfg = NetRunConfig {
        respawn_budget: Some(2),
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
    assert_eq!(r.metrics.messages(), threads.metrics.messages());
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

/// A worker killed while the reference executor is still producing epochs
/// fails its cohort; the fresh cohort follows its own live executor from
/// the start, and the run ends bit-identical to the fault-free one.
/// DGEFA at n=96 has 95 epochs and the kill lands in the third, while
/// the executor is still producing them.
#[test]
fn respawn_follows_the_live_executor() {
    let mut job = NetJob::new(dgefa::source(96, SOURCE_P));
    job.trace = true;
    let job = job.with_default_fills().expect("kernel compiles");
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
    let cuts = exec.epoch_cuts();
    assert!(cuts.len() > 50, "{} cuts", cuts.len());
    // Halfway through rank 1's share of epoch 2.
    let kill_at = (cuts[2][1] + cuts[3][1]) / 2;

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert_eq!(r.metrics.recovery.respawns, 1);
    let obs = r.obs.as_ref().expect("trace requested");
    let times = |pred: &dyn Fn(&Body) -> bool| -> Vec<u64> {
        obs.pipeline_events()
            .filter(|e| pred(&e.body))
            .map(|e| e.t_us)
            .collect()
    };
    // Each cohort ran its own reference executor...
    let exec_ends = times(&|b| matches!(b, Body::End { name } if name == "reference-exec"));
    assert_eq!(exec_ends.len(), 2, "one reference-exec span per cohort");
    assert_eq!(
        times(&|b| matches!(b, Body::Begin { name } if name == "reference-exec")).len(),
        2
    );
    // ...and the respawn came between them.
    let respawns = times(&|b| matches!(b, Body::Fault { name, .. } if name == "respawn"));
    assert_eq!(respawns.len(), 1);
    assert!(
        exec_ends[0] <= respawns[0] && respawns[0] <= exec_ends[1],
        "respawn at {} us, reference-exec ends at {:?} us",
        respawns[0],
        exec_ends
    );
    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("healed memories must be bit-identical to the thread run");
}

/// A healed run reports the traffic of the whole run exactly once: the
/// failed cohort's counters are discarded, and the fresh cohort counts
/// the run from the start. DGEFA at n=32 with rank 1 killed in the middle
/// of epoch 5.
#[test]
fn respawned_run_counts_the_traffic_of_the_whole_run() {
    let job = NetJob::new(dgefa::source(32, SOURCE_P))
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
    let cuts = exec.epoch_cuts();
    assert!(cuts.len() > 6, "{} cuts", cuts.len());
    let kill_at = (cuts[5][1] + cuts[6][1]) / 2;
    assert!(kill_at > cuts[5][1], "kill must land inside epoch 5");

    let r = netrun::socket_validate_replay(&job, &cfg_with_plan(&format!("kill:1@{}", kill_at)))
        .expect("killed worker must be healed by respawn");
    assert!(!r.degraded);
    assert_eq!(r.metrics.recovery.respawns, 1);
    check_owner_slots(&compiled.spmd, &r.mems, &threads.mems)
        .expect("healed memories must be bit-identical to the thread run");
    assert_eq!(r.metrics.per_proc, threads.metrics.per_proc);
    assert_eq!(r.metrics.messages(), threads.metrics.messages());
}
