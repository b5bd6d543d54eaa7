//! # hpf-verify
//!
//! Static communication-safety and privatization-soundness verifier
//! for lowered SPMD programs. The mapping pass (`phpf-core`) and the
//! lowering (`hpf-spmd`) *establish* the paper's legality conditions;
//! this crate independently *re-proves* them on the finished artifact,
//! so a bug anywhere in the pipeline surfaces as a structured
//! diagnostic instead of a wrong answer:
//!
//! * [`privatize`] — the Fig. 3 side conditions on every mapping
//!   decision (unique reaching def, operand availability, alignment
//!   level validity, array loop-privacy): codes `V001`–`V007`;
//! * [`csp`] — the per-rank replay schedule as a message-passing CSP:
//!   per-epoch send/receive matching, deadlock-freedom, no message or
//!   coalescing group open across an epoch cut, payload agreement:
//!   codes `S100`–`S104`;
//! * [`hb`] — vector-clock happens-before over the executed CSP; no
//!   two ranks write the same owned element unordered: `R200`/`R201`;
//! * [`trace`] — cross-validation of a *recorded* hpf-obs trace
//!   against the static happens-before relation: `T300`–`T302`.
//!
//! Entry points: [`verify_static`] (decisions only, no execution),
//! [`verify_execution`] (runs the schedule the thread backend runs, then
//! checks everything), [`verify_executor_schedule`] (the same checks on
//! the reference executor's trace and epoch cuts, which socket workers
//! replay), [`verify_schedule_trace`] (checks a supplied schedule — the
//! negative-corpus hook), and [`verify_recorded_trace`]
//! (`--verify-trace`).
//!
//! [`verify_execution`] checks the schedule that runs. For every program
//! [`hpf_spmd::engine`] admits, that is the node programs': the P ranks
//! run on threads, each recording its own messages, reduction steps and
//! owned writes ([`hpf_spmd::node::record`]), and the checks read those
//! streams with one epoch (node programs take no epoch cuts). Every
//! other program runs on the reference executor and replay, and is
//! checked on the executor's trace and epoch cuts, as before. A rank
//! whose own code fails is an `S100` naming the rank and the statement;
//! a rank that stops at a receive keeps it as its last event, so a
//! blocked run is an `S102` naming each stuck rank.

pub mod csp;
pub mod diag;
pub mod hb;
pub mod privatize;
pub mod trace;

pub use diag::{Diagnostic, Severity, VerifyReport, VerifyVerdict};

use hpf_analysis::Analysis;
use hpf_ir::Memory;
use hpf_spmd::node::{self, Stop};
use hpf_spmd::{Engine, SpmdExec, SpmdProgram, Trace};

/// Verify the statically decidable properties: every privatization /
/// alignment decision against the paper's side conditions, and operand
/// availability against the placed communication schedule.
pub fn verify_static(sp: &SpmdProgram) -> VerifyReport {
    let a = Analysis::run(&sp.program);
    let mut report = VerifyReport::default();
    report.extend(privatize::verify_privatization(sp, &a));
    report
}

/// Full verification: the static checks, then the schedule the thread
/// backend runs, checked for matching, deadlock-freedom, cut-closure and
/// happens-before races: the node programs' own schedule when
/// [`hpf_spmd::engine`] admits the program, else the reference
/// executor's trace and epoch cuts.
pub fn verify_execution(sp: &SpmdProgram, init: impl Fn(&mut Memory) + Sync) -> VerifyReport {
    match hpf_spmd::engine(sp) {
        Engine::Node => verify_with(sp, |report| node_schedule(sp, &init, report)),
        Engine::Replay(_) => verify_executor_schedule(sp, init),
    }
}

/// Full verification of the reference executor's schedule (its replay
/// trace and epoch cuts), whatever engine the thread backend picks: the
/// schedule socket workers replay.
pub fn verify_executor_schedule(sp: &SpmdProgram, init: impl Fn(&mut Memory)) -> VerifyReport {
    verify_with(sp, |report| {
        let mut exec = SpmdExec::new(sp, init).with_trace();
        if let Err(e) = exec.run() {
            report.push(Diagnostic::error(
                "S100",
                format!("reference execution failed before the schedule completed: {}", e),
            ));
            return None;
        }
        let cuts = exec.epoch_cuts().to_vec();
        exec.trace.take().map(|trace| (trace, cuts))
    })
}

/// The static checks, then the schedule and epoch cuts `schedule` yields
/// (or the diagnostics it reports instead).
fn verify_with(
    sp: &SpmdProgram,
    schedule: impl FnOnce(&mut VerifyReport) -> Option<(Trace, Vec<Vec<usize>>)>,
) -> VerifyReport {
    let a = Analysis::run(&sp.program);
    let mut report = VerifyReport::default();
    report.extend(privatize::verify_privatization(sp, &a));
    let Some((trace, cuts)) = schedule(&mut report) else {
        return report;
    };
    let (diags, sim) = csp::check_schedule(&sp.program, &trace, &cuts);
    report.extend(diags);
    report.extend(hb::check_races(sp, &a, &trace, &sim));
    report
}

/// The node programs' recorded schedule, with one epoch. A rank whose
/// own code failed is an `S100` at the statement it ran, and then there
/// is no schedule to check. A rank that stopped at a message is an
/// `S100` too, and its schedule is checked with that message last.
fn node_schedule(
    sp: &SpmdProgram,
    init: &(impl Fn(&mut Memory) + Sync),
    report: &mut VerifyReport,
) -> Option<(Trace, Vec<Vec<usize>>)> {
    let ranks = node::record(sp, init);
    let faulted = ranks
        .iter()
        .any(|r| matches!(r.stop, Some(Stop::Fault { .. })));
    for (r, rank) in ranks.iter().enumerate() {
        match &rank.stop {
            Some(Stop::Fault { stmt, error }) => {
                let d = Diagnostic::error(
                    "S100",
                    format!("rank {} failed before its node program completed: {}", r, error),
                );
                report.push(match stmt {
                    Some(s) => d.at(*s),
                    None => d,
                });
            }
            // The peers of a failed rank stop at the messages it never
            // sends: only the failed rank is named.
            Some(Stop::Message(error)) if !faulted => report.push(Diagnostic::error(
                "S100",
                format!("rank {} stopped at a message: {}", r, error),
            )),
            _ => {}
        }
    }
    if faulted {
        return None;
    }
    Some((ranks.into_iter().map(|r| r.events).collect(), Vec::new()))
}

/// Check a supplied replay trace + epoch cuts (rather than one freshly
/// executed). This is the hook the corrupted-schedule tests use, and
/// what external runtimes can call with their own replay evidence.
pub fn verify_schedule_trace(
    sp: &SpmdProgram,
    trace: &hpf_spmd::Trace,
    cuts: &[Vec<usize>],
) -> VerifyReport {
    let a = Analysis::run(&sp.program);
    let (diags, sim) = csp::check_schedule(&sp.program, trace, cuts);
    let mut report = VerifyReport { diags };
    report.extend(hb::check_races(sp, &a, trace, &sim));
    report
}

/// Assert a recorded hpf-obs trace is a linearization of the program's
/// static happens-before relation (`--verify-trace`). `init` must
/// reproduce the recorded run's initial memory: communication in a
/// data-dependent schedule (DGEFA's pivot) depends on it.
pub fn verify_recorded_trace(
    sp: &SpmdProgram,
    recorded: &hpf_obs::Trace,
    init: impl Fn(&mut Memory) + Sync,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    report.extend(trace::verify_recorded_trace(sp, recorded, init));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_dist::MappingTable;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    pub(crate) fn pipeline(src: &str, cfg: CoreConfig) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        hpf_spmd::lower(&p, &a, &maps, d)
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

    fn init(mem: &mut hpf_ir::Memory) {
        let _ = mem;
    }

    #[test]
    fn figure1_verifies_clean_under_every_config() {
        for cfg in [CoreConfig::full(), CoreConfig::full_auto(), CoreConfig::naive()] {
            let sp = pipeline(FIG1, cfg);
            let report = verify_execution(&sp, init);
            assert!(
                report.is_clean(),
                "expected clean verdict, got: {:?}",
                report.diags
            );
            assert!(report.verdict().all_ok());
        }
    }

    /// The thread backend's timelines of one run.
    fn recorded(sp: &SpmdProgram) -> hpf_obs::Trace {
        let run = hpf_spmd::validate_replay_traced(sp, init, true, true).unwrap();
        run.obs.unwrap()
    }

    #[test]
    fn figure1_recorded_trace_is_a_linearization() {
        let sp = pipeline(FIG1, CoreConfig::full());
        let recorded = recorded(&sp);
        let report = verify_recorded_trace(&sp, &recorded, init);
        assert!(report.is_clean(), "got: {:?}", report.diags);
    }

    /// A reduction combined over four ranks runs as node programs, and
    /// their recorded schedule verifies clean.
    #[test]
    fn four_rank_reduction_node_schedule_verifies() {
        let src = r#"
!HPF$ PROCESSORS P(1,4)
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
        let sp = pipeline(src, CoreConfig::full());
        assert!(sp.reduces.iter().any(|r| !r.reduce_dims.is_empty()));
        assert_eq!(hpf_spmd::engine(&sp), hpf_spmd::Engine::Node);
        let report = verify_execution(&sp, init);
        assert!(report.is_clean(), "got: {:?}", report.diags);
    }

    #[test]
    fn swapped_comm_events_are_rejected() {
        let sp = pipeline(FIG1, CoreConfig::full());
        let mut recorded = recorded(&sp);
        // Swap the first two adjacent, distinct comm events of one rank:
        // a reordering across a happens-before edge (program order).
        let mut swapped = false;
        'outer: for r in 0..recorded.nranks() {
            let idx: Vec<usize> = recorded
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    e.rank == Some(r) && matches!(e.body, hpf_obs::Body::Comm { .. })
                })
                .map(|(i, _)| i)
                .collect();
            for w in idx.windows(2) {
                let (a, b) = (w[0], w[1]);
                if recorded.events[a].body != recorded.events[b].body {
                    recorded.events.swap(a, b);
                    swapped = true;
                    break 'outer;
                }
            }
        }
        assert!(swapped, "test needs two distinct comm events on one rank");
        let report = verify_recorded_trace(&sp, &recorded, init);
        assert!(report.has("T301"), "got: {:?}", report.diags);
    }
}
