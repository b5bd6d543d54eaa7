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
//! [`verify_execution`] (compiles the schedule by running the
//! reference executor, then checks everything), [`verify_schedule_trace`]
//! (checks a supplied replay trace — the negative-corpus hook), and
//! [`verify_recorded_trace`] (`--verify-trace`).

pub mod csp;
pub mod diag;
pub mod hb;
pub mod privatize;
pub mod render;
pub mod trace;

pub use diag::{Diagnostic, Severity, VerifyReport, VerifyVerdict};

use hpf_analysis::Analysis;
use hpf_ir::Memory;
use hpf_spmd::{SpmdExec, SpmdProgram};

/// Verify the statically decidable properties: every privatization /
/// alignment decision against the paper's side conditions, and operand
/// availability against the placed communication schedule.
pub fn verify_static(sp: &SpmdProgram) -> VerifyReport {
    let a = Analysis::run(&sp.program);
    let mut report = VerifyReport::default();
    report.extend(privatize::verify_privatization(sp, &a));
    report
}

/// Full verification: the static checks, then the schedule the
/// reference executor compiles for this program (its replay trace and
/// epoch cuts) checked for matching, deadlock-freedom, cut-closure and
/// happens-before races.
pub fn verify_execution(sp: &SpmdProgram, init: impl Fn(&mut Memory)) -> VerifyReport {
    let a = Analysis::run(&sp.program);
    let mut report = VerifyReport::default();
    report.extend(privatize::verify_privatization(sp, &a));

    let mut exec = SpmdExec::new(sp, init).with_trace();
    if let Err(e) = exec.run() {
        report.push(Diagnostic::error(
            "S100",
            format!("reference execution failed before the schedule completed: {}", e),
        ));
        return report;
    }
    let cuts = exec.epoch_cuts().to_vec();
    let trace = exec.trace.take().expect("with_trace records a trace");

    let (diags, sim) = csp::check_schedule(&sp.program, &trace, &cuts);
    report.extend(diags);
    report.extend(hb::check_races(sp, &a, &trace, &sim));
    report
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
    init: impl Fn(&mut Memory),
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

    #[test]
    fn figure1_recorded_trace_is_a_linearization() {
        let sp = pipeline(FIG1, CoreConfig::full());
        let mut exec = SpmdExec::new(&sp, init).with_obs();
        exec.run().unwrap();
        let recorded = exec.take_obs().unwrap();
        let report = verify_recorded_trace(&sp, &recorded, init);
        assert!(report.is_clean(), "got: {:?}", report.diags);
    }

    #[test]
    fn swapped_comm_events_are_rejected() {
        let sp = pipeline(FIG1, CoreConfig::full());
        let mut exec = SpmdExec::new(&sp, init).with_obs();
        exec.run().unwrap();
        let mut recorded = exec.take_obs().unwrap();
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
