//! Recorded-trace cross-validation (`--verify-trace`).
//!
//! The static happens-before relation of a compiled program is its
//! schedule: program order per rank plus per-link FIFO message matching.
//! The expected per-rank communication sequences come from the thread
//! backend's traced run ([`hpf_spmd::validate_replay_traced`]): the node
//! programs where [`hpf_spmd::engine`] admits the program, the reference
//! executor and a replay of its trace otherwise. Both engines, and the
//! socket workers' replay, tell each rank's comm story in the same order.
//! A recorded hpf-obs trace (from either backend) is a linearization of
//! that relation iff each rank's observed communication sequence equals
//! the schedule's — the per-rank sequences fix program order, and FIFO
//! links fix the cross-rank matching, so no reordering across a
//! happens-before edge can leave the per-rank sequences intact. **T301**
//! reports the first divergence per rank; **T300** reports a run of the
//! program that fails, or a recorded trace whose shape (rank count)
//! cannot belong to this program.
//!
//! The comparison keys on everything semantically meaningful in a comm
//! event — kind, endpoints, placed operation, pattern, placement
//! levels, element count — and ignores wall-clock timestamps and wire
//! sequence numbers, which legitimately differ between backends.

use hpf_ir::Memory;
use hpf_obs::{Body, Trace as ObsTrace};
use hpf_spmd::SpmdProgram;

use crate::diag::Diagnostic;

const MAX_DIVERGENCES: usize = 5;

/// The backend-independent identity of one comm event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    kind: &'static str,
    from: usize,
    to: usize,
    op: Option<usize>,
    pattern: String,
    level: usize,
    stmt_level: usize,
    elems: u64,
}

impl Key {
    fn text(&self) -> String {
        format!(
            "{} {}->{} op {} pattern {} level {}/{} elems {}",
            self.kind,
            self.from,
            self.to,
            self.op.map(|o| o.to_string()).unwrap_or_else(|| "-".into()),
            self.pattern,
            self.level,
            self.stmt_level,
            self.elems
        )
    }
}

fn comm_keys(t: &ObsTrace, rank: usize) -> Vec<Key> {
    t.rank_events(rank)
        .filter_map(|e| match &e.body {
            Body::Comm {
                kind,
                from,
                to,
                op,
                pattern,
                level,
                stmt_level,
                elems,
                ..
            } => Some(Key {
                kind: kind.name(),
                from: *from,
                to: *to,
                op: *op,
                pattern: pattern.clone(),
                level: *level,
                stmt_level: *stmt_level,
                elems: *elems,
            }),
            _ => None,
        })
        .collect()
}

/// Run the program on the thread backend and assert the recorded trace's
/// dynamic communication order is a linearization of the static
/// happens-before relation.
pub fn verify_recorded_trace(
    sp: &SpmdProgram,
    recorded: &ObsTrace,
    init: impl Fn(&mut Memory) + Sync,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let expected = match hpf_spmd::validate_replay_traced(sp, init, true, true) {
        Ok(run) => run.obs.expect("a traced run keeps its timelines"),
        Err(e) => {
            out.push(Diagnostic::error(
                "T300",
                format!("thread-backend run of the compiled program failed: {}", e),
            ));
            return out;
        }
    };

    let faults = recorded.fault_names();
    if !faults.is_empty() {
        out.push(Diagnostic::warning(
            "T302",
            format!(
                "recorded trace carries fault events ({}); recovery traffic can \
                 legitimately diverge from the fault-free schedule",
                faults.join(", ")
            ),
        ));
    }

    let nranks = expected.nranks();
    if recorded.nranks() != nranks {
        out.push(Diagnostic::error(
            "T300",
            format!(
                "recorded trace has {} rank(s), the compiled program runs on {}",
                recorded.nranks(),
                nranks
            ),
        ));
        return out;
    }

    let mut divergences = 0usize;
    for r in 0..nranks {
        let want = comm_keys(&expected, r);
        let got = comm_keys(recorded, r);
        let first_diff = want
            .iter()
            .zip(&got)
            .position(|(w, g)| w != g)
            .or_else(|| (want.len() != got.len()).then_some(want.len().min(got.len())));
        if let Some(i) = first_diff {
            divergences += 1;
            if divergences <= MAX_DIVERGENCES {
                let mut d = Diagnostic::error(
                    "T301",
                    format!(
                        "rank {}: recorded communication order is not a linearization of \
                         the static happens-before relation (first divergence at comm \
                         event {})",
                        r, i
                    ),
                );
                d = match (want.get(i), got.get(i)) {
                    (Some(w), Some(g)) => d
                        .note(format!("schedule expects: {}", w.text()))
                        .note(format!("trace records:   {}", g.text())),
                    (Some(w), None) => d.note(format!(
                        "schedule expects {} further event(s), next: {}",
                        want.len() - got.len(),
                        w.text()
                    )),
                    (None, Some(g)) => d.note(format!(
                        "trace records {} extra event(s), next: {}",
                        got.len() - want.len(),
                        g.text()
                    )),
                    (None, None) => d,
                };
                out.push(d);
            }
        }
    }
    if divergences > MAX_DIVERGENCES {
        out.push(Diagnostic::error(
            "T301",
            format!("... and {} more diverging ranks", divergences - MAX_DIVERGENCES),
        ));
    }
    out
}
