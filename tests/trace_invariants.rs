//! Property tests for the observability layer's trace invariants:
//!
//! * pipeline spans strictly nest on every stream, for random programs;
//! * traced Send/Recv event counts equal the wire-level [`CommMetrics`]
//!   tallies exactly, rank by rank, on random kernels (the thread
//!   backend's timelines, on random stencils and on a guarded stencil
//!   with random data);
//! * per-link wire sequence numbers stamped on traced socket send events
//!   are strictly monotone.
//!
//! The program generators mirror `fuzz_semantics.rs`: random guarded
//! stencils (control flow driven by the data) and random processor
//! grid / extent sweeps.

use phpf::compile::netrun::{self, NetJob, NetRunConfig};
use phpf::compile::{compile_source_traced, Options, Version};
use phpf::obs::{Body, BufTracer, Trace};
use phpf::spmd::{validate_replay_traced, CommMetrics};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The random stencil family from `fuzz_semantics::random_processor_grids`:
/// odd processor counts, imbalanced blocks.
fn stencil_src(p: usize, n: i64) -> String {
    format!(
        "!HPF$ PROCESSORS P({p})\n\
         !HPF$ DISTRIBUTE (BLOCK) :: A, B\n\
         REAL A({n}), B({n})\n\
         INTEGER i\n\
         DO i = 2, {hi}\n\
         \x20 A(i) = (B(i-1) + B(i+1)) * 0.5\n\
         END DO\n",
        hi = n - 1
    )
}

/// The guarded stencil from `fuzz_semantics::random_guarded_stencils`:
/// the IF goes both ways depending on the data.
const GUARDED_SRC: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(24), B(24), C(24)
INTEGER i
DO i = 1, 24
  IF (B(i) /= 0.0) THEN
    A(i) = A(i) / B(i)
  ELSE
    A(i) = C(i)
    C(i) = C(i) * C(i)
  END IF
END DO
"#;

/// Every rank's traced send/recv event counts must equal the wire
/// accounting exactly.
fn assert_counts_match(ctx: &str, trace: &Trace, metrics: &CommMetrics) {
    let counts = trace.comm_counts();
    for (r, p) in metrics.per_proc.iter().enumerate() {
        let s = counts.sends.get(r).copied().unwrap_or(0);
        let v = counts.recvs.get(r).copied().unwrap_or(0);
        assert_eq!(
            (s, v),
            (p.sent_messages, p.recv_messages),
            "{ctx}: rank {r}: trace says {s} sends / {v} recvs, \
             metrics say {} / {}",
            p.sent_messages,
            p.recv_messages
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipeline spans strictly nest and the threaded replay's traced
    /// traffic matches its meters, on random grid/extent stencils.
    #[test]
    fn spans_nest_and_replay_counts_match(p in 1usize..8, n in 9i64..30) {
        let src = stencil_src(p, n);
        let mut pipe = BufTracer::pipeline();
        let c = compile_source_traced(&src, Options::new(Version::SelectedAlignment), &mut pipe)
            .unwrap();
        let b = c.spmd.program.vars.lookup("b").unwrap();
        let nn = n;
        let r = validate_replay_traced(
            &c.spmd,
            move |m| {
                let data: Vec<f64> = (0..nn).map(|k| (k as f64).cos()).collect();
                m.fill_real(b, &data);
            },
            true,
            true,
        )
        .unwrap();
        let mut trace = r.obs.unwrap();
        trace.prepend_pipeline(pipe.into_events());
        trace.check_nesting().unwrap();
        // The full compile emitted its phase spans, in order.
        prop_assert_eq!(
            trace.span_names(),
            vec!["parse", "ssa", "mapping", "privatization", "lower"]
        );
        assert_counts_match(&format!("P={p} n={n}"), &trace, &r.metrics);
        prop_assert!(trace.fault_names().is_empty());
    }

    /// The thread backend's per-rank timelines also match its meters on
    /// the guarded stencil with random data (both IF paths exercised).
    #[test]
    fn exec_trace_counts_match_metrics(
        bd in proptest::collection::vec(
            prop_oneof![Just(0.0f64), -2.0..2.0f64], 24usize),
        ad in proptest::collection::vec(-1.0..1.0f64, 24usize),
        cd in proptest::collection::vec(-1.0..1.0f64, 24usize),
    ) {
        let c = compile_source_traced(
            GUARDED_SRC,
            Options::new(Version::SelectedAlignment),
            &mut phpf::obs::NullTracer,
        )
        .unwrap();
        let pr = &c.spmd.program;
        let (a, b, cc) = (
            pr.vars.lookup("a").unwrap(),
            pr.vars.lookup("b").unwrap(),
            pr.vars.lookup("c").unwrap(),
        );
        let init = move |m: &mut phpf::ir::Memory| {
            m.fill_real(a, &ad);
            m.fill_real(b, &bd);
            m.fill_real(cc, &cd);
        };
        let r = validate_replay_traced(&c.spmd, init, true, true).unwrap();
        let trace = r.obs.unwrap();
        trace.check_nesting().unwrap();
        assert_counts_match("guarded stencil", &trace, &r.metrics);
    }
}

proptest! {
    // Socket runs spawn one OS process per virtual processor; keep the
    // case count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Wire sequence numbers stamped on traced socket send events are
    /// strictly monotone per link, and the socket trace's counts match
    /// the merged wire metrics.
    #[test]
    fn socket_seqs_monotone_per_link(p in 2usize..5, n in 12i64..28) {
        let mut job = NetJob::new(stencil_src(p, n));
        job.trace = true;
        let job = job.with_default_fills().unwrap();
        let r = netrun::socket_validate_replay(&job, &NetRunConfig::default()).unwrap();
        let trace = r.obs.unwrap();
        trace.check_nesting().unwrap();
        assert_counts_match(&format!("socket P={p} n={n}"), &trace, &r.metrics);
        let mut stamped = 0usize;
        for rank in 0..trace.nranks() {
            // seq is stamped on send-side events only; group by link.
            let mut last: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for e in trace.rank_events(rank) {
                let Body::Comm { from, to, seq: Some(seq), .. } = &e.body else {
                    continue;
                };
                stamped += 1;
                prop_assert_eq!(*from, rank, "only the sender stamps seq");
                if let Some(prev) = last.insert((*from, *to), *seq) {
                    prop_assert!(
                        *seq > prev,
                        "rank {} link {}->{}: seq {} after {}",
                        rank, from, to, seq, prev
                    );
                }
            }
        }
        // P >= 2 with a shift stencil always communicates, so the
        // monotonicity check above must not be vacuous.
        prop_assert!(stamped > 0, "no seq-stamped send events in the socket trace");
    }
}
