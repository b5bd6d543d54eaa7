//! The reference executor's epoch hand-off, which the socket driver
//! streams to its workers while the executor runs on: the handed-off
//! epochs are exactly the recorded trace cut at its epoch boundaries, and
//! an executor that fails after the workers started tears the cohort down.

use phpf::compile::netrun::{self, NetJob, NetRunConfig};
use phpf::compile::{compile_source, Options, Version};
use phpf::ir::{Memory, ScalarTy};
use phpf::spmd::{SpmdExec, SpmdProgram, Trace};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

const TOMCATV: &str = include_str!("../examples/hpf/tomcatv_small.hpf");
const DGEFA: &str = include_str!("../examples/hpf/dgefa_small.hpf");
const APPSP: &str = include_str!("../examples/hpf/appsp_small.hpf");

/// Two elements BLOCK-distributed over four processors: ranks 2 and 3
/// own nothing, so every epoch hands them an empty list.
const EMPTY_RANKS: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(2)
INTEGER i
DO i = 1, 2
  A(i) = A(i) * 2.0 + 1.0
END DO
"#;

fn compile(src: &str) -> SpmdProgram {
    compile_source(src, Options::new(Version::SelectedAlignment))
        .expect("compiles")
        .spmd
}

fn fills(sp: &SpmdProgram) -> impl Fn(&mut Memory) + Sync + '_ {
    move |m: &mut Memory| {
        for (v, info) in sp.program.vars.arrays() {
            if info.ty == ScalarTy::Real {
                let n = info.shape().unwrap().len() as usize;
                let data: Vec<f64> = (0..n)
                    .map(|k| 1.0 + ((k * 37 + 11) % 23) as f64 * 0.125)
                    .collect();
                m.fill_real(v, &data);
            }
        }
    }
}

fn executor<'s>(sp: &'s SpmdProgram, vectorize: bool) -> SpmdExec<'s> {
    let exec = SpmdExec::new(sp, fills(sp));
    if vectorize {
        exec
    } else {
        exec.without_vectorization()
    }
}

#[test]
fn epoch_sink_hands_off_the_recorded_trace() {
    for (name, src) in [
        ("tomcatv", TOMCATV),
        ("dgefa", DGEFA),
        ("appsp", APPSP),
        ("A(2) on P(4)", EMPTY_RANKS),
    ] {
        let sp = compile(src);
        let nproc = sp.maps.grid.total();
        for vectorize in [true, false] {
            let ctx = format!("{name} (vectorize {vectorize})");
            let mut whole = executor(&sp, vectorize).with_trace();
            whole.run().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let trace = whole.trace.take().unwrap();
            let cuts = whole.epoch_cuts();

            let epochs: Rc<RefCell<Vec<Trace>>> = Rc::default();
            let sink = Rc::clone(&epochs);
            let mut streamed = executor(&sp, vectorize)
                .with_epoch_sink(move |epoch| sink.borrow_mut().push(epoch));
            let stats = streamed.run().unwrap_or_else(|e| panic!("{ctx}: {e}"));

            assert_eq!(streamed.epoch_cuts(), cuts, "{ctx}: cuts differ");
            assert_eq!(stats, whole.stats, "{ctx}: stats differ");
            assert_eq!(streamed.mems, whole.mems, "{ctx}: memories differ");
            assert!(
                streamed.trace.as_ref().unwrap().iter().all(Vec::is_empty),
                "{ctx}: events left behind after a successful run"
            );
            let epochs = epochs.borrow();
            assert_eq!(epochs.len(), cuts.len() - 1, "{ctx}: one hand-off per cut");
            for (k, epoch) in epochs.iter().enumerate() {
                assert_eq!(epoch.len(), nproc, "{ctx}: epoch {k} rank count");
                for (r, events) in epoch.iter().enumerate() {
                    assert!(
                        events[..] == trace[r][cuts[k][r]..cuts[k + 1][r]],
                        "{ctx}: epoch {k} rank {r} is not the trace between its cuts"
                    );
                }
            }
            for (r, events) in trace.iter().enumerate() {
                let joined: Vec<_> = epochs.iter().flat_map(|e| e[r].iter().cloned()).collect();
                assert!(joined == *events, "{ctx}: rank {r} concatenation differs");
            }
            if name == "A(2) on P(4)" {
                assert!(epochs.iter().all(|e| e[2].is_empty() && e[3].is_empty()));
            }
        }
    }
}

/// A stencil swept 34 times whose last sweep alone reads `B(65)`, past
/// the end of `B`: the reference executor fails only once the workers
/// have been streamed and have replayed every earlier epoch.
const FAILS_LATE: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(64), B(64)
INTEGER i, k
DO k = 1, 34
  DO i = 2, 63
    B(i) = (A(i-1) + A(i+1)) * 0.5
  END DO
  DO i = 2, 63
    A(i) = B(i)
  END DO
  A(1) = B(k + 31)
END DO
"#;

/// This process's children that have not been reaped (zombies included).
fn live_children() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let stat = std::fs::read_to_string(e.ok()?.path().join("stat")).ok()?;
        // pid (comm) state ppid ...
        let (head, rest) = stat.rsplit_once(')')?;
        let ppid = rest.split_whitespace().nth(1)?;
        (ppid == me).then(|| format!("{})", head))
    })
    .collect()
}

#[test]
fn reference_failure_mid_stream_tears_down_the_cohort() {
    let job = NetJob::new(FAILS_LATE).with_default_fills().unwrap();
    let cfg = NetRunConfig {
        io_deadline: Duration::from_secs(2),
        connect_deadline: Duration::from_secs(10),
        result_deadline: Duration::from_secs(15),
        ..NetRunConfig::default()
    };
    let start = Instant::now();
    let err = netrun::socket_validate_replay(&job, &cfg)
        .expect_err("an out-of-bounds read must fail the run");
    assert!(err.starts_with("reference run failed: "), "{err}");
    assert!(err.contains("index [65] out of bounds for b"), "{err}");
    assert!(
        start.elapsed() < cfg.result_deadline,
        "failure took {:?}",
        start.elapsed()
    );
    assert_eq!(live_children(), Vec::<String>::new(), "workers left running");
}
