//! Failure injection: the validators must *catch* broken compilations and
//! broken schedules, not just bless correct ones. Each test sabotages one
//! layer and asserts the corresponding checker fails loudly.

use phpf::analysis::Analysis;
use phpf::compile::{compile_source, Options, Version};
use phpf::core::{Decisions, ScalarMapping};
use phpf::dist::MappingTable;
use phpf::ir::{parse_program, ArrayRef, Expr};
use phpf::spmd::exec::Event;
use phpf::spmd::{lower, validate_against_sequential, SpmdExec};

const STENCIL: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
REAL t
DO i = 2, 15
  t = B(i-1) + B(i+1)
  A(i) = t * 0.5
END DO
"#;

/// Sabotage the mapping: align the (non-privatizable placement of) t with
/// a *wrong* reference so its value is read from the wrong owner. The
/// semantic validator must detect the divergence.
#[test]
fn wrong_alignment_is_caught() {
    let p = parse_program(STENCIL).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let mut d: Decisions = phpf::core::map_program(
        &p,
        &a,
        &maps,
        phpf::core::CoreConfig::full(),
    );
    // Find t's def and misalign it with A(i-5) — a different owner than
    // its consumer A(i), without any communication op to compensate.
    let t = p.vars.lookup("t").unwrap();
    let t_def = phpf::ir::visit::defs_of(&p, t)[0];
    let av = p.vars.lookup("a").unwrap();
    let i = p.vars.lookup("i").unwrap();
    d.set_scalar(
        t_def,
        ScalarMapping::Aligned {
            target_stmt: t_def,
            target: ArrayRef::new(av, vec![Expr::scalar(i).sub(Expr::int(5))]),
            from_consumer: true,
        },
    );
    // Drop the compensating communication ops so the sabotage is real.
    let mut sp = lower(&p, &a, &maps, d);
    sp.comms.clear();
    let b = p.vars.lookup("b").unwrap();
    let res = validate_against_sequential(&sp, move |m| {
        let data: Vec<f64> = (0..16).map(|k| (k * k) as f64).collect();
        m.fill_real(b, &data);
    });
    // Either the executor hits an out-of-bounds owner evaluation or the
    // results diverge — both are detection.
    assert!(res.is_err(), "sabotaged alignment must not validate");
}

/// Sabotage the recorded schedule: drop one Send event. The threaded
/// replay must fail (a Recv blocks forever is avoided because the channel
/// disconnects when the sender thread finishes → recv error).
#[test]
fn dropped_message_is_caught() {
    let c = compile_source(STENCIL, Options::new(Version::SelectedAlignment)).unwrap();
    let b = c.spmd.program.vars.lookup("b").unwrap();
    let init = move |m: &mut phpf::ir::Memory| {
        let data: Vec<f64> = (0..16).map(|k| 0.5 + k as f64).collect();
        m.fill_real(b, &data);
    };
    let mut exec = SpmdExec::new(&c.spmd, init).with_trace();
    exec.run().unwrap();
    let mut trace = exec.trace.take().unwrap();
    // Remove the first outgoing message anywhere (per-element or
    // vectorized).
    let mut removed = false;
    for evs in trace.iter_mut() {
        if let Some(pos) = evs
            .iter()
            .position(|e| matches!(e, Event::Send { .. } | Event::SendVec { .. }))
        {
            evs.remove(pos);
            removed = true;
            break;
        }
    }
    assert!(removed, "trace contained messages to sabotage");
    let res = phpf::spmd::runtime::replay(&c.spmd, &trace, init);
    assert!(res.is_err(), "replay of a sabotaged schedule must fail");
}

/// A corrupted value in flight must be caught by the cross-check: swap a
/// Recv's slot so the value lands in the wrong place.
#[test]
fn misrouted_message_is_caught() {
    let c = compile_source(STENCIL, Options::new(Version::SelectedAlignment)).unwrap();
    let b = c.spmd.program.vars.lookup("b").unwrap();
    let init = move |m: &mut phpf::ir::Memory| {
        let data: Vec<f64> = (0..16).map(|k| 1.0 + (k as f64) * 0.3).collect();
        m.fill_real(b, &data);
    };
    let mut exec = SpmdExec::new(&c.spmd, init).with_trace();
    exec.run().unwrap();
    let mut trace = exec.trace.take().unwrap();
    // Redirect the first received element into a different slot
    // (per-element Recv or a slot inside a coalesced RecvVec).
    let misroute = |slot: &mut phpf::spmd::exec::Slot| -> bool {
        if let phpf::spmd::exec::Slot::Elem(v, off) = slot {
            *slot = phpf::spmd::exec::Slot::Elem(
                *v,
                if *off == 0 { 1 } else { off.wrapping_sub(1) },
            );
            true
        } else {
            false
        }
    };
    let mut sabotaged = false;
    'outer: for evs in trace.iter_mut() {
        for e in evs.iter_mut() {
            let hit = match e {
                Event::Recv { slot, .. } => misroute(slot),
                Event::RecvVec { slots, .. } => slots.iter_mut().any(misroute),
                _ => false,
            };
            if hit {
                sabotaged = true;
                break 'outer;
            }
        }
    }
    assert!(sabotaged);
    let res = phpf::spmd::runtime::replay(&c.spmd, &trace, init);
    match res {
        Err(_) => {}
        Ok(replayed) => {
            // Replay ran; the memories must now differ from the reference.
            let mut exec2 = SpmdExec::new(&c.spmd, init);
            exec2.run().unwrap();
            let a_var = c.spmd.program.vars.lookup("a").unwrap();
            let differs = replayed
                .mems
                .iter()
                .zip(&exec2.mems)
                .any(|(got, want)| got.array(a_var) != want.array(a_var));
            assert!(differs, "misrouted value must corrupt some copy");
        }
    }
}

/// Executor robustness: out-of-bounds subscripts surface as errors, not
/// silent corruption or panics.
#[test]
fn out_of_bounds_reported() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(8)
INTEGER i
DO i = 1, 9
  A(i) = 1.0
END DO
"#;
    let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
    let res = validate_against_sequential(&c.spmd, |_| {});
    assert!(res.is_err());
    let msg = res.unwrap_err();
    assert!(msg.contains("out of bounds"), "{}", msg);
}

/// A run-time failure renders through `Display` with a single prefix:
/// `execution failed: index [5] out of bounds for a`, never the Debug
/// form of the error.
#[test]
fn out_of_bounds_renders_once_with_display() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(4)
A(5) = 1.0
"#;
    let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
    let msg = c.observe(|_| {}).unwrap_err();
    assert_eq!(msg.matches("index [5] out of bounds for a").count(), 1, "{msg}");
    assert_eq!(msg.matches("execution failed").count(), 1, "{msg}");
    assert!(!msg.contains("OutOfBounds {"), "{msg}");
}

/// Parser robustness: malformed inputs return errors (never panic).
#[test]
fn parser_rejects_garbage_gracefully() {
    let cases = [
        "DO i = 1",
        "REAL A(",
        "!HPF$ DISTRIBUTE (FOO) :: A\nREAL A(4)",
        "!HPF$ ALIGN B(i) WITH\nREAL B(4)",
        "INTEGER i\nDO i = 1, 4\nEND IF",
        "x = = 1",
        "REAL A(4)\nA(1,2) = 0.0",
        "IF (1 > ) THEN\nEND IF",
        "GOTO 7",
        "REAL x\nx = .BOGUS.",
    ];
    for c in cases {
        assert!(parse_program(c).is_err(), "must reject: {}", c);
    }
}

/// Step-limit guard: a GOTO cycle terminates with an error instead of
/// hanging the executor.
#[test]
fn goto_cycle_hits_step_limit() {
    let src = r#"
REAL x
10 x = x + 1.0
GOTO 10
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf::core::map_program(&p, &a, &maps, phpf::core::CoreConfig::full());
    let sp = lower(&p, &a, &maps, d);
    let mut exec = SpmdExec::new(&sp, |_| {});
    exec.step_limit = 10_000;
    let err = exec.run().unwrap_err();
    assert!(matches!(err, phpf::ir::interp::InterpError::StepLimit));
}

/// Sabotage the socket backend: one worker process is killed right after
/// the mesh handshake. The run must fail with an error naming the dead
/// rank, within bounded time — never hang on the missing peer.
#[test]
fn killed_worker_process_is_caught() {
    use phpf::compile::netrun::{NetJob, NetRunConfig};
    use std::time::{Duration, Instant};

    let job = NetJob::new(STENCIL).with_default_fills().unwrap();
    let cfg = NetRunConfig {
        io_deadline: Duration::from_secs(2),
        connect_deadline: Duration::from_secs(10),
        result_deadline: Duration::from_secs(15),
        fail_rank: Some(1),
        ..NetRunConfig::default()
    };
    let start = Instant::now();
    let err = phpf::compile::netrun::socket_validate_replay(&job, &cfg)
        .expect_err("a killed worker must fail the run");
    // Deadline-bounded detection: well under the stacked worst-case
    // deadlines, and with the dead rank named in the diagnostic.
    assert!(
        start.elapsed() < Duration::from_secs(40),
        "detection took {:?}", start.elapsed()
    );
    assert!(
        err.contains("worker 1") || err.contains("link") && err.contains("1"),
        "error must name the dead rank: {}",
        err
    );
}

/// A fault plan that names ranks outside the grid could never fire; the
/// socket driver rejects it before it launches a worker, naming the action
/// and the grid size, instead of reporting a clean run.
#[test]
fn fault_plan_outside_the_grid_is_rejected_before_launch() {
    use phpf::compile::netrun::{FaultPlan, NetJob, NetRunConfig};
    use std::time::{Duration, Instant};

    let job = NetJob::new(STENCIL).with_default_fills().unwrap();
    let cfg = NetRunConfig {
        fault_plan: Some(FaultPlan::parse("kill:9@5,corrupt:7>8@0").unwrap()),
        ..NetRunConfig::default()
    };
    let start = Instant::now();
    let err = phpf::compile::netrun::socket_validate_replay(&job, &cfg)
        .expect_err("an out-of-grid fault plan must fail the run");
    assert!(err.contains("`kill:9@5`"), "error must name the action: {err}");
    assert!(err.contains("4 processors"), "error must name the grid size: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "rejection took {:?}: workers were launched",
        start.elapsed()
    );
}

/// A zero-extent processor grid is rejected while parsing, with the line
/// of the directive, instead of panicking when the grid is built.
#[test]
fn zero_extent_processors_is_a_located_error() {
    for (decl, dim) in [("P(0)", 1), ("P(2,0)", 2)] {
        let src = format!(
            "\n!HPF$ PROCESSORS {decl}\n!HPF$ DISTRIBUTE (BLOCK) :: A\nREAL A(8)\nA(1) = 1.0\n"
        );
        let err = compile_source(&src, Options::new(Version::SelectedAlignment))
            .err()
            .expect("P(0) must not compile");
        assert!(err.contains("line 2"), "{decl}: error names no line: {err}");
        assert!(
            err.contains(&format!("dimension {dim} has extent 0")),
            "{decl}: error does not name the extent: {err}"
        );
    }
}

/// `CYCLIC(0)` used to compile and then divide by zero at run time; it is
/// now a parse error on the directive's line.
#[test]
fn cyclic_zero_is_a_located_error() {
    let src =
        "\n!HPF$ PROCESSORS P(4)\nREAL A(16)\n!HPF$ DISTRIBUTE (CYCLIC(0)) :: A\nA(1) = 1.0\n";
    let err = compile_source(src, Options::new(Version::SelectedAlignment))
        .err()
        .expect("CYCLIC(0) must not compile");
    assert!(err.contains("line 4"), "error names no line: {err}");
    assert!(
        err.contains("CYCLIC(0)"),
        "error does not name the format: {err}"
    );
}

/// A program built without source (so no line to name) still gets an
/// error, not a panic, for `CYCLIC(0)`: mapping rejects it by array.
#[test]
fn cyclic_zero_without_source_is_a_mapping_error() {
    let mut p = parse_program(
        "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (CYCLIC(2)) :: A\nREAL A(16)\nA(1) = 1.0\n",
    )
    .unwrap();
    p.directives.distributes[0].formats[0] = phpf::ir::DistFormat::BlockCyclic(0);
    let err = MappingTable::from_program(&p, None).unwrap_err();
    assert!(
        err.contains("array a dimension 1") && err.contains("CYCLIC(0)"),
        "{err}"
    );
}
