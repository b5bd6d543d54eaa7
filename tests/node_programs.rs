//! Node programs against the reference executor and trace replay: on the
//! paper's TOMCATV and APPSP (1-D and 2-D grids) and on a sum reduction
//! over a 1×4 grid, under all six versions,
//! BLOCK and CYCLIC, vectorized and per-element, the ranks that run their
//! own node programs must end with the executor's owner slots bit for
//! bit, send exactly the replay's messages (every `CommMetrics` field but
//! the `max_in_flight` gauge) and tell each rank's comm story in the
//! replay's order. The schedule the ranks record for the verifier
//! (`node::record`) must be the executor's trace, event for event, less
//! the statements that cannot race. DGEFA, an indirect subscript and
//! Figure 1 must fall back to exec+replay and say why. The compile
//! report's loop sets must hold every iteration a rank runs, and a loop
//! that runs past its array must fault on a rank, naming the statement.

use phpf::compile::netrun::{self, NetJob, NetRunConfig};
use phpf::compile::{compile_source, Compiled, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::spmd::{
    check_owner_slots, engine, node, replay_traced, validate_replay, validate_replay_traced,
    CommMetrics, Engine, Event, Fallback, SpmdExec, SpmdProgram, Trace,
};

const VERSIONS: [Version; 6] = [
    Version::Replication,
    Version::ProducerAlignment,
    Version::SelectedAlignment,
    Version::NoReductionAlignment,
    Version::NoArrayPrivatization,
    Version::NoPartialPrivatization,
];

/// Deterministic contents for every REAL array.
fn fill(c: &Compiled) -> impl Fn(&mut Memory) + Sync {
    let arrays: Vec<_> = c
        .spmd
        .program
        .vars
        .arrays()
        .filter(|(_, info)| info.ty == phpf::ir::ScalarTy::Real)
        .map(|(v, info)| (v, info.shape().unwrap().len() as usize))
        .collect();
    move |m: &mut Memory| {
        for (k, &(v, n)) in arrays.iter().enumerate() {
            let data: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i * 7 + k * 3) % 23) as f64 * 0.0625)
                .collect();
            m.fill_real(v, &data);
        }
    }
}

fn without_gauge(m: &CommMetrics) -> CommMetrics {
    let mut m = m.clone();
    m.max_in_flight = 0;
    m
}

/// One configuration: node programs against the executor and its replay.
fn check(name: &str, src: &str, vectorize: bool) {
    for v in VERSIONS {
        let what = format!("{name}, {}, vectorize={vectorize}", v.name());
        let c = compile_source(src, Options::new(v)).unwrap_or_else(|e| panic!("{what}: {e}"));
        let sp = &c.spmd;
        assert_eq!(engine(sp), Engine::Node, "{what}: engine");
        let init = fill(&c);

        let node = validate_replay_traced(sp, &init, vectorize, true)
            .unwrap_or_else(|e| panic!("{what}: node programs: {e}"));
        assert_eq!(node.engine, Some(Engine::Node), "{what}: reported engine");

        let mut exec = SpmdExec::new(sp, &init).with_trace();
        if !vectorize {
            exec = exec.without_vectorization();
        }
        exec.run()
            .unwrap_or_else(|e| panic!("{what}: executor: {e}"));
        let replayed = replay_traced(sp, exec.trace.as_ref().unwrap(), &init, true)
            .unwrap_or_else(|e| panic!("{what}: replay: {e}"));

        check_owner_slots(sp, &node.mems, &exec.mems)
            .unwrap_or_else(|e| panic!("{what}: owner slots: {e}"));
        assert_eq!(
            without_gauge(&node.metrics),
            without_gauge(&replayed.metrics),
            "{what}: metrics"
        );
        let (nt, rt) = (node.obs.unwrap(), replayed.obs.unwrap());
        assert_eq!(nt.nranks(), rt.nranks(), "{what}: ranks");
        for r in 0..nt.nranks() {
            assert_eq!(
                nt.comm_signature(r),
                rt.comm_signature(r),
                "{what}: rank {r} comm timeline"
            );
        }
        if vectorize {
            let recorded = node::record(sp, &init);
            let want = verifier_view(sp, exec.trace.as_ref().unwrap());
            for (r, (rank, want)) in recorded.iter().zip(&want).enumerate() {
                assert_eq!(rank.stop, None, "{what}: rank {r} stopped");
                assert!(rank.events == *want, "{what}: rank {r} recorded schedule");
            }
        }
    }
}

/// The executor's trace as the node programs record it: every event but
/// the `Exec` of a statement that cannot race.
fn verifier_view(sp: &SpmdProgram, trace: &Trace) -> Trace {
    let kept = |e: &&Event| match e {
        Event::Exec { stmt, .. } => sp.owned_write(*stmt).is_some(),
        _ => true,
    };
    trace
        .iter()
        .map(|evs| evs.iter().filter(kept).cloned().collect())
        .collect()
}

fn cyclic(src: &str) -> String {
    src.replace("BLOCK", "CYCLIC")
}

#[test]
fn tomcatv_block() {
    let src = tomcatv::source(10, 4, 2);
    check("TOMCATV BLOCK", &src, true);
    check("TOMCATV BLOCK", &src, false);
}

#[test]
fn tomcatv_cyclic() {
    let src = cyclic(&tomcatv::source(10, 4, 2));
    check("TOMCATV CYCLIC", &src, true);
    check("TOMCATV CYCLIC", &src, false);
}

#[test]
fn appsp_1d_block() {
    let src = appsp::source_1d(8, 4, 1);
    check("APPSP 1-D BLOCK", &src, true);
    check("APPSP 1-D BLOCK", &src, false);
}

#[test]
fn appsp_1d_cyclic() {
    let src = cyclic(&appsp::source_1d(8, 4, 1));
    check("APPSP 1-D CYCLIC", &src, true);
    check("APPSP 1-D CYCLIC", &src, false);
}

#[test]
fn appsp_2d_block() {
    let src = appsp::source_2d(8, 2, 2, 1);
    check("APPSP 2-D BLOCK", &src, true);
    check("APPSP 2-D BLOCK", &src, false);
}

#[test]
fn appsp_2d_cyclic() {
    let src = cyclic(&appsp::source_2d(8, 2, 2, 1));
    check("APPSP 2-D CYCLIC", &src, true);
    check("APPSP 2-D CYCLIC", &src, false);
}

/// A sum reduction combined over the four ranks of a 1×4 grid: the
/// leader receives every partial before it sends any result, on the node
/// programs' timelines as on the replay's, and per-element messages keep
/// their class.
#[test]
fn four_rank_sum_reduction() {
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
    let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
    assert!(c.spmd.reduces.iter().any(|r| !r.reduce_dims.is_empty()));
    check("1x4 sum reduction", src, true);
    check("1x4 sum reduction", src, false);
}

/// DGEFA's pivot test reads the matrix: it stays on exec+replay, and the
/// run says so.
#[test]
fn dgefa_falls_back_with_its_reason() {
    let c = compile_source(
        &dgefa::source(8, 4),
        Options::new(Version::SelectedAlignment),
    )
    .unwrap();
    let why = match engine(&c.spmd) {
        Engine::Replay(why @ Fallback::RemoteControl(_)) => why,
        other => panic!("DGEFA engine: {other:?}"),
    };
    assert!(why.to_string().contains("reads an array element"), "{why}");
    let a = c.spmd.program.vars.lookup("a").unwrap();
    let a0 = dgefa::init_matrix(8);
    let r = validate_replay(&c.spmd, |m| m.fill_real(a, &a0)).unwrap();
    assert_eq!(r.engine, Some(Engine::Replay(why)));
}

/// The two fallback reasons besides control flow, each of which the node
/// programs cannot run yet: an indirect subscript (a sender cannot work
/// out which element a reader wants without the index array's value), and
/// Figure 1's `m`, which a hoisted operation's send set reads before the
/// loop body assigns it.
#[test]
fn remote_subscripts_and_late_scalars_fall_back() {
    let indirect = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B, IDX
REAL A(32), B(32)
INTEGER IDX(32)
INTEGER i
DO i = 1, 32
  IDX(i) = 33 - i
END DO
DO i = 1, 32
  B(i) = A(IDX(i))
END DO
"#;
    let figure1 = include_str!("../examples/hpf/figure1.hpf");
    for (src, want) in [(indirect, "RemoteSubscript"), (figure1, "LateScalar")] {
        let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
        let why = match engine(&c.spmd) {
            Engine::Replay(why) => why,
            Engine::Node => panic!("{want}: ran as node programs"),
        };
        assert!(format!("{why:?}").starts_with(want), "{why:?}");
        let init = fill(&c);
        let r = validate_replay(&c.spmd, &init).unwrap_or_else(|e| panic!("{want}: {e}"));
        assert_eq!(r.engine, Some(Engine::Replay(why)));
    }
}

/// A rank whose thread panics fails the run with an error naming it, on
/// both engines, instead of taking the caller down.
#[test]
fn a_faulting_rank_is_an_error() {
    let c = compile_source(
        &tomcatv::source(10, 4, 1),
        Options::new(Version::SelectedAlignment),
    )
    .unwrap();
    let init = fill(&c);
    let faulty = |m: &mut Memory| {
        if std::thread::current().name() == Some("rank 2") {
            panic!("rank 2 faults");
        }
        init(m)
    };
    let err = validate_replay(&c.spmd, faulty).expect_err("node programs");
    assert!(err.starts_with("proc 2: panicked: rank 2 faults"), "{err}");

    let mut exec = SpmdExec::new(&c.spmd, &init).with_trace();
    exec.run().unwrap();
    let err =
        replay_traced(&c.spmd, exec.trace.as_ref().unwrap(), faulty, false).expect_err("replay");
    assert!(err.starts_with("proc 2: panicked: rank 2 faults"), "{err}");
}

/// A DO variable read outside its loop holds the value the loop's last
/// run left, which depends on iterations of the enclosing loop a rank
/// might skip: such an enclosing loop is visited in full.
#[test]
fn do_variable_read_outside_a_skipped_loop() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i, j
DO j = 1, 16
  A(j) = i
  DO i = 1, j
    B(j) = B(j) + 1.0
  END DO
END DO
"#;
    let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
    assert_eq!(engine(&c.spmd), Engine::Node);
    let r = validate_replay(&c.spmd, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    let a = c.spmd.program.vars.lookup("a").unwrap();
    // A(16) is owned by rank 3 and reads the exit value of `DO i = 1, 15`.
    assert_eq!(r.mems[3].array(a).get(15), phpf::ir::Value::Real(16.0));
}

/// A loop over a CYCLIC(2) array: each rank visits its blocks of two.
const CYCLIC2: &str = "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (CYCLIC(2)) :: A\nREAL A(16)\n\
    INTEGER i\nDO i = 1, 16\n  A(i) = A(i) * 2.0\nEND DO\n";

/// A loop over an array aligned at stride 2 with a BLOCK one: each rank
/// visits the quarter of A its store holds.
const STRIDE2: &str = "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: T\n\
    !HPF$ ALIGN (i) WITH T(2*i) :: A\nREAL T(32), A(16)\n\
    INTEGER i\nDO i = 1, 16\n  A(i) = A(i) * 2.0\nEND DO\n";

/// The local iteration sets of a compile report.
fn iteration_section(c: &Compiled) -> String {
    let report = c.report();
    let after = report
        .split("== local iteration sets ==\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no local iteration sets:\n{report}"));
    after.split("== rank stores ==").next().unwrap_or("").to_string()
}

/// The compile report prints the node programs' own plan: the engine,
/// then per DO loop the owner references that bound a rank's iterations
/// (or every iteration) and, for constant bounds, each coordinate's sets.
/// stencil2d's first nest shows the halo rows and columns: along each grid
/// dimension, coordinate 0 visits index 17 and coordinate 1 index 16 to
/// serve their neighbours. A fallback program prints only its engine line.
#[test]
fn report_prints_the_node_plan() {
    let compiled =
        |src: &str| compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();

    let stencil = iteration_section(&compiled(include_str!("../examples/hpf/stencil2d.hpf")));
    assert!(stencil.starts_with("engine: node programs\n"), "{stencil}");
    for line in [
        "s3    DO j = 2, 31: owner of v(i,j) | u(i,j - 1) | u(i,j + 1)\n\
         \x20       grid dim 1: [0:2..17] [1:16..31]\n",
        "s2    DO i = 2, 31: owner of v(i,j) | u(i - 1,j) | u(i + 1,j) | u(i,j - 1) | u(i,j + 1)\n\
         \x20       grid dim 0: [0:2..17] [1:16..31]\n",
        "s6    DO j = 2, 31: owner of u(i,j)\n        grid dim 1: [0:2..16] [1:17..31]\n",
        "s5    DO i = 2, 31: owner of u(i,j)\n        grid dim 0: [0:2..16] [1:17..31]\n",
    ] {
        assert!(stencil.contains(line), "stencil2d lacks {line:?}:\n{stencil}");
    }

    // TOMCATV: no DO variable's exit value reaches a use outside its
    // loop, so each `DO j` is bounded by the owners of columns j, j+1 and
    // j-1 (the first nest's halo columns), and each `DO i` by the owner
    // of its column.
    let tomcatv = iteration_section(&compiled(&tomcatv::source(12, 4, 1)));
    assert!(tomcatv.starts_with("engine: node programs\n"), "{tomcatv}");
    assert!(tomcatv.contains("DO it = 1, 1: every iteration\n"), "{tomcatv}");
    for sets in [
        "        grid dim 0: [0:2..4] [1:3..7] [2:6..10] [3:9..11]\n",
        "        grid dim 0: [0:2..3] [1:4..6] [2:7..9] [3:10..11]\n",
    ] {
        assert!(tomcatv.contains(sets), "TOMCATV lacks {sets:?}:\n{tomcatv}");
    }
    let loops: Vec<&str> = tomcatv.lines().filter(|l| l.contains(" DO ")).collect();
    assert!(loops.iter().any(|l| l.contains("DO i = 2, 11: owner of")
        && l.contains(",j + 1)")
        && l.contains(",j - 1)")), "{tomcatv}");
    for l in &loops {
        assert!(
            l.contains("DO it = 1, 1: every iteration")
                || (l.contains("DO j = 2, 11: owner of") || l.contains("DO i = 2, 11: owner of")),
            "TOMCATV: {l}"
        );
    }

    let appsp = iteration_section(&compiled(&appsp::source_2d(8, 2, 2, 1)));
    assert!(appsp.starts_with("engine: node programs\n"), "{appsp}");
    assert!(appsp.contains(": owner of rsd("), "{appsp}");

    // CYCLIC(2) and a stride-2 alignment are bounded like the stores; a
    // loop line prints its step.
    for (src, line) in [
        (
            CYCLIC2,
            "s1    DO i = 1, 16: owner of a(i)\n\
             \x20       grid dim 0: [0:1..10:8x2] [1:3..12:8x2] [2:5..14:8x2] [3:7..16:8x2]\n",
        ),
        (
            STRIDE2,
            "s1    DO i = 1, 16: owner of a(i)\n\
             \x20       grid dim 0: [0:1..4] [1:5..8] [2:9..12] [3:13..16]\n",
        ),
        (
            "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\nREAL A(16)\nINTEGER i\n\
             DO i = 16, 1, -3\n  A(i) = 1.0\nEND DO\n",
            "s1    DO i = 16, 1, (-3): owner of a(i)\n\
             \x20       grid dim 0: [0:1..4] [1:5..8] [2:9..12] [3:13..16]\n",
        ),
    ] {
        let section = iteration_section(&compiled(src));
        assert!(section.contains(line), "lacks {line:?}:\n{section}");
    }

    let c = compiled(&dgefa::source(8, 4));
    let dgefa = iteration_section(&c);
    assert_eq!(dgefa, format!("engine: {}\n", engine(&c.spmd)));
    assert!(dgefa.starts_with("engine: exec+replay (IF "), "{dgefa}");

    for (name, section) in [("stencil2d", &stencil), ("TOMCATV", &tomcatv), ("APPSP 2-D", &appsp)] {
        assert!(!section.contains("(runtime ownership guards)"), "{name}: {section}");
    }
}

/// Every iteration in which a rank executes an owned write, as its
/// recorded schedule shows, lies in a set the report prints for that
/// rank's grid coordinate: stencil2d under BLOCK on its 2×2 grid and under
/// CYCLIC on a 4×2 grid, a CYCLIC(2) loop and a stride-2 alignment.
#[test]
fn recorded_executions_lie_in_the_reported_sets() {
    let block = include_str!("../examples/hpf/stencil2d.hpf").to_string();
    let cyclic = cyclic(&block).replace("PROCESSORS P(2,2)", "PROCESSORS P(4,2)");
    for (name, src) in [
        ("BLOCK", block),
        ("CYCLIC", cyclic),
        ("CYCLIC(2)", CYCLIC2.to_string()),
        ("stride 2", STRIDE2.to_string()),
    ] {
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let sp = &c.spmd;
        let p = &sp.program;
        let loops = node::loop_visits(sp).unwrap_or_else(|why| panic!("{name}: {why}"));
        let mut checked = 0;
        for (pid, rank) in node::record(sp, &fill(&c)).iter().enumerate() {
            assert_eq!(rank.stop, None, "{name}: rank {pid} stopped");
            let coords = sp.maps.grid.coords_of(pid);
            for ev in &rank.events {
                let Event::Exec { stmt, env } = ev else {
                    continue;
                };
                for l in p.enclosing_loops(*stmt) {
                    let Some(lv) = loops.iter().find(|lv| lv.stmt == l) else {
                        continue;
                    };
                    let i = env.get(p.loop_var(l).unwrap()).unwrap();
                    for d in &lv.dims {
                        let sets = &d.sets[coords[d.g]];
                        assert!(
                            sets.iter().any(|s| s.local(i).is_some()),
                            "{name}: rank {pid} runs s{} at {i}, outside {sets:?}",
                            stmt.0
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "{name}: no execution lies in a bounded loop");
    }
}

/// A BLOCK loop that runs past its array faults on the rank that visits
/// the faulting iteration, naming the rank and the assignment, as the
/// executor (and so the socket backend) does: the ranks visit every
/// iteration whose reference leaves the template.
#[test]
fn out_of_bounds_block_loops_fault() {
    let one_d = |lo: i64, hi: i64| {
        format!(
            "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\nREAL A(8)\nINTEGER i\n\
             DO i = {lo}, {hi}\n  A(i) = 1.0\nEND DO\n"
        )
    };
    let two_d = "!HPF$ PROCESSORS P(2,2)\n!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: U\nREAL U(8,8)\n\
                 INTEGER i, j\nDO j = 1, 8\n  DO i = 1, 9\n    U(i,j) = 1.0\n  END DO\nEND DO\n";
    for (k, src) in [one_d(1, 9), one_d(0, 8), two_d.to_string()]
        .iter()
        .enumerate()
    {
        let c = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
        assert_eq!(engine(&c.spmd), Engine::Node, "{src}");

        let report = c.verify(|_| {});
        let faults: Vec<_> = report.errors().filter(|d| d.code == "S100").collect();
        assert!(!faults.is_empty(), "no S100 for\n{src}");
        for d in &faults {
            assert!(d.message.starts_with("rank "), "{}", d.message);
            assert!(d.message.contains("out of bounds"), "{}", d.message);
            assert_eq!(d.stmt, Some(phpf::ir::StmtId(0)), "{}", d.message);
        }

        let err = validate_replay(&c.spmd, |_| {}).expect_err("node programs");
        assert!(err.starts_with("proc "), "{err}");
        assert!(err.contains("out of bounds"), "{err}");

        let socket = c.verify_executor_schedule(|_| {});
        assert!(
            socket.errors().any(|d| d.code == "S100"),
            "executor schedule of\n{src}"
        );
        if k == 0 {
            let job = NetJob::new(src.clone()).with_default_fills().unwrap();
            let err = netrun::socket_validate_replay(&job, &NetRunConfig::default())
                .expect_err("socket backend");
            assert!(err.contains("out of bounds"), "{err}");
        }
    }
}
