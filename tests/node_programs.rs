//! Node programs against the reference executor and trace replay: on the
//! paper's TOMCATV and APPSP (1-D and 2-D grids), under all six versions,
//! BLOCK and CYCLIC, vectorized and per-element, the ranks that run their
//! own node programs must end with the executor's owner slots bit for
//! bit, send exactly the replay's messages (every `CommMetrics` field but
//! the `max_in_flight` gauge) and tell each rank's comm story in the
//! replay's order. DGEFA, an indirect subscript and Figure 1 must fall
//! back to exec+replay and say why.

use phpf::compile::{compile_source, Compiled, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::spmd::{
    check_owner_slots, engine, replay_traced, validate_replay, validate_replay_traced, CommMetrics,
    Engine, Fallback, SpmdExec,
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
        .map(|(v, _)| v)
        .collect();
    move |m: &mut Memory| {
        for (k, &v) in arrays.iter().enumerate() {
            let n = m.real_slice(v).len();
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
        assert_eq!(
            node.stats.messages_sent, replayed.stats.messages_sent,
            "{what}: messages sent"
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
    }
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
