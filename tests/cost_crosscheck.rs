//! Acceptance tests tying the three layers together: for each paper
//! kernel the wire messages of its thread-backend run must agree with the
//! cost model's per-operation predictions, and the vectorized schedule
//! must send strictly fewer messages through the threaded runtime than
//! the per-element schedule.

use phpf::compile::{compile_source, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::spmd::runtime::validate_replay_opts;

fn check_kernel(name: &str, src: &str, init: impl Fn(&mut Memory) + Sync) {
    let c = compile_source(src, Options::new(Version::SelectedAlignment))
        .unwrap_or_else(|e| panic!("{}: compile failed: {}", name, e));
    let check = c
        .cross_check(&init)
        .unwrap_or_else(|e| panic!("{}: cross-check failed: {}", name, e));
    assert!(
        check.observed_total as f64 <= check.predicted_total.ceil() + 0.5,
        "{}: observed {} wire messages > predicted {:.1}",
        name,
        check.observed_total,
        check.predicted_total
    );
    assert_eq!(check.untracked_messages, 0, "{}: unattributed traffic", name);
}

#[test]
fn tomcatv_observed_matches_predicted() {
    let n = 12;
    let src = tomcatv::source(n, 4, 2);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let prog = &c.spmd.program;
    let (x0, y0) = tomcatv::init_mesh(n);
    let x = prog.vars.lookup("x").unwrap();
    let y = prog.vars.lookup("y").unwrap();
    check_kernel("TOMCATV", &src, move |m| {
        m.fill_real(x, &x0);
        m.fill_real(y, &y0);
    });
}

#[test]
fn dgefa_observed_matches_predicted_both_versions() {
    let n = 16;
    let src = dgefa::source(n, 4);
    let a0 = dgefa::init_matrix(n);
    for version in [Version::NoReductionAlignment, Version::SelectedAlignment] {
        let c = compile_source(&src, Options::new(version)).unwrap();
        let a = c.spmd.program.vars.lookup("a").unwrap();
        let a0 = a0.clone();
        let check = c
            .cross_check(move |m| m.fill_real(a, &a0))
            .unwrap_or_else(|e| panic!("DGEFA {:?}: cross-check failed: {}", version, e));
        assert_eq!(check.untracked_messages, 0, "DGEFA {:?}", version);
    }
}

#[test]
fn appsp_observed_matches_predicted() {
    let n = 10;
    let src = appsp::source_1d(n, 4, 1);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let prog = &c.spmd.program;
    let f0 = appsp::init_field(n);
    let rsd = prog.vars.lookup("rsd").unwrap();
    check_kernel("APPSP", &src, move |m| m.fill_real(rsd, &f0));
}

/// The headline claim: coalescing the hoisted per-element transfers of
/// TOMCATV's boundary exchange into vectorized messages strictly reduces
/// the number of messages the threaded runtime puts on channels.
#[test]
fn tomcatv_vectorization_strictly_reduces_messages() {
    let n = 12;
    let src = tomcatv::source(n, 4, 2);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let prog = &c.spmd.program;
    let (x0, y0) = tomcatv::init_mesh(n);
    let x = prog.vars.lookup("x").unwrap();
    let y = prog.vars.lookup("y").unwrap();
    let init = move |m: &mut Memory| {
        m.fill_real(x, &x0);
        m.fill_real(y, &y0);
    };
    let vec = validate_replay_opts(&c.spmd, &init, true).unwrap();
    let elem = validate_replay_opts(&c.spmd, &init, false).unwrap();
    assert!(
        vec.metrics.messages() < elem.metrics.messages(),
        "vectorized replay must send strictly fewer messages: {} vs {}",
        vec.metrics.messages(),
        elem.metrics.messages()
    );
    // The payload still arrives: same bytes-per-element, fewer envelopes.
    assert!(vec.metrics.bytes() > 0);
}
