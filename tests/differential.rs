//! Differential execution harness: for each paper kernel and processor
//! count, the sequential interpreter, the reference SPMD executor and the
//! threaded message-passing replay must all compute the same data — with
//! message vectorization on (coalesced `SendVec`/`RecvVec` schedules) and
//! off (per-element `Send`/`Recv` schedules). Vectorization must never
//! increase the number of messages actually sent over channels.

use phpf::compile::{compile_source, Compiled, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::spmd::runtime::validate_replay_opts;
use phpf::spmd::validate_against_sequential;

const PROCS: [usize; 4] = [1, 2, 4, 8];

/// Compile, check SPMD vs sequential, then replay the trace on threads in
/// both vectorization modes and check each against the reference executor.
fn differential(name: &str, src: &str, init: impl Fn(&mut Memory) + Sync) {
    let c: Compiled =
        compile_source(src, Options::new(Version::SelectedAlignment)).unwrap_or_else(|e| {
            panic!("{}: compile failed: {}", name, e)
        });
    validate_against_sequential(&c.spmd, &init)
        .unwrap_or_else(|e| panic!("{}: SPMD vs sequential: {}", name, e));
    let vec = validate_replay_opts(&c.spmd, &init, true)
        .unwrap_or_else(|e| panic!("{}: vectorized replay: {}", name, e));
    let elem = validate_replay_opts(&c.spmd, &init, false)
        .unwrap_or_else(|e| panic!("{}: per-element replay: {}", name, e));
    assert!(
        vec.metrics.messages() <= elem.metrics.messages(),
        "{}: vectorization increased channel messages: {} > {}",
        name,
        vec.metrics.messages(),
        elem.metrics.messages()
    );
    // Coalescing dedups repeat fetches of an element within a group, so
    // it can only shrink the payload volume, never grow it.
    assert!(
        vec.metrics.bytes() <= elem.metrics.bytes(),
        "{}: coalescing grew the payload volume: {} > {}",
        name,
        vec.metrics.bytes(),
        elem.metrics.bytes()
    );
}

#[test]
fn tomcatv_all_processor_counts() {
    for p in PROCS {
        let n = 10;
        let src = tomcatv::source(n, p, 2);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let (x0, y0) = tomcatv::init_mesh(n);
        let x = prog.vars.lookup("x").unwrap();
        let y = prog.vars.lookup("y").unwrap();
        differential(&format!("TOMCATV P={}", p), &src, move |m| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        });
    }
}

#[test]
fn dgefa_all_processor_counts() {
    for p in PROCS {
        let n = 12;
        let src = dgefa::source(n, p);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let a0 = dgefa::init_matrix(n);
        let a = prog.vars.lookup("a").unwrap();
        differential(&format!("DGEFA P={}", p), &src, move |m| {
            m.fill_real(a, &a0);
        });
    }
}

#[test]
fn appsp_1d_all_processor_counts() {
    for p in PROCS {
        let n = 8;
        let src = appsp::source_1d(n, p, 1);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let f0 = appsp::init_field(n);
        let rsd = prog.vars.lookup("rsd").unwrap();
        differential(&format!("APPSP 1-D P={}", p), &src, move |m| {
            m.fill_real(rsd, &f0);
        });
    }
}

#[test]
fn appsp_2d_grids() {
    for (p1, p2) in [(1usize, 1usize), (2, 1), (2, 2), (4, 2)] {
        let n = 8;
        let src = appsp::source_2d(n, p1, p2, 1);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let prog = &c.spmd.program;
        let f0 = appsp::init_field(n);
        let rsd = prog.vars.lookup("rsd").unwrap();
        differential(&format!("APPSP 2-D {}x{}", p1, p2), &src, move |m| {
            m.fill_real(rsd, &f0);
        });
    }
}

/// The default (unaligned reduction) DGEFA configuration must also stay
/// consistent across all three execution layers: the cross-check compares
/// it against the aligned version elsewhere, so both must be trustworthy.
#[test]
fn dgefa_default_version_consistent() {
    let n = 12;
    let src = dgefa::source(n, 4);
    let c = compile_source(&src, Options::new(Version::NoReductionAlignment)).unwrap();
    let prog = &c.spmd.program;
    let a0 = dgefa::init_matrix(n);
    let a = prog.vars.lookup("a").unwrap();
    let init = move |m: &mut Memory| m.fill_real(a, &a0);
    validate_against_sequential(&c.spmd, &init).unwrap();
    validate_replay_opts(&c.spmd, &init, true).unwrap();
    validate_replay_opts(&c.spmd, &init, false).unwrap();
}
