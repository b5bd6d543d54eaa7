//! Cross-crate semantic validation: every compiler version, on every
//! kernel, must compute exactly what the sequential interpreter computes —
//! privatization decisions change where data and computation live, never
//! the results. The threaded message-passing runtime must agree with the
//! reference executor.

use phpf::compile::{compile_source, Options, Version};
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::spmd::runtime::{validate_replay, validate_replay_opts};
use phpf::spmd::validate_against_sequential;

const ALL_VERSIONS: [Version; 6] = [
    Version::Replication,
    Version::ProducerAlignment,
    Version::SelectedAlignment,
    Version::NoReductionAlignment,
    Version::NoArrayPrivatization,
    Version::NoPartialPrivatization,
];

#[test]
fn tomcatv_all_versions_match_sequential() {
    let n = 10i64;
    let src = tomcatv::source(n, 4, 2);
    for v in ALL_VERSIONS {
        let c = compile_source(&src, Options::new(v)).unwrap();
        let p = &c.spmd.program;
        let (x0, y0) = tomcatv::init_mesh(n);
        let x = p.vars.lookup("x").unwrap();
        let y = p.vars.lookup("y").unwrap();
        validate_against_sequential(&c.spmd, move |m| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        })
        .unwrap_or_else(|e| panic!("tomcatv/{}: {}", v.name(), e));
    }
}

#[test]
fn dgefa_all_versions_match_sequential() {
    let n = 12i64;
    let src = dgefa::source(n, 4);
    for v in ALL_VERSIONS {
        let c = compile_source(&src, Options::new(v)).unwrap();
        let a0 = dgefa::init_matrix(n);
        let a = c.spmd.program.vars.lookup("a").unwrap();
        validate_against_sequential(&c.spmd, move |m| {
            m.fill_real(a, &a0);
        })
        .unwrap_or_else(|e| panic!("dgefa/{}: {}", v.name(), e));
    }
}

#[test]
fn appsp_both_distributions_match_sequential() {
    let n = 6i64;
    for (name, src, grid_note) in [
        ("1d", appsp::source_1d(n, 2, 1), "P(2)"),
        ("2d", appsp::source_2d(n, 2, 2, 1), "P(2,2)"),
    ] {
        for v in ALL_VERSIONS {
            let c = compile_source(&src, Options::new(v)).unwrap();
            let rsd = c.spmd.program.vars.lookup("rsd").unwrap();
            let f0 = appsp::init_field(n);
            validate_against_sequential(&c.spmd, move |m| {
                m.fill_real(rsd, &f0);
            })
            .unwrap_or_else(|e| panic!("appsp-{}/{} on {}: {}", name, v.name(), grid_note, e));
        }
    }
}

#[test]
fn threaded_replay_agrees_on_all_kernels() {
    // TOMCATV
    let n = 8i64;
    let src = tomcatv::source(n, 4, 1);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let (x0, y0) = tomcatv::init_mesh(n);
    let p = &c.spmd.program;
    let x = p.vars.lookup("x").unwrap();
    let y = p.vars.lookup("y").unwrap();
    validate_replay(&c.spmd, move |m| {
        m.fill_real(x, &x0);
        m.fill_real(y, &y0);
    })
    .expect("tomcatv threaded replay");

    // DGEFA (maxloc + swaps through channels)
    let n = 10i64;
    let src = dgefa::source(n, 4);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let a0 = dgefa::init_matrix(n);
    let a = c.spmd.program.vars.lookup("a").unwrap();
    validate_replay(&c.spmd, move |m| {
        m.fill_real(a, &a0);
    })
    .expect("dgefa threaded replay");

    // APPSP 2-D with partial privatization
    let n = 6i64;
    let src = appsp::source_2d(n, 2, 2, 1);
    let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    let rsd = c.spmd.program.vars.lookup("rsd").unwrap();
    let f0 = appsp::init_field(n);
    validate_replay(&c.spmd, move |m| {
        m.fill_real(rsd, &f0);
    })
    .expect("appsp threaded replay");
}

/// Message-count sanity: privatization must reduce cross-processor element
/// fetches on TOMCATV (the Table 1 story at the runtime level).
#[test]
fn privatization_reduces_runtime_messages() {
    let n = 10i64;
    let src = tomcatv::source(n, 4, 1);
    let (x0, y0) = tomcatv::init_mesh(n);
    let (mut stats, mut messages) = (Vec::new(), Vec::new());
    for v in [Version::Replication, Version::SelectedAlignment] {
        let c = compile_source(&src, Options::new(v)).unwrap();
        let p = &c.spmd.program;
        let x = p.vars.lookup("x").unwrap();
        let y = p.vars.lookup("y").unwrap();
        let init = |m: &mut phpf::ir::Memory| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        };
        stats.push(validate_against_sequential(&c.spmd, init).unwrap());
        // A per-element run sends one message per cross-processor fetch.
        let r = validate_replay_opts(&c.spmd, init, false).unwrap();
        messages.push(r.metrics.messages());
    }
    assert!(
        messages[1] < messages[0],
        "selected {} < replication {}",
        messages[1],
        messages[0]
    );
    assert!(stats[1].stmt_execs < stats[0].stmt_execs);
}
