//! No-false-positive guarantee on the paper's kernels: every schedule
//! the pipeline produces for TOMCATV, DGEFA and APPSP — under every
//! compiler version, with and without message combining, and under
//! both BLOCK and CYCLIC distributions of the partitioned dimension —
//! must verify clean. The default configuration's verdicts are pinned
//! with the schedule they checked: TOMCATV and APPSP the node programs',
//! DGEFA the reference executor's.

use hpf_analysis::Analysis;
use hpf_dist::MappingTable;
use hpf_ir::parse_program;
use hpf_kernels::{appsp, dgefa, tomcatv};
use hpf_spmd::{Engine, SpmdProgram};
use hpf_verify::{Severity, VerifyReport};
use phpf_core::{CoreConfig, ScalarPolicy};

fn compile(src: &str, cfg: CoreConfig, combine: bool) -> SpmdProgram {
    let p = parse_program(src).expect("kernel parses");
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).expect("kernel maps");
    let d = phpf_core::map_program(&p, &a, &maps, cfg);
    let mut sp = hpf_spmd::lower(&p, &a, &maps, d);
    if combine {
        hpf_spmd::combine_messages(&mut sp, &a);
    }
    sp
}

fn configs() -> Vec<CoreConfig> {
    let mut producer = CoreConfig::full();
    producer.scalar_policy = ScalarPolicy::ProducerAlign;
    let mut no_red = CoreConfig::full();
    no_red.reduction_align = false;
    vec![
        CoreConfig::full(),
        CoreConfig::full_auto(),
        CoreConfig::naive(),
        producer,
        no_red,
    ]
}

/// Verify `src` clean under every config, initializing the named REAL
/// arrays with the given data.
fn assert_clean(src: &str, init_data: &[(&str, Vec<f64>)], what: &str) {
    for (ci, cfg) in configs().into_iter().enumerate() {
        for combine in [false, true] {
            let sp = compile(src, cfg, combine);
            let vars: Vec<(hpf_ir::VarId, &Vec<f64>)> = init_data
                .iter()
                .map(|(name, data)| {
                    (
                        sp.program.vars.lookup(name).unwrap_or_else(|| {
                            panic!("{}: kernel has no variable {}", what, name)
                        }),
                        data,
                    )
                })
                .collect();
            let report = hpf_verify::verify_execution(&sp, |m| {
                for (v, data) in &vars {
                    m.fill_real(*v, data);
                }
            });
            assert!(
                report.is_clean(),
                "{} (config {}, combine={}) raised: {:#?}",
                what,
                ci,
                combine,
                report.diags
            );
            assert!(report.verdict().all_ok());
        }
    }
}

#[test]
fn tomcatv_block_verifies_clean() {
    let n = 12;
    let src = tomcatv::source(n, 4, 2);
    let (x0, y0) = tomcatv::init_mesh(n);
    assert_clean(&src, &[("x", x0), ("y", y0)], "TOMCATV (BLOCK)");
}

#[test]
fn tomcatv_cyclic_verifies_clean() {
    let n = 12;
    let src = tomcatv::source(n, 4, 2).replace("(*, BLOCK)", "(*, CYCLIC)");
    assert!(src.contains("CYCLIC"), "distribution rewrite applied");
    let (x0, y0) = tomcatv::init_mesh(n);
    assert_clean(&src, &[("x", x0), ("y", y0)], "TOMCATV (CYCLIC)");
}

#[test]
fn dgefa_cyclic_verifies_clean() {
    let n = 16;
    let src = dgefa::source(n, 4);
    assert_clean(&src, &[("a", dgefa::init_matrix(n))], "DGEFA (CYCLIC)");
}

#[test]
fn dgefa_block_verifies_clean() {
    let n = 16;
    let src = dgefa::source(n, 4).replace("(*, CYCLIC)", "(*, BLOCK)");
    assert!(src.contains("BLOCK"), "distribution rewrite applied");
    assert_clean(&src, &[("a", dgefa::init_matrix(n))], "DGEFA (BLOCK)");
}

#[test]
fn appsp_block_verifies_clean() {
    let n = 6;
    let src = appsp::source_1d(n, 4, 1);
    assert_clean(&src, &[("rsd", appsp::init_field(n))], "APPSP 1-D (BLOCK)");
}

#[test]
fn appsp_cyclic_verifies_clean() {
    let n = 6;
    let src = appsp::source_1d(n, 4, 1)
        .replace("(*, *, *, BLOCK)", "(*, *, *, CYCLIC)")
        .replace("(*, *, BLOCK, *)", "(*, *, CYCLIC, *)");
    assert!(src.contains("CYCLIC"), "distribution rewrite applied");
    assert_clean(&src, &[("rsd", appsp::init_field(n))], "APPSP 1-D (CYCLIC)");
}

#[test]
fn appsp_2d_verifies_clean() {
    let n = 6;
    let src = appsp::source_2d(n, 2, 2, 1);
    assert_clean(&src, &[("rsd", appsp::init_field(n))], "APPSP 2-D");
}

/// Verify `src` under the default configuration, filling `array` with
/// `data`.
fn verify_default(src: &str, array: &str, data: &[f64]) -> (SpmdProgram, VerifyReport) {
    let sp = compile(src, CoreConfig::full(), false);
    let v = sp.program.vars.lookup(array).expect("kernel array");
    let report = hpf_verify::verify_execution(&sp, |m| m.fill_real(v, data));
    (sp, report)
}

fn warnings(report: &VerifyReport) -> Vec<&hpf_verify::Diagnostic> {
    report
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .collect()
}

#[test]
fn tomcatv_and_appsp_verify_as_node_programs_without_warnings() {
    let n = 12;
    let (x0, _) = tomcatv::init_mesh(n);
    let cases = [
        ("TOMCATV", tomcatv::source(n, 4, 2), "x", x0),
        ("APPSP 1-D", appsp::source_1d(6, 4, 1), "rsd", appsp::init_field(6)),
        ("APPSP 2-D", appsp::source_2d(6, 2, 2, 1), "rsd", appsp::init_field(6)),
    ];
    for (what, src, array, data) in cases {
        let (sp, report) = verify_default(&src, array, &data);
        assert_eq!(hpf_spmd::engine(&sp), Engine::Node, "{what}: verified schedule");
        assert!(report.is_clean(), "{what}: {:#?}", report.diags);
        assert!(warnings(&report).is_empty(), "{what}: {:#?}", report.diags);
    }
}

#[test]
fn dgefa_verifies_on_the_executor_with_one_r200_at_the_pivot_row_write() {
    let n = 16;
    let (sp, report) = verify_default(&dgefa::source(n, 4), "a", &dgefa::init_matrix(n));
    assert!(
        matches!(hpf_spmd::engine(&sp), Engine::Replay(_)),
        "DGEFA falls back to the executor's schedule"
    );
    assert!(report.is_clean(), "{:#?}", report.diags);
    let warned = warnings(&report);
    assert_eq!(warned.len(), 1, "{:#?}", report.diags);
    assert_eq!(warned[0].code, "R200");
    let stmt = warned[0].stmt.expect("the R200 names its statement");
    assert_eq!(
        hpf_ir::pretty::stmt_text(&sp.program, stmt),
        "a(l,j) = a(k,j)",
        "the pivot-row write"
    );
}
