//! Regenerates the paper's Table 2: DGEFA with the pivot-search reduction
//! scalars replicated ("Default") vs aligned per Sec. 2.3 ("Alignment").

use hpf_compile::{compile_source, Options, Version};
use hpf_kernels::dgefa;
use phpf_bench::{render, table2};

fn main() {
    // Semantic validation at a small size, plus the observed-vs-predicted
    // message cross-check on the instrumented executor.
    let n_small = 16;
    let src = dgefa::source(n_small, 4);
    for v in [Version::NoReductionAlignment, Version::SelectedAlignment] {
        let c = compile_source(&src, Options::new(v)).expect("compiles");
        let p = &c.spmd.program;
        let a0 = dgefa::init_matrix(n_small);
        let a = p.vars.lookup("a").unwrap();
        hpf_spmd::validate_against_sequential(&c.spmd, move |m| {
            m.fill_real(a, &a0);
        })
        .unwrap_or_else(|e| panic!("{}: {}", v.name(), e));
        let a0 = dgefa::init_matrix(n_small);
        let check = c
            .cross_check(move |m| m.fill_real(a, &a0))
            .unwrap_or_else(|e| panic!("{} cross-check: {}", v.name(), e));
        println!(
            "validated {:<22} (n={}, P=4): results match sequential; \
             observed {} wire messages <= predicted {:.0}",
            v.name(),
            n_small,
            check.observed_total,
            check.predicted_total
        );
    }
    // Static verification of both configurations.
    let verified = phpf_bench::verify_small(
        "DGEFA",
        &src,
        &[Version::NoReductionAlignment, Version::SelectedAlignment],
        &[("a", dgefa::init_matrix(n_small))],
    );
    println!();

    let n = 512;
    let procs = [1, 2, 4, 8, 16];
    let rows = table2(n, &procs);
    println!(
        "{}",
        render(
            &format!(
                "Table 2. Performance of DGEFA on simulated IBM SP2 (n = {}, (*,CYCLIC); model seconds)",
                n
            ),
            &["Default", "Alignment"],
            &rows,
            &procs,
        )
    );
    println!("overhead of the replicated reduction (Default - Alignment):");
    for (row, p) in rows.iter().zip(&procs) {
        let over = row[0].seconds - row[1].seconds;
        println!(
            "  P={:<3} {:.4} s  ({:.1}% of Default)",
            p,
            over,
            100.0 * over / row[0].seconds
        );
    }
    let trace = phpf_bench::pipeline_trace(
        &dgefa::source(n, 16),
        Options::new(Version::SelectedAlignment),
    )
    .expect("traced compile");
    println!(
        "{}",
        phpf_bench::bench_json("table2", "sim", &rows, &trace, &verified)
    );
}
