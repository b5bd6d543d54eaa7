//! Regenerates the paper's Table 3: APPSP under 1-D and 2-D distributions,
//! with and without (partial) array privatization.

use hpf_compile::{compile_source, Options, Version};
use hpf_kernels::appsp;
use phpf_bench::{render, table3};

fn main() {
    // Semantic validation of all four configurations at a small size.
    let n_small = 6;
    for (name, src, v) in [
        ("1-D, no array priv", appsp::source_1d(n_small, 2, 1), Version::NoArrayPrivatization),
        ("1-D, priv", appsp::source_1d(n_small, 2, 1), Version::SelectedAlignment),
        ("2-D, no partial priv", appsp::source_2d(n_small, 2, 2, 1), Version::NoPartialPrivatization),
        ("2-D, partial priv", appsp::source_2d(n_small, 2, 2, 1), Version::SelectedAlignment),
    ] {
        let c = compile_source(&src, Options::new(v)).expect("compiles");
        let p = &c.spmd.program;
        let rsd = p.vars.lookup("rsd").unwrap();
        let f0 = appsp::init_field(n_small);
        hpf_spmd::validate_against_sequential(&c.spmd, move |m| {
            m.fill_real(rsd, &f0);
        })
        .unwrap_or_else(|e| panic!("{}: {}", name, e));
        println!("validated {:<22} (n={}): results match sequential", name, n_small);
    }
    // Static verification of every configuration under both distributions.
    let v1 = phpf_bench::verify_small(
        "APPSP 1-D",
        &appsp::source_1d(n_small, 2, 1),
        &[Version::NoArrayPrivatization, Version::SelectedAlignment],
        &[("rsd", appsp::init_field(n_small))],
    );
    let v2 = phpf_bench::verify_small(
        "APPSP 2-D",
        &appsp::source_2d(n_small, 2, 2, 1),
        &[Version::NoPartialPrivatization, Version::SelectedAlignment],
        &[("rsd", appsp::init_field(n_small))],
    );
    let verified = hpf_verify::VerifyVerdict {
        privatization: v1.privatization && v2.privatization,
        schedule: v1.schedule && v2.schedule,
        races: v1.races && v2.races,
    };
    println!();

    // The paper's configuration: n = 64; square processor counts so the
    // 2-D grid is well formed.
    let n = 64;
    let niter = 10;
    let procs = [1, 4, 16];
    let rows = table3(n, niter, &procs);
    println!(
        "{}",
        render(
            &format!(
                "Table 3. Performance of APPSP on simulated IBM SP2 (n = {}, {} iterations; model seconds)",
                n, niter
            ),
            &[
                "1-D, No Array Priv.",
                "1-D, Priv.",
                "2-D, No Partial Priv.",
                "2-D, Partial Priv.",
            ],
            &rows,
            &procs,
        )
    );

    let trace = phpf_bench::pipeline_trace(
        &appsp::source_1d(n, 16, niter),
        Options::new(Version::SelectedAlignment),
    )
    .expect("traced compile");
    println!(
        "{}",
        phpf_bench::bench_json("table3", "sim", &rows, &trace, &verified)
    );

    // Extension beyond the paper: a fixed 3-D distribution (the layout the
    // paper's citation [15] reports as the best hand-tuned one) — partial
    // privatization with TWO partitioned grid dimensions.
    println!("Extension: 3-D distribution with partial privatization (n = {}, {} iters):", n, niter);
    for (p, dims) in [(8usize, (2usize, 2usize, 2usize)), (27, (3, 3, 3))] {
        let src = appsp::source_3d(n, dims.0, dims.1, dims.2, niter);
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let r = c.estimate();
        println!("  P={:<3} ({}x{}x{})  {:>10.4} s", p, dims.0, dims.1, dims.2, r.total_s());
    }
}
