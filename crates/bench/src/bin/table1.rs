//! Regenerates the paper's Table 1: TOMCATV on the simulated SP2 under the
//! three scalar-mapping policies, with a small-size semantic validation of
//! every configuration against the sequential interpreter.

use hpf_compile::{compile_source, Options, Version};
use hpf_kernels::tomcatv;
use phpf_bench::{render, table1};

fn main() {
    // Semantic validation at a small size first: all three versions must
    // compute the same mesh as the sequential program.
    let n_small = 12;
    let src = tomcatv::source(n_small, 4, 2);
    for v in [
        Version::Replication,
        Version::ProducerAlignment,
        Version::SelectedAlignment,
    ] {
        let c = compile_source(&src, Options::new(v)).expect("compiles");
        let p = &c.spmd.program;
        let (x0, y0) = tomcatv::init_mesh(n_small);
        let x = p.vars.lookup("x").unwrap();
        let y = p.vars.lookup("y").unwrap();
        hpf_spmd::validate_against_sequential(&c.spmd, move |m| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        })
        .unwrap_or_else(|e| panic!("{}: {}", v.name(), e));
        println!("validated {:<22} (n={}, P=4): results match sequential", v.name(), n_small);
    }
    // Static verification of every configuration.
    let (x0, y0) = tomcatv::init_mesh(n_small);
    let verified = phpf_bench::verify_small(
        "TOMCATV",
        &src,
        &[
            Version::Replication,
            Version::ProducerAlignment,
            Version::SelectedAlignment,
        ],
        &[("x", x0), ("y", y0)],
    );
    println!();

    // The paper's configuration: n = 513, 16 thin nodes.
    let n = 513;
    let niter = 10;
    let procs = [1, 2, 4, 8, 16];
    let rows = table1(n, niter, &procs);
    println!(
        "{}",
        render(
            &format!(
                "Table 1. Performance of TOMCATV on simulated IBM SP2 (n = {}, {} iterations; model seconds)",
                n, niter
            ),
            &["Replication", "Producer Alignment", "Selected Alignment"],
            &rows,
            &procs,
        )
    );
    let ratio = rows.last().unwrap()[0].seconds / rows.last().unwrap()[2].seconds;
    println!(
        "replication / selected at P=16: {:.0}x  (paper: \"more than two orders of magnitude\")",
        ratio
    );
    let trace = phpf_bench::pipeline_trace(
        &tomcatv::source(n, 16, niter),
        Options::new(Version::SelectedAlignment),
    )
    .expect("traced compile");
    println!(
        "{}",
        phpf_bench::bench_json("table1", "sim", &rows, &trace, &verified)
    );
}
