//! DGEFA's partial pivoting under the Section 2.3 reduction mapping:
//! shows the maxloc confinement to the column owner, runs the threaded
//! message-passing runtime, and prints the Default vs Alignment cost.
//!
//! Run with: `cargo run --release --example dgefa_pivoting`

use phpf::compile::{compile_source, Options, Version};
use phpf::kernels::dgefa;
use phpf::spmd::runtime::validate_replay;

fn main() {
    let n = 16i64;
    let src = dgefa::source(n, 4);

    // Compile with the paper's reduction alignment and show the decisions.
    let compiled = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
    println!("{}", compiled.report());

    // The reduce op has *no* reduction grid dimensions: the pivot search
    // is confined to the processor owning column k.
    for r in &compiled.spmd.reduces {
        println!(
            "maxloc over loop s{}: reduce dims {:?} -> search confined to the column owner",
            r.loop_id.0, r.reduce_dims
        );
    }

    // Execute on the threaded runtime: one OS thread per virtual
    // processor, values moving only through `std::sync::mpsc` channels.
    // DGEFA's pivot search reads the matrix, so its ranks replay the
    // reference executor's trace instead of running node programs.
    let a0 = dgefa::init_matrix(n);
    let a = compiled.spmd.program.vars.lookup("a").unwrap();
    let replayed = validate_replay(&compiled.spmd, move |m| {
        m.fill_real(a, &a0);
    })
    .expect("threaded replay matches the reference executor");
    println!(
        "\nthreaded replay: {} messages over channels, {} events — matches reference.",
        replayed.stats.messages_sent, replayed.stats.events
    );
    println!("comm metrics: {}", replayed.metrics.to_json());

    // Table-2-style comparison at LINPACK size.
    println!("\nDGEFA n=512, simulated SP2:");
    println!("{:>6} {:>12} {:>12}", "#Procs", "Default", "Alignment");
    for p in [1usize, 2, 4, 8, 16] {
        let src = dgefa::source(512, p);
        let def = compile_source(&src, Options::new(Version::NoReductionAlignment))
            .unwrap()
            .estimate();
        let ali = compile_source(&src, Options::new(Version::SelectedAlignment))
            .unwrap()
            .estimate();
        println!("{:>6} {:>12.4} {:>12.4}", p, def.total_s(), ali.total_s());
    }
}
