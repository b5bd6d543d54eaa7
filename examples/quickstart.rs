//! Quickstart: compile a small HPF program under the paper's algorithm,
//! inspect the mapping decisions, check the SPMD semantics against the
//! sequential interpreter, and print the simulated SP2 cost.
//!
//! Run with: `cargo run --example quickstart`

use phpf::compile::{compile_source, Options, Version};
use phpf::spmd::validate_against_sequential;

fn main() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(64), B(64), C(64), D(64), E(64), F(64)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 63
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;

    println!("=== the paper's Figure 1, compiled with selected alignment ===\n");
    let compiled = compile_source(src, Options::new(Version::SelectedAlignment))
        .expect("program compiles");
    println!("{}", compiled.report());

    // Semantics: the privatized SPMD program must equal the sequential one.
    let p = &compiled.spmd.program;
    let arrays: Vec<_> = ["a", "b", "c", "e", "f"]
        .iter()
        .map(|n| p.vars.lookup(n).unwrap())
        .collect();
    let stats = validate_against_sequential(&compiled.spmd, |mem| {
        for &v in &arrays {
            let data: Vec<f64> = (0..64).map(|k| 1.0 + 0.01 * k as f64).collect();
            mem.fill_real(v, &data);
        }
    })
    .expect("SPMD results match sequential execution");
    println!(
        "SPMD execution validated against sequential semantics \
         ({} statement instances over all processors).\n",
        stats.stmt_execs
    );

    // Cost on the simulated SP2, across the paper's three policies.
    println!("simulated SP2 time for this loop nest:");
    for v in [
        Version::Replication,
        Version::ProducerAlignment,
        Version::SelectedAlignment,
    ] {
        let c = compile_source(src, Options::new(v)).unwrap();
        let r = c.estimate();
        println!(
            "  {:<22} {:>10.6} s  (comm {:>10.6} s, {:>6.0} messages)",
            v.name(),
            r.total_s(),
            r.comm_s,
            r.messages
        );
    }
}
