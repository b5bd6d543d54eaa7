//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! A. the consumer-unless-inner-loop-comm preference rule (Fig. 3) —
//!    compared against "always consumer";
//! B. cost-model awareness of message vectorization — the selected /
//!    producer gap as per-message latency α varies;
//! C. partial privatization's per-dimension AlignLevel restriction —
//!    Table 3's 2-D columns at one size;
//! D. reduction-dimension mapping — Table 2's overhead at one size;
//! E. automatic vs directive-driven array privatization.

use hpf_analysis::Analysis;
use hpf_comm::MachineParams;
use hpf_compile::{compile_source, Options, Version};
use hpf_dist::MappingTable;
use hpf_ir::parse_program;
use hpf_kernels::appsp;
use phpf_core::CoreConfig;

fn estimate_with(src: &str, cfg: CoreConfig, machine: &MachineParams) -> f64 {
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf_core::map_program(&p, &a, &maps, cfg);
    let sp = hpf_spmd::lower(&p, &a, &maps, d);
    hpf_spmd::costsim::estimate(&sp, &a, machine).total_s()
}

fn main() {
    let sp2 = MachineParams::sp2();

    // ---- A: consumer preference rule --------------------------------
    // Figure 1's y must fall back to a producer reference; forcing the
    // consumer (A(i+1)) leaves inner-loop communication for A(i).
    let fig1 = r#"
!HPF$ PROCESSORS P(16)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(512), B(512), C(512), D(512), E(512), F(512)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 511
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;
    let with_rule = estimate_with(fig1, CoreConfig::full(), &sp2);
    let mut cfg = CoreConfig::full();
    cfg.prefer_consumer_always = true;
    let without_rule = estimate_with(fig1, cfg, &sp2);
    println!("A. consumer-unless-inner-loop-comm rule (Figure 1, n=512, P=16):");
    println!("   with the rule (paper):      {:>10.6} s", with_rule);
    println!("   always-consumer (ablated):  {:>10.6} s", without_rule);
    println!(
        "   the Fig. 3 producer fallback is worth {:.2}x here\n",
        without_rule / with_rule
    );

    // ---- B: vectorization-aware cost model ---------------------------
    // The producer/selected gap on TOMCATV is a latency effect: it
    // collapses as per-message startup goes to zero.
    println!("B. message-startup sensitivity (TOMCATV n=129, P=16):");
    println!("   {:>12} {:>14} {:>14} {:>8}", "alpha", "producer", "selected", "ratio");
    for alpha in [40e-6, 4e-6, 0.4e-6, 0.0] {
        let mut m = sp2.clone();
        m.alpha = alpha;
        let src = hpf_kernels::tomcatv::source(129, 16, 2);
        let prod = {
            let mut c = CoreConfig::full();
            c.scalar_policy = phpf_core::ScalarPolicy::ProducerAlign;
            estimate_with(&src, c, &m)
        };
        let sel = estimate_with(&src, CoreConfig::full(), &m);
        println!(
            "   {:>10.1}us {:>14.6} {:>14.6} {:>8.1}",
            alpha * 1e6,
            prod,
            sel,
            prod / sel
        );
    }
    println!();

    // ---- C: partial privatization ------------------------------------
    let src2d = appsp::source_2d(32, 4, 4, 2);
    let part_r = compile_source(&src2d, Options::new(Version::SelectedAlignment))
        .unwrap()
        .estimate();
    let nopart_r = compile_source(&src2d, Options::new(Version::NoPartialPrivatization))
        .unwrap()
        .estimate();
    let (part, nopart) = (part_r.total_s(), nopart_r.total_s());
    println!("C. partial privatization (APPSP 2-D, n=32, P=16):");
    println!("   with partial privatization:    {:>10.4} s", part);
    println!("   without (privatization fails): {:>10.4} s", nopart);
    println!("   partial privatization is worth {:.1}x\n", nopart / part);

    // ---- D: reduction mapping ------------------------------------------
    let srcd = hpf_kernels::dgefa::source(256, 16);
    let ali_r = compile_source(&srcd, Options::new(Version::SelectedAlignment))
        .unwrap()
        .estimate();
    let def_r = compile_source(&srcd, Options::new(Version::NoReductionAlignment))
        .unwrap()
        .estimate();
    let (ali, def) = (ali_r.total_s(), def_r.total_s());
    println!("D. reduction-scalar alignment (DGEFA n=256, P=16):");
    println!("   aligned (Sec 2.3):  {:>10.4} s", ali);
    println!("   replicated:         {:>10.4} s  (+{:.1}%)\n", def, 100.0 * (def - ali) / ali);

    // ---- E: automatic vs directive privatization ----------------------
    let with_new = appsp::source_2d(16, 2, 2, 2);
    let without_new: String = with_new
        .lines()
        .filter(|l| !l.contains("INDEPENDENT"))
        .collect::<Vec<_>>()
        .join("\n");
    let directive = estimate_with(&with_new, CoreConfig::full(), &sp2);
    let auto = estimate_with(&without_new, CoreConfig::full_auto(), &sp2);
    println!("E. automatic array privatization (APPSP 2-D, n=16, P=4, no NEW clauses):");
    println!("   directive-driven:   {:>10.6} s", directive);
    println!("   inferred (auto):    {:>10.6} s", auto);
    println!(
        "   the automatic analysis recovers the directive mapping ({}% difference)",
        (100.0 * (auto - directive).abs() / directive).round()
    );
    println!();

    // ---- F: global message combining (the optimization phpf lacked) ----
    let srct = hpf_kernels::tomcatv::source(129, 16, 2);
    let plain = compile_source(&srct, Options::new(Version::SelectedAlignment)).unwrap();
    let combined = compile_source(
        &srct,
        Options::new(Version::SelectedAlignment).with_message_combining(),
    )
    .unwrap();
    println!("F. global message combining (TOMCATV n=129, P=16):");
    println!(
        "   comm ops {} -> {}; time {:>10.6} -> {:>10.6} s",
        plain.spmd.comms.len(),
        combined.spmd.comms.len(),
        plain.estimate().total_s(),
        combined.estimate().total_s()
    );
    println!();

    // ---- G: machine-generation sensitivity -----------------------------
    // The paper's Table 1 effect on 1997 vs contemporary hardware.
    println!("G. machine sensitivity (TOMCATV n=129, P=16, replication/selected):");
    for m in [MachineParams::sp2(), MachineParams::modern_cluster()] {
        let src = hpf_kernels::tomcatv::source(129, 16, 2);
        let rep = estimate_with(&src, CoreConfig::naive(), &m);
        let sel = estimate_with(&src, CoreConfig::full(), &m);
        println!(
            "   {:<32} {:>10.6} / {:>10.6} s = {:.0}x",
            m.name,
            rep,
            sel,
            rep / sel
        );
    }

    let cell = |version, r: &hpf_spmd::CostReport| phpf_bench::Cell {
        version,
        procs: 16,
        seconds: r.total_s(),
        comm_seconds: r.comm_s,
        messages: r.messages,
    };
    let rows = vec![vec![
        cell("2-D partial privatization", &part_r),
        cell("2-D no partial privatization", &nopart_r),
        cell("DGEFA aligned reduction", &ali_r),
        cell("DGEFA replicated reduction", &def_r),
    ]];
    let trace = phpf_bench::pipeline_trace(&src2d, Options::new(Version::SelectedAlignment))
        .expect("traced compile");
    // Static verification of the ablated configurations at validation
    // size.
    let verified = phpf_bench::verify_small(
        "ablations (APPSP 2-D)",
        &appsp::source_2d(6, 2, 2, 1),
        &[Version::SelectedAlignment, Version::NoPartialPrivatization],
        &[("rsd", appsp::init_field(6))],
    );
    println!(
        "{}",
        phpf_bench::bench_json("ablations", "sim", &rows, &trace, &verified)
    );
}
