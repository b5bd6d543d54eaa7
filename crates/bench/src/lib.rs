//! # phpf-bench
//!
//! The benchmark harness regenerating the paper's evaluation:
//!
//! * [`table1`] — TOMCATV under the three scalar-mapping policies;
//! * [`table2`] — DGEFA with and without reduction alignment;
//! * [`table3`] — APPSP: 1-D/2-D distributions × array/partial
//!   privatization.
//!
//! Each table function returns structured rows; the `table1`/`table2`/
//! `table3` binaries print them in the paper's layout, followed by one
//! [`bench_json`] line.

use hpf_compile::{compile_source, Options, Version};
use hpf_kernels::{appsp, dgefa, tomcatv};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    pub version: &'static str,
    pub procs: usize,
    pub seconds: f64,
    pub comm_seconds: f64,
    pub messages: f64,
}

/// Simulated execution time of a program under a compiler version.
pub fn simulate(src: &str, version: Version, grid: Option<Vec<usize>>) -> Cell {
    let mut opts = Options::new(version);
    if let Some(g) = grid.clone() {
        opts = opts.with_grid(g);
    }
    let compiled = compile_source(src, opts).expect("kernel compiles");
    let r = compiled.estimate();
    Cell {
        version: version.name(),
        procs: compiled.spmd.maps.grid.total(),
        seconds: r.total_s(),
        comm_seconds: r.comm_s,
        messages: r.messages,
    }
}

/// Table 1: TOMCATV (n×n mesh, `niter` outer iterations) at each
/// processor count under replication / producer alignment / selected
/// alignment.
pub fn table1(n: i64, niter: i64, procs: &[usize]) -> Vec<Vec<Cell>> {
    procs
        .iter()
        .map(|&p| {
            let src = tomcatv::source(n, p, niter);
            vec![
                simulate(&src, Version::Replication, None),
                simulate(&src, Version::ProducerAlignment, None),
                simulate(&src, Version::SelectedAlignment, None),
            ]
        })
        .collect()
}

/// Table 2: DGEFA (n×n, cyclic columns) with the reduction variable
/// replicated ("Default") vs aligned ("Alignment").
pub fn table2(n: i64, procs: &[usize]) -> Vec<Vec<Cell>> {
    procs
        .iter()
        .map(|&p| {
            let src = dgefa::source(n, p);
            vec![
                simulate(&src, Version::NoReductionAlignment, None),
                simulate(&src, Version::SelectedAlignment, None),
            ]
        })
        .collect()
}

/// Table 3: APPSP (n³ grid, `niter` iterations): 1-D distribution with
/// and without array privatization; 2-D distribution with and without
/// partial privatization. `procs` entries must be perfect squares for
/// the 2-D rows (the grid is √P × √P).
pub fn table3(n: i64, niter: i64, procs: &[usize]) -> Vec<Vec<Cell>> {
    procs
        .iter()
        .map(|&p| {
            let src1 = appsp::source_1d(n, p, niter);
            let side = (p as f64).sqrt().round() as usize;
            assert_eq!(side * side, p, "2-D rows need square processor counts");
            let src2 = appsp::source_2d(n, side, side, niter);
            vec![
                simulate(&src1, Version::NoArrayPrivatization, None),
                simulate(&src1, Version::SelectedAlignment, None),
                simulate(&src2, Version::NoPartialPrivatization, None),
                simulate(&src2, Version::SelectedAlignment, None),
            ]
        })
        .collect()
}

/// Render rows as an aligned text table.
pub fn render(title: &str, header: &[&str], rows: &[Vec<Cell>], procs: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{}", title);
    let _ = write!(out, "{:>6}", "#Procs");
    for h in header {
        let _ = write!(out, " {:>24}", h);
    }
    let _ = writeln!(out);
    for (row, &p) in rows.iter().zip(procs) {
        let _ = write!(out, "{:>6}", p);
        for c in row {
            let _ = write!(out, " {:>24}", format_seconds(c.seconds));
        }
        let _ = writeln!(out);
    }
    out
}

/// Machine-readable benchmark results: a single line starting with
/// `BENCH_JSON` so driver scripts can grep it out of the human-readable
/// table text. One object per measured cell.
///
/// `backend` names the execution vehicle that produced the numbers so
/// scripts can tell apart cost-model simulations (`"sim"`, what the
/// table binaries emit) from real replays (`"thread"` / `"socket"`,
/// the `phpfc --backend` names).
///
/// The `"trace"` field carries the pipeline phase spans (name +
/// wall-clock microseconds) that produced the numbers, so a BENCH_JSON
/// consumer can attribute compile-side cost without parsing a separate
/// file; `"verified":{"privatization":…,"schedule":…,"races":…}` carries
/// the verifier's verdict on the configurations at validation size.
pub fn bench_json(
    table: &str,
    backend: &str,
    rows: &[Vec<Cell>],
    trace: &hpf_obs::Trace,
    verified: &hpf_verify::VerifyVerdict,
) -> String {
    let mut out = format!(
        "BENCH_JSON {{\"table\":\"{}\",\"backend\":\"{}\",\"cells\":[",
        table, backend
    );
    let mut first = true;
    for row in rows {
        for c in row {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"version\":\"{}\",\"procs\":{},\"seconds\":{},\"comm_seconds\":{},\"messages\":{}}}",
                c.version, c.procs, c.seconds, c.comm_seconds, c.messages
            ));
        }
    }
    out.push(']');
    out.push_str(",\"trace\":");
    out.push_str(&trace.span_summary_json());
    out.push_str(",\"verified\":");
    out.push_str(&verified.to_json());
    out.push('}');
    out
}

/// Run the static verifier on `src` compiled under each version at the
/// (small) validation size, initializing the named REAL arrays. Panics
/// with rendered diagnostics on any error — benchmark numbers from a
/// program whose schedule fails verification are meaningless. Returns
/// the (all-ok) verdict for embedding in BENCH_JSON.
pub fn verify_small(
    what: &str,
    src: &str,
    versions: &[Version],
    init_data: &[(&str, Vec<f64>)],
) -> hpf_verify::VerifyVerdict {
    let mut verdict = hpf_verify::VerifyVerdict {
        privatization: true,
        schedule: true,
        races: true,
    };
    for &v in versions {
        let c = compile_source(src, Options::new(v)).expect("kernel compiles");
        let vars: Vec<(hpf_ir::VarId, &Vec<f64>)> = init_data
            .iter()
            .map(|(name, data)| {
                let id = c.spmd.program.vars.lookup(name).unwrap_or_else(|| {
                    panic!("{}: kernel has no variable {}", what, name)
                });
                (id, data)
            })
            .collect();
        let report = c.verify(|m| {
            for (id, data) in &vars {
                m.fill_real(*id, data);
            }
        });
        if !report.is_clean() {
            panic!(
                "{} ({}): verification failed\n{}",
                what,
                v.name(),
                c.render_diagnostics(&report)
            );
        }
        let rv = report.verdict();
        verdict.privatization &= rv.privatization;
        verdict.schedule &= rv.schedule;
        verdict.races &= rv.races;
        println!(
            "verified  {:<22} (small size): privatization ok, schedule ok, races ok",
            v.name()
        );
    }
    verdict
}

/// Compile `src` once with pipeline tracing on and return the resulting
/// phase-span trace (parse / ssa / mapping / privatization / lower). The
/// table binaries attach this to their BENCH_JSON line so the compile-side
/// cost of the benchmarked configuration is visible next to the model
/// numbers.
pub fn pipeline_trace(src: &str, options: Options) -> Result<hpf_obs::Trace, String> {
    let mut tracer = hpf_obs::BufTracer::pipeline();
    hpf_compile::compile_source_traced(src, options, &mut tracer)?;
    Ok(hpf_obs::Trace::from_pipeline(tracer.into_events()))
}

/// Seconds with adaptive precision (matches the flavor of the paper's
/// tables, which mix sub-second and multi-hour entries).
pub fn format_seconds(s: f64) -> String {
    if s >= 86_400.0 {
        format!("> {:.1} day(s)", s / 86_400.0)
    } else if s >= 100.0 {
        format!("{:.0}", s)
    } else if s >= 1.0 {
        format!("{:.2}", s)
    } else {
        format!("{:.4}", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting_bands() {
        assert_eq!(format_seconds(0.1234567), "0.1235");
        assert_eq!(format_seconds(5.2193), "5.22");
        assert_eq!(format_seconds(423.4), "423");
        assert!(format_seconds(100_000.0).starts_with("> 1.2 day"));
    }

    #[test]
    fn render_layout() {
        let cell = |s: f64| Cell {
            version: "x",
            procs: 4,
            seconds: s,
            comm_seconds: 0.0,
            messages: 0.0,
        };
        let rows = vec![vec![cell(1.0), cell(2.0)], vec![cell(3.0), cell(4.0)]];
        let out = render("T", &["A", "B"], &rows, &[4, 16]);
        assert!(out.contains("T"));
        assert!(out.contains("#Procs"));
        assert!(out.lines().count() >= 4);
        assert!(out.contains("3.00"));
    }

    #[test]
    fn bench_json_carries_backend() {
        let rows = vec![vec![Cell {
            version: "selected alignment",
            procs: 4,
            seconds: 1.5,
            comm_seconds: 0.5,
            messages: 12.0,
        }]];
        let verdict = hpf_verify::VerifyVerdict {
            privatization: true,
            schedule: true,
            races: true,
        };
        let line = bench_json("table1", "sim", &rows, &hpf_obs::Trace::default(), &verdict);
        assert!(line.starts_with("BENCH_JSON {"));
        assert!(line.contains("\"backend\":\"sim\""), "{}", line);
        assert!(line.contains("\"table\":\"table1\""), "{}", line);
        assert!(line.contains("\"procs\":4"), "{}", line);
    }

    #[test]
    fn bench_json_trace_field() {
        let rows = vec![vec![Cell {
            version: "selected alignment",
            procs: 4,
            seconds: 1.5,
            comm_seconds: 0.5,
            messages: 12.0,
        }]];
        let src = hpf_kernels::tomcatv::source(12, 4, 1);
        let trace = pipeline_trace(&src, Options::default()).unwrap();
        let verdict = hpf_verify::VerifyVerdict {
            privatization: true,
            schedule: false,
            races: true,
        };
        let line = bench_json("table1", "sim", &rows, &trace, &verdict);
        assert!(line.starts_with("BENCH_JSON {"), "{}", line);
        assert!(line.contains("\"trace\":{\"spans\":["), "{}", line);
        for phase in ["parse", "ssa", "mapping", "privatization", "lower"] {
            assert!(
                line.contains(&format!("\"name\":\"{}\"", phase)),
                "missing {} span: {}",
                phase,
                line
            );
        }
        assert!(
            line.contains("\"verified\":{\"privatization\":true,\"schedule\":false,\"races\":true}"),
            "{}",
            line
        );
    }

    /// Table 1's qualitative content at a reduced size: selected <
    /// producer < replication at every processor count > 1, and selected
    /// speeds up with processors.
    #[test]
    fn table1_shape() {
        let procs = [1, 4, 16];
        let rows = table1(65, 2, &procs);
        for (row, &p) in rows.iter().zip(&procs) {
            let (rep, prod, sel) = (&row[0], &row[1], &row[2]);
            if p > 1 {
                // Selected alignment beats both baselines decisively (the
                // paper does not fix the replication/producer order; both
                // are "extremely poor" / "substantial loss").
                assert!(sel.seconds * 10.0 < prod.seconds, "P={}: {:?}", p, row);
                assert!(sel.seconds * 10.0 < rep.seconds, "P={}: {:?}", p, row);
            }
        }
        // Selected alignment scales.
        assert!(rows[2][2].seconds < rows[0][2].seconds);
        // Two orders of magnitude at P=16 (the paper's headline: "more
        // than two orders of magnitude on 16 processors").
        let ratio = rows[2][0].seconds / rows[2][2].seconds;
        assert!(ratio > 50.0, "replication/selected = {:.1}", ratio);
        let ratio_p = rows[2][1].seconds / rows[2][2].seconds;
        assert!(ratio_p > 50.0, "producer/selected = {:.1}", ratio_p);
    }

    /// Table 2: the default's extra communication cost is roughly
    /// constant in P while the aligned version's total keeps shrinking.
    #[test]
    fn table2_shape() {
        let procs = [2, 4, 8, 16];
        let rows = table2(128, &procs);
        for (row, &p) in rows.iter().zip(&procs) {
            let (def, ali) = (&row[0], &row[1]);
            assert!(ali.seconds <= def.seconds, "P={}: {:?}", p, row);
        }
        // Overhead (default - aligned) roughly constant: within 4x across
        // the P range while total time drops.
        let overheads: Vec<f64> = rows
            .iter()
            .map(|r| (r[0].seconds - r[1].seconds).max(1e-9))
            .collect();
        let min_o = overheads.iter().cloned().fold(f64::MAX, f64::min);
        let maxo = overheads.iter().cloned().fold(0.0, f64::max);
        assert!(maxo / min_o < 5.0, "overheads {:?}", overheads);
        // The overhead accounts for an increasing share of execution.
        let share_first = overheads[0] / rows[0][0].seconds;
        let share_last = overheads[3] / rows[3][0].seconds;
        assert!(share_last > share_first, "{} vs {}", share_first, share_last);
    }

    /// Table 3: privatization is the difference between feasible and
    /// catastrophic; 2-D partial privatization beats 2-D without; the
    /// 2-D version starts competitive (no transpose).
    #[test]
    fn table3_shape() {
        let procs = [4, 16];
        let rows = table3(32, 2, &procs);
        for (row, &p) in rows.iter().zip(&procs) {
            let (d1_nopriv, d1_priv, d2_nopart, d2_part) =
                (&row[0], &row[1], &row[2], &row[3]);
            assert!(
                d1_nopriv.seconds / d1_priv.seconds > 5.0,
                "P={}: array privatization must be decisive: {:?}",
                p,
                row
            );
            assert!(
                d2_part.seconds < d2_nopart.seconds,
                "P={}: partial privatization wins: {:?}",
                p,
                row
            );
        }
    }
}
