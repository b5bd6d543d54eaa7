//! Human-readable compilation reports: mapping decisions, guards, the
//! placed communication schedule, the iterations each rank visits and
//! the elements each rank stores — the `--explain` view of the compiler.

use crate::Compiled;
use hpf_ir::pretty::{print_expr, stmt_text};
use hpf_ir::{Expr, HeldDim};
use hpf_spmd::{node, stores, CommData, Engine, Guard};
use std::fmt::Write;

/// Render the full report.
pub fn render(c: &Compiled) -> String {
    let p = &c.spmd.program;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== mapping decisions (grid {:?}, {} processors) ==",
        c.spmd.maps.grid.dims(),
        c.spmd.maps.grid.total()
    );
    out.push_str(&c.spmd.decisions.report(p));

    let _ = writeln!(out, "== guards ==");
    let mut ids: Vec<_> = c.spmd.guards.keys().copied().collect();
    ids.sort();
    for s in ids {
        if !p.stmt(s).is_assign() {
            continue;
        }
        let g = c.spmd.guard(s);
        let desc = match g {
            Guard::Everyone => "everyone".to_string(),
            Guard::Union => "union of active processors".to_string(),
            Guard::OwnerOf { r, free_dims } => {
                if free_dims.is_empty() {
                    format!("owner of {}(..)", p.vars.name(r.array))
                } else {
                    format!(
                        "owner of {}(..) with free grid dims {:?}",
                        p.vars.name(r.array),
                        free_dims
                    )
                }
            }
        };
        let _ = writeln!(out, "s{:<4} {}", s.0, desc);
    }

    let _ = writeln!(out, "== communication schedule ==");
    if c.spmd.comms.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for op in &c.spmd.comms {
        let what = match &op.data {
            CommData::Array(r) => format!("{}(..)", p.vars.name(r.array)),
            CommData::Scalar(v) => p.vars.name(*v).to_string(),
        };
        let place = if op.level == 0 {
            "hoisted outside all loops".to_string()
        } else if op.level < op.stmt_level {
            format!("vectorized to loop level {}", op.level)
        } else {
            "inner loop (per iteration)".to_string()
        };
        let pairs = match op.pairs_per_exec {
            Some(n) => format!("  [{} wire pair(s)/exec]", n),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "s{:<4} {:<12} {:?}  {}{}",
            op.stmt.0, what, op.pattern, place, pairs
        );
    }

    // The iterations each rank visits, as the node programs bound them.
    let _ = writeln!(out, "== local iteration sets ==");
    let loops = match node::loop_visits(&c.spmd) {
        Ok(loops) => {
            let _ = writeln!(out, "engine: {}", Engine::Node);
            loops
        }
        Err(why) => {
            let _ = writeln!(out, "engine: {}", Engine::Replay(why));
            Vec::new()
        }
    };
    for lv in loops {
        let owners = match &lv.owners {
            None => "every iteration".to_string(),
            Some(refs) => {
                let refs: Vec<String> = refs
                    .iter()
                    .map(|&r| print_expr(p, &Expr::Array(r.clone())))
                    .collect();
                format!("owner of {}", refs.join(" | "))
            }
        };
        let _ = writeln!(
            out,
            "s{:<4} {}: {}",
            lv.stmt.0,
            stmt_text(p, lv.stmt),
            owners
        );
        for d in &lv.dims {
            let _ = write!(out, "        grid dim {}:", d.g);
            for (coord, sets) in d.sets.iter().enumerate() {
                let sets: Vec<String> = sets.iter().map(set_text).collect();
                let text = if sets.is_empty() { "-".to_string() } else { sets.join(" ") };
                let _ = write!(out, " [{}:{}]", coord, text);
            }
            let _ = writeln!(out);
        }
    }

    // What each rank of the node programs allocates, from the derivation
    // its stores use.
    let _ = writeln!(out, "== rank stores ==");
    let grid = &c.spmd.maps.grid;
    let mut per_rank = vec![0u64; grid.total()];
    let stores = stores::rank_stores(&c.spmd);
    for (v, info) in p.vars.arrays() {
        let Some(shape) = info.shape() else { continue };
        let whole = shape.len() as u64 * hpf_ir::store::stored_bytes(info.ty) as u64;
        let _ = writeln!(out, "{}: {} bytes whole", info.name, whole);
        for st in stores.iter().filter(|st| st.array == v) {
            per_rank[st.pid] += st.bytes;
            let held = if st.dims.iter().zip(&shape.dims).all(|(d, &(lo, hi))| d.is_range(lo, hi)) {
                "whole".to_string()
            } else {
                let dims: Vec<String> = st.dims.iter().map(held_text).collect();
                format!("({})", dims.join(", "))
            };
            let coords = grid.coords_of(st.pid);
            let _ = writeln!(out, "  {:?} {} {} bytes", coords, held, st.bytes);
        }
    }
    let totals: Vec<String> = per_rank
        .iter()
        .enumerate()
        .map(|(pid, b)| format!("[{}] {}", pid, b))
        .collect();
    let _ = writeln!(out, "bytes per rank: {}", totals.join(" "));

    let _ = writeln!(out, "== reductions ==");
    for r in &c.spmd.reduces {
        let _ = writeln!(
            out,
            "loop s{} combine {} over grid dims {:?}",
            r.loop_id.0,
            p.vars.name(r.acc),
            r.reduce_dims
        );
    }
    out
}

/// One dimension of a rank's store: `lo:hi`, a cyclic set with its block
/// and coordinate and how many indices it holds, or a listed set.
fn held_text(d: &HeldDim) -> String {
    match *d {
        HeldDim::Range { lo, hi } if lo > hi => "-".to_string(),
        HeldDim::Range { lo, hi } => format!("{}:{}", lo, hi),
        HeldDim::Cyclic {
            lo,
            hi,
            block,
            procs,
            coord,
            len,
            ..
        } => format!("{}:{} cyclic({}) {}/{} x{}", lo, hi, block, coord, procs, len),
        HeldDim::Listed(ref v) => format!("{} listed", v.len()),
    }
}

/// A set of iterations: `a..b` for a range, `first..last:step` for a
/// cyclic set of single indices, `first..last:periodxblock` for one of
/// blocks of `block` indices every `period`.
fn set_text(set: &HeldDim) -> String {
    match *set {
        HeldDim::Range { lo, hi } => format!("{}..{}", lo, hi),
        HeldDim::Cyclic { block, procs, .. } => {
            // Held indices run in position order, up or down.
            let held = set.indices();
            let (first, last) = match (held.first(), held.last()) {
                (Some(&x), Some(&y)) => (x.min(y), x.max(y)),
                _ => return "-".to_string(),
            };
            match block {
                1 => format!("{}..{}:{}", first, last, procs),
                _ => format!("{}..{}:{}x{}", first, last, block * procs, block),
            }
        }
        HeldDim::Listed(ref v) => format!("{} listed", v.len()),
    }
}

/// Render a verifier report rustc-style: one `error[CODE]:` /
/// `warning[CODE]:` block per diagnostic, the offending statement as a
/// `-->` source line when the finding is anchored to one, witnesses as
/// `= note:` lines, and a final verdict summary.
pub fn render_diagnostics(p: &hpf_ir::Program, report: &hpf_verify::VerifyReport) -> String {
    use hpf_verify::Severity;
    let mut out = String::new();
    for d in &report.diags {
        let head = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let _ = writeln!(out, "{}[{}]: {}", head, d.code, d.message);
        if let Some(s) = d.stmt {
            let _ = writeln!(
                out,
                "  --> stmt {}: `{}`",
                s.0,
                hpf_ir::pretty::stmt_text(p, s)
            );
        }
        for n in &d.notes {
            let _ = writeln!(out, "   = note: {}", n);
        }
    }
    let v = report.verdict();
    let bit = |ok: bool| if ok { "ok" } else { "FAILED" };
    let warnings = report.diags.len() - report.error_count();
    let _ = writeln!(
        out,
        "verify: privatization {}, schedule {}, races {} ({} error(s), {} warning(s))",
        bit(v.privatization),
        bit(v.schedule),
        bit(v.races),
        report.error_count(),
        warnings
    );
    out
}

/// Render observed wire traffic from an execution next to the placed
/// communication schedule (the instrumented counterpart of [`render`]'s
/// schedule section).
pub fn render_observed(c: &Compiled, metrics: &hpf_spmd::CommMetrics) -> String {
    let p = &c.spmd.program;
    let mut out = String::new();
    let _ = writeln!(out, "== observed communication ==");
    for (i, op) in c.spmd.comms.iter().enumerate() {
        let what = match &op.data {
            CommData::Array(r) => format!("{}(..)", p.vars.name(r.array)),
            CommData::Scalar(v) => p.vars.name(*v).to_string(),
        };
        let m = metrics
            .per_op
            .get(i)
            .copied()
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "op{:<3} s{:<4} {:<12} {:<14} {:>8} msg {:>10} B {:>8} elem",
            i,
            op.stmt.0,
            what,
            op.pattern.name(),
            m.messages,
            m.bytes,
            m.elements
        );
    }
    let _ = writeln!(out, "-- per pattern --");
    for (name, ctr) in &metrics.per_pattern {
        let _ = writeln!(
            out,
            "{:<14} {:>8} msg {:>10} B",
            name, ctr.messages, ctr.bytes
        );
    }
    let _ = writeln!(
        out,
        "total: {} messages, {} bytes, {} untracked, max in flight {}",
        metrics.messages(),
        metrics.bytes(),
        metrics.untracked_messages,
        metrics.max_in_flight
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::{compile_source, Options};

    #[test]
    fn verify_clean_and_render() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
REAL A(16), B(16)
INTEGER i
REAL x
DO i = 1, 16
  x = B(i) * 2.0
  A(i) = x
END DO
"#;
        let c = compile_source(src, Options::default()).unwrap();
        let report = c.verify(|_| {});
        assert!(report.is_clean(), "{:#?}", report.diags);
        let text = c.render_diagnostics(&report);
        assert!(
            text.contains("verify: privatization ok, schedule ok, races ok"),
            "{}",
            text
        );
    }

    #[test]
    fn report_mentions_schedule_sections() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16)
INTEGER i
DO i = 1, 16
  A(i) = B(i)
END DO
"#;
        let c = compile_source(src, Options::default()).unwrap();
        let r = c.report();
        assert!(r.contains("== guards =="));
        assert!(r.contains("== communication schedule =="));
        assert!(r.contains("owner of a"), "{}", r);
        // Shrunk bounds for the block-distributed write: 4 contiguous
        // chunks of 4 iterations.
        assert!(r.contains("== local iteration sets"), "{}", r);
        assert!(r.contains("[0:1..4]"), "{}", r);
        assert!(r.contains("[3:13..16]"), "{}", r);
    }
}
