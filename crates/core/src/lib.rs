//! # phpf-core
//!
//! The paper's contribution: a framework for mapping privatized scalar and
//! array variables under data-driven (owner-computes) parallelization —
//! Gupta, *"On Privatization of Variables for Data-Parallel Execution"*,
//! IPPS 1997.
//!
//! * [`decision`] — the mapping-decision vocabulary (replicated /
//!   privatized without alignment / consumer or producer alignment /
//!   reduction mapping; full and partial array privatization; privatized
//!   control flow);
//! * [`consumer`] — consumer-reference determination (Sec. 2.1, Fig. 2);
//! * [`mapping`] — `DetermineMapping` for scalars (Sec. 2.2, Fig. 3) with
//!   the three policies of Table 1;
//! * [`reductionmap`] — reduction scalars (Sec. 2.3);
//! * [`array`](mod@array) — array privatization and *partial privatization*
//!   (Secs. 3.1–3.2, Fig. 6);
//! * [`controlflow`] — privatized execution of control flow (Sec. 4,
//!   Fig. 7);
//! * [`expand`] — scalar expansion, the related-work alternative the
//!   paper's Sec. 6 contrasts against (for measuring the trade-off).
//!
//! [`map_program`] runs all passes in the paper's order and returns the
//! combined [`Decisions`].

pub mod array;
pub mod consumer;
pub mod controlflow;
pub mod decision;
pub mod expand;
pub mod mapping;
pub mod reductionmap;

pub use array::{map_arrays, map_arrays_with, realize_mapping};
pub use consumer::{consumers_for_use, ConsumerRef};
pub use controlflow::map_control_flow;
pub use decision::{ArrayMappingDecision, ControlDecision, Decisions, ScalarMapping};
pub use expand::expand_scalar;
pub use mapping::{CoreConfig, ScalarPolicy};
pub use reductionmap::map_reductions;

use hpf_analysis::Analysis;
use hpf_dist::MappingTable;
use hpf_ir::Program;

/// Run the whole mapping phase: reductions first (their decisions feed the
/// scalar pass as already-mapped definitions), then scalars, arrays and
/// control flow.
pub fn map_program(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    cfg: CoreConfig,
) -> Decisions {
    let mut d = Decisions::default();
    if cfg.reduction_align {
        map_reductions(p, a, maps, &mut d);
    }
    let mut mapper = mapping::ScalarMapper::new(p, a, maps, cfg);
    mapper.run(&mut d);
    if cfg.array_priv {
        array::map_arrays_with(p, a, maps, cfg.partial_priv, cfg.auto_array_priv, &mut d);
    }
    if cfg.privatize_control {
        map_control_flow(p, a, maps, &mut d);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    #[test]
    fn full_pipeline_produces_report() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20), D(20), E(20), F(20)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = map_program(&p, &a, &maps, CoreConfig::full());
        let report = d.report(&p);
        assert!(report.contains("aligned with consumer d"), "{}", report);
        assert!(report.contains("aligned with producer"), "{}", report);
        assert!(report.contains("private (no alignment)"), "{}", report);
    }
}
