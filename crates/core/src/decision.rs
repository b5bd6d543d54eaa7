//! Mapping decisions: the output of the paper's algorithm.
//!
//! The phpf compiler "uses the SSA representation to associate a separate
//! mapping decision with each assignment to a scalar" (Sec. 2.2). Here,
//! without SSA form, a scalar decision is keyed by the defining
//! [`StmtId`] (one definition per statement), array decisions by `(loop, array)`, and control-flow
//! decisions by the statement.

use hpf_ir::{ArrayRef, Program, StmtId, VarId};
use std::collections::HashMap;
use std::fmt;

/// How one scalar definition is mapped.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarMapping {
    /// Default: a coherent copy everywhere. Under owner-computes the
    /// defining statement executes on all processors and every RHS operand
    /// must be made available everywhere.
    Replicated,
    /// Privatized *without alignment* (paper Sec. 2.1): no computation-
    /// partitioning guard; the statement executes on the union of
    /// processors active in the iteration, each computing a local copy
    /// from replicated operands.
    PrivateNoAlign,
    /// Privatized and aligned with a reference: the owner of
    /// `target` (evaluated at `target_stmt`'s iteration) owns the scalar.
    Aligned {
        target_stmt: StmtId,
        target: ArrayRef,
        /// Whether the target was a consumer or producer reference
        /// (reporting / ablation only — the owner is the same object).
        from_consumer: bool,
    },
    /// Reduction mapping (Sec. 2.3): replicated across `reduce_dims` of
    /// the grid, aligned with `target` in the remaining dimensions; a
    /// private temporary accumulates locally and a combine finishes it.
    Reduction {
        target_stmt: StmtId,
        target: ArrayRef,
        reduce_dims: Vec<usize>,
        /// Location variable for maxloc reductions.
        loc_var: Option<VarId>,
    },
}

impl ScalarMapping {
    pub fn is_replicated(&self) -> bool {
        matches!(self, ScalarMapping::Replicated)
    }

    pub fn is_privatized(&self) -> bool {
        !self.is_replicated()
    }

    pub fn align_target(&self) -> Option<(&ArrayRef, StmtId)> {
        match self {
            ScalarMapping::Aligned {
                target, target_stmt, ..
            }
            | ScalarMapping::Reduction {
                target, target_stmt, ..
            } => Some((target, *target_stmt)),
            _ => None,
        }
    }
}

/// How a privatizable array is mapped with respect to a loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayMappingDecision {
    /// Left as the directives mapped it (not privatized).
    Unchanged,
    /// Fully privatized w.r.t. the loop: an independent copy per processor
    /// (all grid dimensions `Private`).
    FullPrivate {
        /// Alignment target used to validate the scope (reporting).
        target: Option<(StmtId, ArrayRef)>,
    },
    /// Partially privatized (Sec. 3.2): privatized along `private_dims`,
    /// partitioned in the remaining grid dimensions according to the
    /// (array dim → grid dim) pairs in `partition`.
    PartialPrivate {
        private_dims: Vec<usize>,
        /// `(grid_dim, array_dim)` partition pairs retained.
        partition: Vec<(usize, usize)>,
        target: Option<(StmtId, ArrayRef)>,
    },
}

/// Decision for a control-flow statement (Sec. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// True when the statement's execution is privatized (it cannot
    /// transfer control outside its enclosing loop, so it contributes no
    /// computation-partitioning guard).
    pub privatized: bool,
    /// A reference whose owner set must receive any data in the control
    /// predicate: the union of processors executing control-dependent
    /// statements, represented by one of their lhs references when they
    /// all agree.
    pub exec_ref: Option<(StmtId, ArrayRef)>,
}

/// All decisions for one program under one compilation configuration.
#[derive(Debug, Clone, Default)]
pub struct Decisions {
    pub scalars: HashMap<StmtId, ScalarMapping>,
    pub arrays: HashMap<(StmtId, VarId), ArrayMappingDecision>,
    pub controls: HashMap<StmtId, ControlDecision>,
}

impl Decisions {
    /// The mapping of a scalar definition; `Replicated` when undecided.
    pub fn scalar(&self, def: StmtId) -> &ScalarMapping {
        self.scalars.get(&def).unwrap_or(&ScalarMapping::Replicated)
    }

    /// Record a scalar decision.
    pub fn set_scalar(&mut self, def: StmtId, m: ScalarMapping) {
        self.scalars.insert(def, m);
    }

    pub fn array(&self, l: StmtId, v: VarId) -> &ArrayMappingDecision {
        self.arrays
            .get(&(l, v))
            .unwrap_or(&ArrayMappingDecision::Unchanged)
    }

    pub fn control(&self, s: StmtId) -> Option<&ControlDecision> {
        self.controls.get(&s)
    }

    /// Human-readable report of the decisions (used by the compile
    /// driver's `--explain` output and by tests).
    pub fn report(&self, p: &Program) -> String {
        let mut out = String::new();
        let mut scalar_keys: Vec<_> = self.scalars.keys().copied().collect();
        scalar_keys.sort();
        for def in scalar_keys {
            let m = &self.scalars[&def];
            let var = p.stmt(def).written_var().map(|v| p.vars.name(v)).unwrap_or("?");
            out.push_str(&format!("scalar {:>8} @s{:<3} -> {}\n", var, def.0, fmt_scalar(p, m)));
        }
        let mut arr_keys: Vec<_> = self.arrays.keys().copied().collect();
        arr_keys.sort();
        for (l, v) in arr_keys {
            let m = &self.arrays[&(l, v)];
            out.push_str(&format!(
                "array  {:>8} wrt loop s{:<3} -> {}\n",
                p.vars.name(v),
                l.0,
                fmt_array(m)
            ));
        }
        let mut ctl_keys: Vec<_> = self.controls.keys().copied().collect();
        ctl_keys.sort();
        for s in ctl_keys {
            let c = &self.controls[&s];
            out.push_str(&format!(
                "ctrl   s{:<3} -> {}\n",
                s.0,
                if c.privatized { "privatized" } else { "all processors" }
            ));
        }
        out
    }
}

fn fmt_scalar(p: &Program, m: &ScalarMapping) -> String {
    match m {
        ScalarMapping::Replicated => "replicated".into(),
        ScalarMapping::PrivateNoAlign => "private (no alignment)".into(),
        ScalarMapping::Aligned {
            target,
            from_consumer,
            ..
        } => format!(
            "aligned with {} {}",
            if *from_consumer { "consumer" } else { "producer" },
            p.vars.name(target.array)
        ),
        ScalarMapping::Reduction {
            target,
            reduce_dims,
            ..
        } => format!(
            "reduction-mapped on {} (replicated over grid dims {:?})",
            p.vars.name(target.array),
            reduce_dims
        ),
    }
}

fn fmt_array(m: &ArrayMappingDecision) -> String {
    match m {
        ArrayMappingDecision::Unchanged => "unchanged".into(),
        ArrayMappingDecision::FullPrivate { .. } => "fully privatized".into(),
        ArrayMappingDecision::PartialPrivate {
            private_dims,
            partition,
            ..
        } => format!(
            "partially privatized (private grid dims {:?}, partitioned {:?})",
            private_dims, partition
        ),
    }
}

impl fmt::Display for ScalarMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarMapping::Replicated => write!(f, "Replicated"),
            ScalarMapping::PrivateNoAlign => write!(f, "PrivateNoAlign"),
            ScalarMapping::Aligned { from_consumer, .. } => {
                write!(
                    f,
                    "Aligned({})",
                    if *from_consumer { "consumer" } else { "producer" }
                )
            }
            ScalarMapping::Reduction { reduce_dims, .. } => {
                write!(f, "Reduction(dims={:?})", reduce_dims)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::{parse_program, Expr};

    #[test]
    fn defaults_and_report() {
        let p = parse_program("REAL x\nx = 1.0").unwrap();
        let def = p.body[0];
        let mut d = Decisions::default();
        assert!(d.scalar(def).is_replicated());
        d.set_scalar(def, ScalarMapping::PrivateNoAlign);
        assert!(d.scalar(def).is_privatized());
        let rep = d.report(&p);
        assert!(rep.contains("private (no alignment)"));
    }

    #[test]
    fn align_target_accessor() {
        let p = parse_program("REAL A(4)\nREAL x\nx = 1.0").unwrap();
        let (a, def) = (p.vars.lookup("a").unwrap(), p.body[0]);
        let m = ScalarMapping::Aligned {
            target_stmt: def,
            target: ArrayRef::new(a, vec![Expr::int(1)]),
            from_consumer: true,
        };
        assert_eq!(m.align_target().unwrap().1, def);
        assert!(ScalarMapping::Replicated.align_target().is_none());
    }
}
