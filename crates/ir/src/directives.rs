//! HPF data-mapping and parallelism directives.
//!
//! The subset modelled is the one exercised by the paper:
//! `PROCESSORS`, `DISTRIBUTE (fmt, ...) :: arrays`, `ALIGN x(...) WITH y(...)`
//! and `INDEPENDENT[, NEW(vars)]` on `DO` loops. A weaker "no value-based
//! loop-carried dependences" assertion (`no_value_deps`) is also supported,
//! matching phpf's ability to infer array privatizability from it
//! (Section 3.1 of the paper).

use crate::program::VarId;
use crate::stmt::StmtId;
use std::collections::HashMap;

/// `!HPF$ PROCESSORS P(d1, d2, ...)` — the (virtual) processor grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGridDecl {
    pub name: String,
    pub dims: Vec<usize>,
}

impl ProcGridDecl {
    pub fn new(name: impl Into<String>, dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0));
        ProcGridDecl {
            name: name.into(),
            dims,
        }
    }

    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// Per-array-dimension distribution format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistFormat {
    /// `BLOCK` — contiguous equal chunks.
    Block,
    /// `CYCLIC` — round-robin single elements.
    Cyclic,
    /// `CYCLIC(k)` — round-robin blocks of `k`.
    BlockCyclic(usize),
    /// `*` — dimension not distributed (collapsed onto one processor set).
    Collapsed,
}

impl DistFormat {
    pub fn is_distributed(self) -> bool {
        !matches!(self, DistFormat::Collapsed)
    }
}

/// `!HPF$ DISTRIBUTE (f1, ..., fk) :: A` — distribution of an array's
/// dimensions over the processor grid. Distributed dimensions are assigned
/// to grid dimensions in order of appearance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributeDirective {
    pub array: VarId,
    pub formats: Vec<DistFormat>,
}

/// One dimension of an `ALIGN` directive's target reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignDim {
    /// Target dimension tracks alignee dimension `alignee_dim` as
    /// `stride * i + offset`.
    Match {
        alignee_dim: usize,
        stride: i64,
        offset: i64,
    },
    /// `*` in the target: the alignee is replicated along this target
    /// dimension.
    Replicate,
    /// A constant position in the target dimension.
    Const(i64),
}

/// `!HPF$ ALIGN B(i) WITH A(i, *)` — alignment of `alignee` with `target`.
/// `dims[d]` describes target dimension `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignDirective {
    pub alignee: VarId,
    pub target: VarId,
    pub dims: Vec<AlignDim>,
}

impl AlignDirective {
    /// The identity alignment of a rank-`r` alignee with a rank-`r` target.
    pub fn identity(alignee: VarId, target: VarId, rank: usize) -> Self {
        AlignDirective {
            alignee,
            target,
            dims: (0..rank)
                .map(|d| AlignDim::Match {
                    alignee_dim: d,
                    stride: 1,
                    offset: 0,
                })
                .collect(),
        }
    }
}

/// Parallel-loop assertion attached to a `DO` statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndependentInfo {
    /// `INDEPENDENT` was asserted.
    pub independent: bool,
    /// Variables named in a `NEW(...)` clause: privatizable w.r.t. the loop.
    pub new_vars: Vec<VarId>,
    /// Weaker assertion: no *value-based* loop-carried dependences (phpf can
    /// infer privatizability of arrays written with loop-invariant or
    /// inner-affine subscripts from this).
    pub no_value_deps: bool,
}

/// All directives of a program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Directives {
    pub grid: Option<ProcGridDecl>,
    pub distributes: Vec<DistributeDirective>,
    pub aligns: Vec<AlignDirective>,
    pub independents: HashMap<StmtId, IndependentInfo>,
}

impl Directives {
    pub fn distribute_of(&self, array: VarId) -> Option<&DistributeDirective> {
        self.distributes.iter().find(|d| d.array == array)
    }

    pub fn align_of(&self, alignee: VarId) -> Option<&AlignDirective> {
        self.aligns.iter().find(|a| a.alignee == alignee)
    }

    pub fn independent_of(&self, loop_id: StmtId) -> Option<&IndependentInfo> {
        self.independents.get(&loop_id)
    }

    /// Is `var` named in a `NEW` clause of loop `loop_id`?
    pub fn is_new_var(&self, loop_id: StmtId, var: VarId) -> bool {
        self.independent_of(loop_id)
            .is_some_and(|i| i.new_vars.contains(&var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_totals() {
        let g = ProcGridDecl::new("P", vec![4, 4]);
        assert_eq!(g.total(), 16);
        assert_eq!(g.rank(), 2);
    }

    #[test]
    #[should_panic]
    fn empty_grid_rejected() {
        ProcGridDecl::new("P", vec![]);
    }

    #[test]
    fn identity_alignment() {
        let a = AlignDirective::identity(VarId(0), VarId(1), 2);
        assert_eq!(a.dims.len(), 2);
        assert!(matches!(
            a.dims[1],
            AlignDim::Match {
                alignee_dim: 1,
                stride: 1,
                offset: 0
            }
        ));
    }

    #[test]
    fn directive_lookups() {
        let mut d = Directives::default();
        d.distributes.push(DistributeDirective {
            array: VarId(2),
            formats: vec![DistFormat::Block, DistFormat::Collapsed],
        });
        d.aligns
            .push(AlignDirective::identity(VarId(3), VarId(2), 1));
        let info = IndependentInfo {
            independent: true,
            new_vars: vec![VarId(5)],
            ..Default::default()
        };
        d.independents.insert(StmtId(7), info);

        assert!(d.distribute_of(VarId(2)).is_some());
        assert!(d.distribute_of(VarId(9)).is_none());
        assert_eq!(d.align_of(VarId(3)).unwrap().target, VarId(2));
        assert!(d.is_new_var(StmtId(7), VarId(5)));
        assert!(!d.is_new_var(StmtId(7), VarId(6)));
        assert!(!d.is_new_var(StmtId(8), VarId(5)));
    }

    #[test]
    fn dist_format_distributed() {
        assert!(DistFormat::Block.is_distributed());
        assert!(DistFormat::Cyclic.is_distributed());
        assert!(DistFormat::BlockCyclic(4).is_distributed());
        assert!(!DistFormat::Collapsed.is_distributed());
    }
}
