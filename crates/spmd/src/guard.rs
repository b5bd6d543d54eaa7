//! Computation-partitioning guards.
//!
//! Under the owner-computes rule each assignment carries a guard deciding
//! which processors execute it. The guard is derived from the statement's
//! lhs and the mapping decisions: replicated data ⇒ everyone; distributed
//! lhs ⇒ its owners; a privatized scalar aligned with reference `r` ⇒ the
//! owners of `r` in the current iteration; privatization without alignment
//! ⇒ no guard (the union of processors active in the iteration); a
//! reduction-mapped scalar ⇒ the owners of the operand reference with the
//! reduction dimensions left free.

use hpf_ir::ArrayRef;

/// A computation-partitioning guard.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// Executed by every processor.
    Everyone,
    /// Executed by the owners of a reference (subscripts evaluated in the
    /// current iteration). `free_dims` lists grid dimensions whose
    /// coordinate is left unconstrained (reduction mapping).
    OwnerOf {
        r: ArrayRef,
        free_dims: Vec<usize>,
    },
    /// No guard: the union of processors executing any other statement of
    /// the iteration (privatization without alignment). The executors are
    /// a superset chosen by the runtime; semantics do not depend on the
    /// exact set because all operands are replicated/private.
    Union,
}

impl Guard {
    pub fn owner_of(r: ArrayRef) -> Guard {
        Guard::OwnerOf {
            r,
            free_dims: Vec::new(),
        }
    }

    /// Does the guard restrict execution at all?
    pub fn is_partitioned(&self) -> bool {
        matches!(self, Guard::OwnerOf { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_dist::{GridCoord, OwnerSet, ProcGrid};
    use hpf_ir::VarId;

    #[test]
    fn resolve_owner_follows_reader_on_any() {
        let grid = ProcGrid::new(vec![2, 2]);
        let own = OwnerSet {
            per_dim: vec![GridCoord::At(1), GridCoord::Any],
        };
        let reader = grid.pid_of(&[0, 1]);
        assert_eq!(own.resolve(&grid, reader), grid.pid_of(&[1, 1]));
        let own_all = OwnerSet {
            per_dim: vec![GridCoord::Any, GridCoord::Any],
        };
        assert_eq!(own_all.resolve(&grid, reader), reader);
    }

    #[test]
    fn guard_kinds() {
        assert!(!Guard::Everyone.is_partitioned());
        assert!(!Guard::Union.is_partitioned());
        assert!(Guard::owner_of(ArrayRef::new(VarId(0), vec![])).is_partitioned());
    }
}
