//! # hpf-dist
//!
//! The HPF data-mapping substrate: processor grids, composition of `ALIGN`
//! and `DISTRIBUTE` directives into ownership rules, owner computation,
//! and the indices each processor owns ([`layout::owned_indices`]), which
//! size its stores and bound its loops (owner-computes iteration
//! partitioning).
//!
//! The paper's mapping algorithm manipulates these objects: alignment of a
//! privatized scalar "with reference r" makes the scalar's owner the owner
//! of `r` in each iteration, and partial privatization replaces selected
//! grid-dimension rules with [`mapping::GridDimRule::Private`].

pub mod grid;
pub mod layout;
pub mod mapping;

pub use grid::ProcGrid;
pub use mapping::{
    dist_owner, ArrayMapping, GridCoord, GridDimRule, MappingTable, OwnerSet,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    /// End-to-end: the paper's Figure 6 distribution `(*, BLOCK, BLOCK)` on
    /// a 2-D grid.
    #[test]
    fn figure6_3d_array_2d_grid() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, BLOCK, BLOCK) :: RSD
REAL RSD(5,8,8)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        let rsd = p.vars.lookup("rsd").unwrap();
        let m = t.of(rsd);
        assert_eq!(m.grid_dim_of_array_dim(1), Some(0));
        assert_eq!(m.grid_dim_of_array_dim(2), Some(1));
        assert_eq!(m.grid_dim_of_array_dim(0), None);
        let own = m.owner_on(&t.grid, &[3, 5, 2]);
        // j=5 of 8 over 2 procs (block 4) → coord 1; k=2 → coord 0.
        assert_eq!(own.single(&t.grid), Some(t.grid.pid_of(&[1, 0])));
    }
}
