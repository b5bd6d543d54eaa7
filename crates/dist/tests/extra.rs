//! Additional hpf-dist coverage: alignment chains, owner-set algebra,
//! owned-index corner cases, balance accounting.

use hpf_dist::layout::owned_indices;
use hpf_dist::{
    dist_owner, ArrayMapping, GridCoord, GridDimRule, MappingTable, OwnerSet, ProcGrid,
};
use hpf_ir::{parse_program, DistFormat, HeldDim};

#[test]
fn alignment_chain_resolves_transitively() {
    // C aligned with B aligned with A (distributed): C inherits A's rules
    // with composed offsets.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN B(i) WITH A(i+1)
!HPF$ ALIGN C(i) WITH B(i+1)
REAL A(16), B(15), C(14)
"#;
    let p = parse_program(src).unwrap();
    let t = MappingTable::from_program(&p, None).unwrap();
    let c = p.vars.lookup("c").unwrap();
    let a = p.vars.lookup("a").unwrap();
    // C(i) lives where A(i+2) lives.
    for i in 1..=14i64 {
        assert_eq!(
            t.of(c).owner_on(&t.grid, &[i]).single(&t.grid),
            t.of(a).owner_on(&t.grid, &[i + 2]).single(&t.grid),
            "i={}",
            i
        );
    }
}

#[test]
fn owner_set_algebra() {
    let grid = ProcGrid::new(vec![2, 3]);
    let o = OwnerSet {
        per_dim: vec![GridCoord::At(1), GridCoord::Any],
    };
    assert_eq!(o.pids(&grid), vec![3, 4, 5]);
    assert!(o.contains(&[1, 2]));
    assert!(!o.contains(&[0, 2]));
    assert!(o.single(&grid).is_none());
    assert!(!o.is_everyone());
    let all = OwnerSet {
        per_dim: vec![GridCoord::Any, GridCoord::Any],
    };
    assert!(all.is_everyone());
    assert_eq!(all.pids(&grid).len(), 6);
}

#[test]
fn mapping_private_dims_reported() {
    let m = ArrayMapping {
        array: hpf_ir::VarId(0),
        rules: vec![
            GridDimRule::Private,
            GridDimRule::ByDim {
                array_dim: 0,
                dist: DistFormat::Block,
                stride: 1,
                offset: 0,
                t_lo: 1,
                t_extent: 8,
            },
        ],
    };
    assert_eq!(m.private_dims(), vec![0]);
    assert!(m.is_distributed());
    assert!(!m.is_fully_replicated());
    assert_eq!(m.grid_dim_of_array_dim(0), Some(1));
    assert_eq!(m.array_dim_of_grid_dim(1), Some(0));
    assert_eq!(m.array_dim_of_grid_dim(0), None);
}

#[test]
fn owned_indices_degenerate_cases() {
    // Single processor: everything in the template belongs to coordinate 0.
    let s = owned_indices(DistFormat::Block, 1, 0, 1, -1, 16, 1, 16);
    assert_eq!(s, Some(HeldDim::Range { lo: 1, hi: 16 }));
    // Collapsed: coordinate 0 holds it all, the others nothing.
    let s = owned_indices(DistFormat::Collapsed, 4, 0, 1, -1, 16, 1, 16);
    assert_eq!(s, Some(HeldDim::Range { lo: 1, hi: 16 }));
    let s = owned_indices(DistFormat::Collapsed, 4, 2, 1, -1, 16, 1, 16);
    assert_eq!(s, Some(HeldDim::EMPTY));
    // 10 positions over 4 coordinates in blocks of 3: coordinate 3 owns
    // position 9 alone.
    let s = owned_indices(DistFormat::Block, 4, 3, 1, -1, 10, 1, 10);
    assert_eq!(s, Some(HeldDim::Range { lo: 10, hi: 10 }));
    // A loop wholly outside the template owns nothing anywhere.
    let s = owned_indices(DistFormat::Cyclic, 4, 1, 1, -1, 10, 11, 20);
    assert_eq!(s, Some(HeldDim::EMPTY));
    // An empty loop range.
    let s = owned_indices(DistFormat::Block, 4, 0, 1, -1, 16, 5, 4);
    assert_eq!(s, Some(HeldDim::EMPTY));
    // No closed form: CYCLIC(k) under a non-unit stride, and stride 0.
    assert_eq!(
        owned_indices(DistFormat::Cyclic, 4, 0, 2, 0, 16, 1, 8),
        None
    );
    assert_eq!(
        owned_indices(DistFormat::BlockCyclic(2), 4, 0, -3, 20, 16, 1, 8),
        None
    );
    assert_eq!(owned_indices(DistFormat::Block, 4, 0, 0, 3, 16, 1, 8), None);
}

#[test]
fn cyclic_owner_wraps_offsets() {
    // Negative offsets keep the modulo in range, under CYCLIC and
    // CYCLIC(k), up and down, over loops that cross the template's ends.
    for dist in [
        DistFormat::Cyclic,
        DistFormat::BlockCyclic(2),
        DistFormat::BlockCyclic(3),
    ] {
        for (stride, b) in (-5i64..6).flat_map(|b| [(1, b), (-1, b + 40)]) {
            for coord in 0..3usize {
                let off = b - 1;
                let set = owned_indices(dist, 3, coord, stride, off, 40, -4, 46).unwrap();
                for i in -4..=46i64 {
                    let pos0 = stride * i + off;
                    let owned = (0..40).contains(&pos0) && dist_owner(dist, pos0, 40, 3) == coord;
                    assert_eq!(
                        set.local(i).is_some(),
                        owned,
                        "{:?} stride={} b={} coord={} i={}",
                        dist,
                        stride,
                        b,
                        coord,
                        i
                    );
                }
            }
        }
    }
}

#[test]
fn replication_factor_of_partial_mapping() {
    // A privatized dimension multiplies storage like replication does.
    let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (BLOCK, *) :: W
REAL W(8,8)
"#;
    let p = parse_program(src).unwrap();
    let t = MappingTable::from_program(&p, None).unwrap();
    let w = p.vars.lookup("w").unwrap();
    let mut m = t.of(w).clone();
    // Make the second grid dim private: each of the 2 coords keeps a copy.
    m.rules[1] = GridDimRule::Private;
    let shape = p.vars.info(w).shape().unwrap();
    let f = hpf_dist::layout::replication_factor(&m, &t.grid, shape);
    assert!((f - 2.0).abs() < 1e-12, "factor {}", f);
}

#[test]
fn grid_pids_with_coord_3d() {
    let g = ProcGrid::new(vec![2, 2, 2]);
    assert_eq!(g.total(), 8);
    let slice = g.pids_with_coord(1, 1);
    assert_eq!(slice.len(), 4);
    for pid in slice {
        assert_eq!(g.coords_of(pid)[1], 1);
    }
}

#[test]
fn distribute_onto_larger_grid_fixes_extra_dims() {
    // One distributed dim on a 2-D grid: remaining grid dim pinned to 0.
    let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (BLOCK) :: V
REAL V(8)
"#;
    let p = parse_program(src).unwrap();
    let t = MappingTable::from_program(&p, None).unwrap();
    let v = p.vars.lookup("v").unwrap();
    let own = t.of(v).owner_on(&t.grid, &[5]);
    let pids = own.pids(&t.grid);
    assert_eq!(pids.len(), 1);
    assert_eq!(t.grid.coords_of(pids[0])[1], 0);
}
