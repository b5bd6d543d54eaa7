//! Per-processor data extents: which elements of an array a processor
//! holds, how many, and aggregate balance statistics.
//!
//! [`owned_indices`] is the one derivation of the indices a grid
//! coordinate owns along one dimension: it solves `owner(stride·i + off) =
//! c` for `i` in closed form. BLOCK gives a contiguous range, CYCLIC and
//! CYCLIC(k) under a unit stride a cyclic set with a closed-form local
//! index. Two callers read it:
//!
//! * [`held_dims`], a processor's section of an array: per array
//!   dimension, the indices it owns, and every index along replicated,
//!   privatized and undistributed dimensions. The node programs' rank
//!   stores hold exactly this section (`hpf_ir::store`), the compile
//!   report prints it, the owner-slot checks walk it, and [`owned_count`]
//!   counts it for the balance report. The sequential interpreter, the
//!   reference executor and trace replay still store whole arrays.
//! * the node programs' loop bounds (`hpf_spmd::node`): the iterations of
//!   a loop whose referenced element a rank owns (the paper's §4, "the
//!   loop bounds can be shrunk in the final SPMD code"), with [`in_template`]
//!   telling which iterations reference a position inside the template.

use crate::grid::ProcGrid;
use crate::mapping::{block_range, dist_owner, ArrayMapping, GridDimRule};
use hpf_ir::{ArrayShape, DistFormat, HeldDim};

/// The indices of each dimension of an array of `shape` that the
/// processor at grid coordinates `coords` holds under `mapping`: along a
/// distributed dimension the indices it owns, along replicated, privatized
/// and undistributed dimensions every index, and nothing at all when a
/// `Fixed` rule (or an alignment to a constant position) pins the array
/// to another coordinate.
pub fn held_dims(
    mapping: &ArrayMapping,
    grid: &ProcGrid,
    shape: &ArrayShape,
    coords: &[usize],
) -> Vec<HeldDim> {
    let nothing = || vec![HeldDim::EMPTY; shape.rank()];
    // By array dimension: the grid dimensions whose rule reads it.
    let mut rules: Vec<Vec<usize>> = vec![Vec::new(); shape.rank()];
    for (g, rule) in mapping.rules.iter().enumerate() {
        match *rule {
            GridDimRule::Fixed(c) if coords[g] != c => return nothing(),
            GridDimRule::ByDim {
                stride: 0,
                dist,
                offset,
                t_lo,
                t_extent,
                ..
            } => {
                let p = offset - t_lo;
                if p < 0 || p >= t_extent || dist_owner(dist, p, t_extent, grid.extent(g)) != coords[g]
                {
                    return nothing();
                }
            }
            GridDimRule::ByDim { array_dim, .. } => rules[array_dim].push(g),
            GridDimRule::Fixed(_) | GridDimRule::Replicated | GridDimRule::Private => {}
        }
    }
    shape
        .dims
        .iter()
        .zip(&rules)
        .map(|(&(lo, hi), gs)| {
            let closed = match gs[..] {
                [] => Some(HeldDim::Range { lo, hi }),
                [g] => match mapping.rules[g] {
                    GridDimRule::ByDim {
                        dist,
                        stride,
                        offset,
                        t_lo,
                        t_extent,
                        ..
                    } => owned_indices(
                        dist,
                        grid.extent(g),
                        coords[g],
                        stride,
                        offset - t_lo,
                        t_extent,
                        lo,
                        hi,
                    ),
                    _ => None,
                },
                _ => None,
            };
            closed.unwrap_or_else(|| {
                // Several rules on one dimension, or a cyclic one under a
                // non-unit alignment stride: test every index.
                let owns = |i: i64| {
                    gs.iter().all(|&g| {
                        let rule = &mapping.rules[g];
                        rule_owner(rule, grid.extent(g), i) == Some(coords[g])
                    })
                };
                listed((lo..=hi).filter(|&i| owns(i)).collect())
            })
        })
        .collect()
}

/// The coordinate that owns index `i` under a `ByDim` rule, `None` when
/// its template position falls outside the template.
fn rule_owner(rule: &GridDimRule, nprocs: usize, i: i64) -> Option<usize> {
    let GridDimRule::ByDim {
        dist,
        stride,
        offset,
        t_lo,
        t_extent,
        ..
    } = *rule
    else {
        return None;
    };
    let p = stride * i + offset - t_lo;
    (0..t_extent)
        .contains(&p)
        .then(|| dist_owner(dist, p, t_extent, nprocs))
}

/// Held indices, ascending: a range when they are contiguous.
fn listed(v: Vec<i64>) -> HeldDim {
    match (v.first(), v.last()) {
        (None, _) | (_, None) => HeldDim::EMPTY,
        (Some(&lo), Some(&hi)) if hi - lo + 1 == v.len() as i64 => HeldDim::Range { lo, hi },
        _ => HeldDim::Listed(v),
    }
}

fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// The indices `lo..=hi` whose position `stride·i + off` lies in
/// `p0..=p1` (`stride` non-zero), as `(first, last)`.
fn indices_at(stride: i64, off: i64, p0: i64, p1: i64, lo: i64, hi: i64) -> (i64, i64) {
    let (a, b) = if stride > 0 { (p0, p1) } else { (p1, p0) };
    let first = -floor_div(-(a - off), stride);
    let last = floor_div(b - off, stride);
    (first.max(lo), last.min(hi))
}

/// The indices `lo..=hi` whose 0-based template position `stride·i + off`
/// lies in a template of `t_extent` positions, as `(first, last)`: none
/// when `first > last`. `stride` is non-zero.
pub fn in_template(stride: i64, off: i64, t_extent: i64, lo: i64, hi: i64) -> (i64, i64) {
    indices_at(stride, off, 0, t_extent - 1, lo, hi)
}

/// The indices `i` in `lo..=hi` whose 0-based template position
/// `p = stride·i + off` lies in the template (`t_extent` positions) and on
/// coordinate `c` of `nprocs` under `dist`, in closed form: a range under
/// BLOCK (any stride) or a collapsed distribution, a cyclic set under
/// CYCLIC(k) with a unit stride. `None` for CYCLIC(k) under any other
/// stride, or stride 0.
///
/// This is the one place that solves `owner(p) = c` for `i`: the stores
/// call it through [`held_dims`] with an alignment's stride and offset,
/// the node programs' loop bounds with those of a subscript `k·v + c0`
/// composed with the alignment (`stride·k`, `stride·c0 + offset - t_lo`).
#[allow(clippy::too_many_arguments)]
pub fn owned_indices(
    dist: DistFormat,
    nprocs: usize,
    c: usize,
    stride: i64,
    off: i64,
    t_extent: i64,
    lo: i64,
    hi: i64,
) -> Option<HeldDim> {
    if stride == 0 {
        return None;
    }
    let range = |(lo, hi): (i64, i64)| {
        Some(if lo > hi { HeldDim::EMPTY } else { HeldDim::Range { lo, hi } })
    };
    let (lo, hi) = in_template(stride, off, t_extent, lo, hi);
    if lo > hi {
        return Some(HeldDim::EMPTY);
    }
    let block = match dist {
        DistFormat::Block => {
            let (p0, p1) = block_range(t_extent, nprocs, c);
            return range(indices_at(stride, off, p0, p1, lo, hi));
        }
        DistFormat::Collapsed => return range(if c == 0 { (lo, hi) } else { (1, 0) }),
        DistFormat::Cyclic => 1,
        DistFormat::BlockCyclic(k) => k as i64,
    };
    if stride.abs() != 1 {
        return None;
    }
    // Blocks of `block` positions dealt round `np` coordinates: the
    // first and last position of `p0..=p1` in a block of `c`.
    let (np, c) = (nprocs as i64, c as i64);
    let (pa, pb) = {
        let (x, y) = (stride * lo + off, stride * hi + off);
        (x.min(y), x.max(y))
    };
    let ahead = (c - (pa / block) % np).rem_euclid(np);
    let first = if ahead == 0 { pa } else { (pa / block + ahead) * block };
    let behind = ((pb / block) % np - c).rem_euclid(np);
    let last = if behind == 0 { pb } else { (pb / block - behind) * block + block - 1 };
    if first > last {
        return Some(HeldDim::EMPTY);
    }
    let local = |p: i64| (p / (block * np)) * block + p % block;
    Some(HeldDim::Cyclic {
        lo,
        hi,
        dir: stride,
        offset: off,
        block,
        procs: np,
        coord: c,
        base: local(first),
        len: local(last) - local(first) + 1,
    })
}

/// Number of elements of `shape` owned by processor `pid` under `mapping`:
/// the size of its [`held_dims`] section. Replicated and privatized
/// dimensions count fully (each copy holds all of them).
pub fn owned_count(mapping: &ArrayMapping, grid: &ProcGrid, shape: &ArrayShape, pid: usize) -> i64 {
    held_dims(mapping, grid, shape, &grid.coords_of(pid))
        .iter()
        .map(|d| d.count() as i64)
        .product()
}

/// Load-balance summary over all processors for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceReport {
    pub min: i64,
    pub max: i64,
    pub mean: f64,
    pub total_copies: i64,
}

pub fn balance(mapping: &ArrayMapping, grid: &ProcGrid, shape: &ArrayShape) -> BalanceReport {
    let counts: Vec<i64> = grid
        .pids()
        .map(|p| owned_count(mapping, grid, shape, p))
        .collect();
    let total: i64 = counts.iter().sum();
    BalanceReport {
        min: *counts.iter().min().unwrap(),
        max: *counts.iter().max().unwrap(),
        mean: total as f64 / counts.len() as f64,
        total_copies: total,
    }
}

/// Memory blow-up factor versus a single copy of the array: 1.0 for a pure
/// distribution, `P` for full replication.
pub fn replication_factor(
    mapping: &ArrayMapping,
    grid: &ProcGrid,
    shape: &ArrayShape,
) -> f64 {
    balance(mapping, grid, shape).total_copies as f64 / shape.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingTable;
    use hpf_ir::parse_program;

    fn setup(src: &str) -> (hpf_ir::Program, MappingTable) {
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        (p, t)
    }

    #[test]
    fn block_counts_balanced() {
        let (p, t) = setup(
            "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\nREAL A(16)\n",
        );
        let a = p.vars.lookup("a").unwrap();
        let shape = p.vars.info(a).shape().unwrap();
        let rep = balance(t.of(a), &t.grid, shape);
        assert_eq!(rep.min, 4);
        assert_eq!(rep.max, 4);
        assert_eq!(rep.total_copies, 16);
        assert!((replication_factor(t.of(a), &t.grid, shape) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicated_blowup() {
        let (p, t) = setup("!HPF$ PROCESSORS P(4)\nREAL E(8)\n");
        let e = p.vars.lookup("e").unwrap();
        let shape = p.vars.info(e).shape().unwrap();
        assert!((replication_factor(t.of(e), &t.grid, shape) - 4.0).abs() < 1e-12);
    }

    /// For every array and rank: an element is in the rank's box exactly
    /// when the rank is in its owner set, the held elements fill positions
    /// `0..len` once each, and `owned_count` is their number.
    fn boxes_match_owner_sets(src: &str) {
        let (p, t) = setup(src);
        for (v, info) in p.vars.arrays() {
            let shape = info.shape().unwrap();
            let m = t.of(v);
            for pid in t.grid.pids() {
                let dims = held_dims(m, &t.grid, shape, &t.grid.coords_of(pid));
                let held = hpf_ir::HeldBox::new(shape, dims);
                let mut positions = Vec::new();
                for off in 0..shape.len() as usize {
                    let idx = shape.delinearize(off);
                    let owns = m.owner_on(&t.grid, &idx).contains_pid(&t.grid, pid);
                    let at = held.local(&idx);
                    assert_eq!(at.is_some(), owns, "{} {:?} on {}:\n{}", info.name, idx, pid, src);
                    positions.extend(at);
                }
                positions.sort_unstable();
                assert_eq!(positions, (0..held.len()).collect::<Vec<_>>(), "{}", info.name);
                assert_eq!(owned_count(m, &t.grid, shape, pid), held.len() as i64);
            }
        }
    }

    #[test]
    fn held_boxes_are_the_owner_sets() {
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (CYCLIC(3)) :: A\n\
             !HPF$ ALIGN B(i) WITH A(i+2)\n!HPF$ ALIGN C(i) WITH A(2*i)\n\
             REAL A(32), B(20), C(16)\n",
        );
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(3)\n!HPF$ DISTRIBUTE (CYCLIC) :: A\n\
             !HPF$ ALIGN B(i) WITH A(i+2)\n!HPF$ ALIGN C(i) WITH A(3*i)\n\
             REAL A(24), B(20), C(8), E(0:5)\n",
        );
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n\
             !HPF$ ALIGN B(i) WITH A(2*i)\n!HPF$ ALIGN C(i) WITH A(i-3)\n\
             REAL A(17), B(8), C(4:20)\n",
        );
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(2,3)\n!HPF$ DISTRIBUTE (BLOCK, CYCLIC(2)) :: H\n\
             !HPF$ ALIGN A(i) WITH H(i,3)\n!HPF$ ALIGN G(i,j) WITH H(j,i)\n\
             REAL H(7,11), A(7), G(11,7)\n",
        );
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(2,2)\n!HPF$ DISTRIBUTE (CYCLIC, CYCLIC) :: H\n\
             !HPF$ ALIGN D(i) WITH H(i,i)\nREAL H(8,8), D(8)\n",
        );
        boxes_match_owner_sets(
            "!HPF$ PROCESSORS P(2,2)\n!HPF$ DISTRIBUTE (BLOCK,*) :: H\n\
             !HPF$ DISTRIBUTE (*, CYCLIC(3)) :: K\nREAL H(8,8), K(5,13)\n",
        );
    }

    /// Brute force against `dist_owner`: over a loop range that crosses
    /// both ends of the template, each in-template index is in exactly one
    /// coordinate's set, the owner's, at a distinct position `0..len`, and
    /// no out-of-template index is in any set.
    fn check_owned(dist: DistFormat, nprocs: usize, t_extent: i64, stride: i64, off: i64) {
        let (t0, t1) = in_template(stride, off, t_extent, -50, 50);
        let (lo, hi) = (t0 - 3, t1 + 3);
        for c in 0..nprocs {
            let what = format!(
                "{:?} np={} c={} stride={} off={}",
                dist, nprocs, c, stride, off
            );
            let Some(set) = owned_indices(dist, nprocs, c, stride, off, t_extent, lo, hi) else {
                panic!("{}: no closed form", what);
            };
            let mut positions = Vec::new();
            for i in lo..=hi {
                let p = stride * i + off;
                let owned =
                    (0..t_extent).contains(&p) && dist_owner(dist, p, t_extent, nprocs) == c;
                assert_eq!(set.local(i).is_some(), owned, "{} i={}", what, i);
                assert_eq!(
                    (t0..=t1).contains(&i),
                    (0..t_extent).contains(&p),
                    "{} i={}",
                    what,
                    i
                );
                positions.extend(set.local(i));
            }
            positions.sort_unstable();
            assert_eq!(positions, (0..set.count()).collect::<Vec<_>>(), "{}", what);
        }
    }

    #[test]
    fn owned_indices_match_ownership() {
        for nprocs in 1..=5 {
            for t_extent in [1, 7, 16, 17] {
                for off in [-3, 0, 2, 20] {
                    for stride in [1, -1, 2, -2, 3] {
                        check_owned(DistFormat::Block, nprocs, t_extent, stride, off);
                    }
                    for stride in [1, -1] {
                        check_owned(DistFormat::Cyclic, nprocs, t_extent, stride, off);
                        for k in 1..=4 {
                            check_owned(DistFormat::BlockCyclic(k), nprocs, t_extent, stride, off);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_dim_excludes_other_coords() {
        let (p, t) = setup(
            "!HPF$ PROCESSORS P(2,2)\n!HPF$ DISTRIBUTE (BLOCK,*) :: H\nREAL H(8,8)\n",
        );
        let h = p.vars.lookup("h").unwrap();
        let shape = p.vars.info(h).shape().unwrap();
        // Only coords with second grid dim == 0 own anything.
        let mut total = 0;
        for pid in t.grid.pids() {
            let c = owned_count(t.of(h), &t.grid, shape, pid);
            if t.grid.coords_of(pid)[1] == 0 {
                assert_eq!(c, 32);
            } else {
                assert_eq!(c, 0);
            }
            total += c;
        }
        assert_eq!(total, 64);
    }
}
