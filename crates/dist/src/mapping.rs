//! Array-to-grid mappings: composition of HPF `ALIGN` and `DISTRIBUTE`
//! directives into per-grid-dimension ownership rules, and the owner
//! computation itself.
//!
//! The model follows HPF's two-level scheme: an array is aligned (with
//! stride and offset) to a *template* — here, the index space of the
//! distributed target array — whose dimensions are distributed
//! BLOCK/CYCLIC/CYCLIC(k) over grid dimensions. After composition, each
//! grid dimension has one [`GridDimRule`] telling how a processor
//! coordinate is derived from an element index (or that the array is
//! replicated, fixed, or *privatized* along that grid dimension — the
//! latter is how the paper's partial privatization is expressed).

use crate::grid::ProcGrid;
use hpf_ir::{DistFormat, Program, VarId};
use std::collections::HashMap;

/// Rule deriving the processor coordinate of one grid dimension from an
/// array element index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridDimRule {
    /// Coordinate = distribution owner of template position
    /// `stride * index[array_dim] + offset`, where the template dimension
    /// has bounds `t_lo ..= t_lo + t_extent - 1` and the given format.
    ByDim {
        array_dim: usize,
        dist: DistFormat,
        stride: i64,
        offset: i64,
        t_lo: i64,
        t_extent: i64,
    },
    /// Fixed coordinate (alignment to a constant position).
    Fixed(usize),
    /// Replicated along this grid dimension: every coordinate holds a
    /// coherent copy.
    Replicated,
    /// Privatized along this grid dimension: every coordinate holds its own
    /// *independent* copy (no coherence, no communication). Produced by the
    /// paper's (partial) array privatization, never by directives.
    Private,
}

/// Owner coordinate along one grid dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridCoord {
    At(usize),
    /// All coordinates (replicated or privatized dimension).
    Any,
}

/// The owner set of one element: a coordinate or `Any` per grid dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerSet {
    pub per_dim: Vec<GridCoord>,
}

impl GridCoord {
    /// The pinned coordinate, `None` for `Any`.
    pub fn at(self) -> Option<usize> {
        match self {
            GridCoord::At(x) => Some(x),
            GridCoord::Any => None,
        }
    }
}

impl OwnerSet {
    pub fn contains(&self, coords: &[usize]) -> bool {
        self.per_dim
            .iter()
            .zip(coords)
            .all(|(g, &c)| match g {
                GridCoord::At(x) => *x == c,
                GridCoord::Any => true,
            })
    }

    /// Does `pid` hold a copy? True exactly when resolving the set for
    /// reader `pid` lands on `pid` itself.
    pub fn contains_pid(&self, grid: &ProcGrid, pid: usize) -> bool {
        self.resolve(grid, pid) == pid
    }

    /// The pid a reader `reader` takes the element from: pinned
    /// coordinates as given, `Any` dimensions following the reader.
    pub fn resolve(&self, grid: &ProcGrid, reader: usize) -> usize {
        grid.resolve_with(reader, |d| self.per_dim[d].at())
    }

    /// All pids in the set, ascending.
    pub fn pids(&self, grid: &ProcGrid) -> Vec<usize> {
        if let Some(p) = self.single(grid) {
            return vec![p];
        }
        grid.pids()
            .filter(|&p| self.contains_pid(grid, p))
            .collect()
    }

    /// Exactly one owner?
    pub fn single(&self, grid: &ProcGrid) -> Option<usize> {
        if self.per_dim.iter().all(|g| matches!(g, GridCoord::At(_))) {
            Some(self.resolve(grid, 0))
        } else {
            None
        }
    }

    pub fn is_everyone(&self) -> bool {
        self.per_dim.iter().all(|g| matches!(g, GridCoord::Any))
    }
}

/// Owner coordinate of a 0-based template position under a distribution
/// format.
pub fn dist_owner(dist: DistFormat, pos0: i64, extent: i64, nprocs: usize) -> usize {
    debug_assert!(pos0 >= 0 && pos0 < extent, "pos0={} extent={}", pos0, extent);
    let np = nprocs as i64;
    let c = match dist {
        DistFormat::Block => {
            let block = (extent + np - 1) / np;
            pos0 / block
        }
        DistFormat::Cyclic => pos0 % np,
        DistFormat::BlockCyclic(k) => (pos0 / k as i64) % np,
        DistFormat::Collapsed => 0,
    };
    c as usize
}

/// The 0-based template positions owned by `coord` under BLOCK: a
/// contiguous range `lo0..=hi0` (empty if `lo0 > hi0`).
pub fn block_range(extent: i64, nprocs: usize, coord: usize) -> (i64, i64) {
    let np = nprocs as i64;
    let block = (extent + np - 1) / np;
    let lo0 = coord as i64 * block;
    let hi0 = ((coord as i64 + 1) * block - 1).min(extent - 1);
    (lo0, hi0)
}

/// The complete mapping of one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMapping {
    pub array: VarId,
    /// One rule per grid dimension.
    pub rules: Vec<GridDimRule>,
}

impl ArrayMapping {
    /// Fully replicated mapping.
    pub fn replicated(array: VarId, grid_rank: usize) -> ArrayMapping {
        ArrayMapping {
            array,
            rules: vec![GridDimRule::Replicated; grid_rank],
        }
    }

    pub fn is_fully_replicated(&self) -> bool {
        self.rules.iter().all(|r| matches!(r, GridDimRule::Replicated))
    }

    pub fn is_distributed(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, GridDimRule::ByDim { .. } | GridDimRule::Fixed(_)))
    }

    /// Grid dims along which the array is privatized.
    pub fn private_dims(&self) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, GridDimRule::Private))
            .map(|(d, _)| d)
            .collect()
    }

    /// The array dimension (if any) that drives grid dimension `g`.
    pub fn array_dim_of_grid_dim(&self, g: usize) -> Option<usize> {
        match &self.rules[g] {
            GridDimRule::ByDim { array_dim, .. } => Some(*array_dim),
            _ => None,
        }
    }

    /// The grid dimension (if any) driven by array dimension `d`.
    pub fn grid_dim_of_array_dim(&self, d: usize) -> Option<usize> {
        self.rules.iter().position(
            |r| matches!(r, GridDimRule::ByDim { array_dim, .. } if *array_dim == d),
        )
    }

    /// Owner set given the grid (needed because the number of processors
    /// per dimension determines block sizes).
    pub fn owner_on(&self, grid: &ProcGrid, idx: &[i64]) -> OwnerSet {
        let per_dim = (0..self.rules.len())
            .map(|g| self.coord_on(grid, g, idx))
            .collect();
        OwnerSet { per_dim }
    }

    /// Owner coordinate of element `idx` along grid dimension `g`.
    pub fn coord_on(&self, grid: &ProcGrid, g: usize, idx: &[i64]) -> GridCoord {
        match &self.rules[g] {
            GridDimRule::ByDim {
                array_dim,
                dist,
                stride,
                offset,
                t_lo,
                t_extent,
            } => {
                let pos0 = stride * idx[*array_dim] + offset - t_lo;
                GridCoord::At(dist_owner(*dist, pos0, *t_extent, grid.extent(g)))
            }
            GridDimRule::Fixed(c) => GridCoord::At(*c),
            GridDimRule::Replicated | GridDimRule::Private => GridCoord::Any,
        }
    }

    /// The pid `reader` takes element `idx` from — `owner_on(..)` resolved
    /// for `reader` — computed by arithmetic, without an owner set.
    pub fn owner_pid(&self, grid: &ProcGrid, idx: &[i64], reader: usize) -> usize {
        grid.resolve_with(reader, |g| self.coord_on(grid, g, idx).at())
    }
}

/// All array mappings of a program on a given grid.
#[derive(Debug, Clone)]
pub struct MappingTable {
    pub grid: ProcGrid,
    by_array: HashMap<VarId, ArrayMapping>,
}

impl MappingTable {
    /// Build from the program's directives. `grid` overrides the
    /// `PROCESSORS` declaration (used to sweep processor counts without
    /// rebuilding programs); pass `None` to use the declared grid
    /// (defaulting to a single processor when absent).
    pub fn from_program(p: &Program, grid: Option<ProcGrid>) -> Result<MappingTable, String> {
        let grid = grid.unwrap_or_else(|| {
            p.directives
                .grid
                .as_ref()
                .map(|g| ProcGrid::new(g.dims.clone()))
                .unwrap_or_else(|| ProcGrid::line(1))
        });
        let mut by_array: HashMap<VarId, ArrayMapping> = HashMap::new();

        // Pass 1: directly distributed arrays.
        for d in &p.directives.distributes {
            let info = p.vars.info(d.array);
            let shape = info
                .shape()
                .ok_or_else(|| format!("DISTRIBUTE of scalar {}", info.name))?;
            let n_dist = d.formats.iter().filter(|f| f.is_distributed()).count();
            if n_dist > grid.rank() {
                return Err(format!(
                    "array {} distributes {} dims onto a rank-{} grid",
                    info.name,
                    n_dist,
                    grid.rank()
                ));
            }
            let mut rules = vec![GridDimRule::Replicated; grid.rank()];
            let mut g = 0;
            for (ad, fmt) in d.formats.iter().enumerate() {
                if !fmt.is_distributed() {
                    continue;
                }
                if *fmt == DistFormat::BlockCyclic(0) {
                    return Err(format!(
                        "array {} dimension {} is distributed CYCLIC(0); the block size must be at least 1",
                        info.name,
                        ad + 1
                    ));
                }
                let (lo, hi) = shape.dims[ad];
                rules[g] = GridDimRule::ByDim {
                    array_dim: ad,
                    dist: *fmt,
                    stride: 1,
                    offset: 0,
                    t_lo: lo,
                    t_extent: hi - lo + 1,
                };
                g += 1;
            }
            // Distributed arrays are NOT replicated along unused grid dims
            // in HPF semantics if the distribution consumes fewer dims than
            // the grid has; phpf maps them to coordinate 0 of the remaining
            // dims. We keep Replicated only when the array genuinely spans
            // the dimension; remaining dims get Fixed(0).
            for r in rules.iter_mut().skip(g).take(grid.rank() - g) {
                if matches!(r, GridDimRule::Replicated) && n_dist > 0 {
                    *r = GridDimRule::Fixed(0);
                }
            }
            by_array.insert(d.array, ArrayMapping {
                array: d.array,
                rules,
            });
        }

        // Pass 2: aligned arrays, resolving chains to distributed targets.
        let mut pending: Vec<&hpf_ir::AlignDirective> = p.directives.aligns.iter().collect();
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            pending.retain(|a| {
                let Some(target_map) = by_array.get(&a.target).cloned() else {
                    return true; // target not resolved yet
                };
                let rules = compose_alignment(p, a, &target_map);
                match rules {
                    Ok(rules) => {
                        by_array.insert(a.alignee, ArrayMapping {
                            array: a.alignee,
                            rules,
                        });
                        progress = true;
                        false
                    }
                    Err(_) => true,
                }
            });
        }
        if let Some(a) = pending.first() {
            // Unresolvable target: if the target is itself unmapped, the
            // alignee is effectively replicated (HPF default).
            for a in &pending {
                if !p.vars.info(a.alignee).is_array() {
                    continue;
                }
                by_array
                    .entry(a.alignee)
                    .or_insert_with(|| ArrayMapping::replicated(a.alignee, grid.rank()));
            }
            let _ = a;
        }

        // Pass 3: everything else is replicated.
        for (v, info) in p.vars.arrays() {
            by_array
                .entry(v)
                .or_insert_with(|| ArrayMapping::replicated(v, grid.rank()));
            let _ = info;
        }

        Ok(MappingTable { grid, by_array })
    }

    pub fn of(&self, array: VarId) -> &ArrayMapping {
        &self.by_array[&array]
    }

    pub fn get(&self, array: VarId) -> Option<&ArrayMapping> {
        self.by_array.get(&array)
    }

    /// Replace an array's mapping (used by the privatization phase to
    /// install partially/fully privatized mappings).
    pub fn set(&mut self, m: ArrayMapping) {
        self.by_array.insert(m.array, m);
    }

    pub fn arrays(&self) -> impl Iterator<Item = (&VarId, &ArrayMapping)> {
        self.by_array.iter()
    }
}

/// Compose an alignee's rules through an ALIGN directive with the target's
/// mapping.
fn compose_alignment(
    p: &Program,
    a: &hpf_ir::AlignDirective,
    target_map: &ArrayMapping,
) -> Result<Vec<GridDimRule>, String> {
    let target_rank = p.vars.info(a.target).rank();
    if a.dims.len() != target_rank {
        return Err(format!(
            "ALIGN target rank mismatch for {}",
            p.vars.name(a.alignee)
        ));
    }
    let mut rules = vec![GridDimRule::Replicated; target_map.rules.len()];
    for (g, rule) in target_map.rules.iter().enumerate() {
        rules[g] = match rule {
            GridDimRule::ByDim {
                array_dim: t_dim,
                dist,
                stride: s1,
                offset: o1,
                t_lo,
                t_extent,
            } => match a.dims[*t_dim] {
                hpf_ir::AlignDim::Match {
                    alignee_dim,
                    stride: s2,
                    offset: o2,
                } => GridDimRule::ByDim {
                    array_dim: alignee_dim,
                    dist: *dist,
                    stride: s1 * s2,
                    offset: s1 * o2 + o1,
                    t_lo: *t_lo,
                    t_extent: *t_extent,
                },
                hpf_ir::AlignDim::Replicate => GridDimRule::Replicated,
                hpf_ir::AlignDim::Const(c) => {
                    // Fixed coordinate of the constant position; grid extent
                    // unknown here, so keep symbolic via ByDim with stride 0.
                    GridDimRule::ByDim {
                        array_dim: 0,
                        dist: *dist,
                        stride: 0,
                        offset: s1 * c + o1,
                        t_lo: *t_lo,
                        t_extent: *t_extent,
                    }
                }
            },
            GridDimRule::Fixed(c) => GridDimRule::Fixed(*c),
            GridDimRule::Replicated => GridDimRule::Replicated,
            GridDimRule::Private => GridDimRule::Private,
        };
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    #[test]
    fn dist_owner_block_cyclic() {
        // 10 elements over 4 procs, BLOCK: block=3 → owners 0001112223.
        let owners: Vec<usize> = (0..10)
            .map(|i| dist_owner(DistFormat::Block, i, 10, 4))
            .collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        // CYCLIC
        let owners: Vec<usize> = (0..8)
            .map(|i| dist_owner(DistFormat::Cyclic, i, 8, 3))
            .collect();
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        // CYCLIC(2)
        let owners: Vec<usize> = (0..8)
            .map(|i| dist_owner(DistFormat::BlockCyclic(2), i, 8, 2))
            .collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn block_range_covers_all_once() {
        for extent in [1i64, 7, 16, 100] {
            for np in [1usize, 2, 3, 4, 7] {
                let mut seen = vec![0u8; extent as usize];
                for c in 0..np {
                    let (lo, hi) = block_range(extent, np, c);
                    for i in lo..=hi {
                        seen[i as usize] += 1;
                    }
                    // Agreement with dist_owner.
                    for i in lo..=hi {
                        assert_eq!(dist_owner(DistFormat::Block, i, extent, np), c);
                    }
                }
                assert!(seen.iter().all(|&x| x == 1), "extent={} np={}", extent, np);
            }
        }
    }

    #[test]
    fn mapping_from_block_distribute() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
!HPF$ ALIGN (i) WITH A(*) :: E
REAL A(16), B(16), E(16)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        let a = p.vars.lookup("a").unwrap();
        let b = p.vars.lookup("b").unwrap();
        let e = p.vars.lookup("e").unwrap();
        // A(5) owned by proc 1 (block = 4).
        let own = t.of(a).owner_on(&t.grid, &[5]);
        assert_eq!(own.single(&t.grid), Some(1));
        // B aligned identically.
        assert_eq!(t.of(b).owner_on(&t.grid, &[5]).single(&t.grid), Some(1));
        // E replicated.
        assert!(t.of(e).owner_on(&t.grid, &[5]).is_everyone());
        assert!(t.of(e).is_fully_replicated());
    }

    #[test]
    fn mapping_2d_and_row_alignment() {
        // Figure 2 of the paper: H block-distributed by rows, A aligned
        // with H's rows (replicated along the collapsed dim is implicit).
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK, *) :: H
!HPF$ ALIGN G(i,j) WITH H(i,j)
!HPF$ ALIGN A(i) WITH H(i,1)
REAL H(16,16), G(16,16), A(16)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        let h = p.vars.lookup("h").unwrap();
        let g = p.vars.lookup("g").unwrap();
        let a = p.vars.lookup("a").unwrap();
        assert_eq!(
            t.of(h).owner_on(&t.grid, &[9, 3]).single(&t.grid),
            Some(2)
        );
        assert_eq!(
            t.of(g).owner_on(&t.grid, &[9, 3]).single(&t.grid),
            Some(2)
        );
        // A(i) owned by owner of H(i, 1).
        assert_eq!(t.of(a).owner_on(&t.grid, &[9]).single(&t.grid), Some(2));
    }

    #[test]
    fn cyclic_columns_dgefa_style() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
REAL A(8,8)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        let a = p.vars.lookup("a").unwrap();
        // Column k owned by (k-1) mod 4, any row.
        for k in 1..=8i64 {
            let own = t.of(a).owner_on(&t.grid, &[3, k]);
            assert_eq!(own.single(&t.grid), Some(((k - 1) % 4) as usize));
        }
    }

    #[test]
    fn grid_override_changes_block_size() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, Some(ProcGrid::line(8))).unwrap();
        let a = p.vars.lookup("a").unwrap();
        // block = 2 now.
        assert_eq!(t.of(a).owner_on(&t.grid, &[3]).single(&t.grid), Some(1));
        assert_eq!(t.of(a).owner_on(&t.grid, &[16]).single(&t.grid), Some(7));
    }

    #[test]
    fn owner_set_pids_2d() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (BLOCK, *) :: H
REAL H(8,8)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        let h = p.vars.lookup("h").unwrap();
        // Row 6 → grid-dim-0 coord 1; second grid dim Fixed(0).
        let own = t.of(h).owner_on(&t.grid, &[6, 2]);
        assert_eq!(own.pids(&t.grid), vec![t.grid.pid_of(&[1, 0])]);
    }

    #[test]
    fn owner_pid_agrees_with_owner_sets() {
        let src = r#"
!HPF$ PROCESSORS P(2,3)
!HPF$ DISTRIBUTE (BLOCK, *) :: H
!HPF$ DISTRIBUTE (CYCLIC, BLOCK) :: G
!HPF$ ALIGN A(i) WITH H(i,*)
REAL H(8,8), G(7,9), A(8)
"#;
        let p = parse_program(src).unwrap();
        let t = MappingTable::from_program(&p, None).unwrap();
        for name in ["h", "g", "a"] {
            let v = p.vars.lookup(name).unwrap();
            let m = t.of(v);
            let shape = p.vars.info(v).shape().unwrap();
            for off in 0..shape.len() as usize {
                let idx = shape.delinearize(off);
                let own = m.owner_on(&t.grid, &idx);
                let want: Vec<usize> = t
                    .grid
                    .pids()
                    .filter(|&q| own.contains(&t.grid.coords_of(q)))
                    .collect();
                assert_eq!(own.pids(&t.grid), want, "{name}{idx:?}");
                for reader in t.grid.pids() {
                    let src = m.owner_pid(&t.grid, &idx, reader);
                    assert!(want.contains(&src), "{name}{idx:?} reader {reader}");
                    assert_eq!(own.contains_pid(&t.grid, reader), src == reader);
                }
            }
        }
    }
}
