//! Multi-dimensional (virtual) processor grids.

/// A processor grid: `dims[d]` processors along grid dimension `d`.
/// Processors are identified both by linear id (`0..total()`) and by
/// coordinate vector; the linearization is row-major on coordinates
/// (last dimension fastest), matching HPF `PROCESSORS P(d1,d2)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcGrid {
    dims: Vec<usize>,
}

impl ProcGrid {
    pub fn new(dims: Vec<usize>) -> ProcGrid {
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        ProcGrid { dims }
    }

    /// One-dimensional grid of `p` processors.
    pub fn line(p: usize) -> ProcGrid {
        ProcGrid::new(vec![p])
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub fn extent(&self, d: usize) -> usize {
        self.dims[d]
    }

    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of a linear processor id.
    pub fn coords_of(&self, mut pid: usize) -> Vec<usize> {
        debug_assert!(pid < self.total());
        let mut c = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            c[d] = pid % self.dims[d];
            pid /= self.dims[d];
        }
        c
    }

    /// Linear id of a coordinate vector.
    pub fn pid_of(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut pid = 0;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[d]);
            pid = pid * self.dims[d] + c;
        }
        pid
    }

    /// Linear id of the processor whose coordinate along dimension `d` is
    /// `at(d)`, or `reader`'s own coordinate where `at(d)` is `None`
    /// (replicated and privatized dimensions are read locally). Pure
    /// arithmetic on the pid's mixed-radix digits: `at` is called once per
    /// dimension, last dimension first, and nothing is allocated.
    pub fn resolve_with(&self, reader: usize, mut at: impl FnMut(usize) -> Option<usize>) -> usize {
        let (mut pid, mut weight, mut rest) = (0, 1, reader);
        for d in (0..self.dims.len()).rev() {
            let ext = self.dims[d];
            let c = at(d).unwrap_or(rest % ext);
            debug_assert!(c < ext);
            rest /= ext;
            pid += c * weight;
            weight *= ext;
        }
        pid
    }

    /// All processor ids.
    pub fn pids(&self) -> impl Iterator<Item = usize> {
        0..self.total()
    }

    /// All pids whose coordinate along `dim` equals `coord`.
    pub fn pids_with_coord(&self, dim: usize, coord: usize) -> Vec<usize> {
        self.pids()
            .filter(|&p| self.coords_of(p)[dim] == coord)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_2d() {
        let g = ProcGrid::new(vec![4, 4]);
        assert_eq!(g.total(), 16);
        for p in g.pids() {
            assert_eq!(g.pid_of(&g.coords_of(p)), p);
        }
        assert_eq!(g.coords_of(0), vec![0, 0]);
        assert_eq!(g.coords_of(1), vec![0, 1]); // last dim fastest
        assert_eq!(g.coords_of(4), vec![1, 0]);
    }

    #[test]
    fn resolve_with_matches_coordinate_vectors() {
        let g = ProcGrid::new(vec![2, 3, 2]);
        for p in g.pids() {
            let c = g.coords_of(p);
            // No pinned dimension: the reader itself.
            assert_eq!(g.resolve_with(p, |_| None), p);
            // Pin the middle dimension, follow the reader elsewhere.
            let pinned = g.pid_of(&[c[0], 2, c[2]]);
            assert_eq!(g.resolve_with(p, |d| (d == 1).then_some(2)), pinned);
        }
    }

    #[test]
    fn line_grid() {
        let g = ProcGrid::line(8);
        assert_eq!(g.rank(), 1);
        assert_eq!(g.total(), 8);
        assert_eq!(g.coords_of(5), vec![5]);
    }

    #[test]
    fn pids_with_coord_slices() {
        let g = ProcGrid::new(vec![2, 3]);
        assert_eq!(g.pids_with_coord(0, 1), vec![3, 4, 5]);
        assert_eq!(g.pids_with_coord(1, 0), vec![0, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        ProcGrid::new(vec![4, 0]);
    }
}
