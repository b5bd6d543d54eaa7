//! Variable types and shapes.

/// The elemental type of a scalar or of an array's elements.
///
/// The paper's programs only need Fortran `INTEGER`, `REAL` (we use f64
/// precision, matching `REAL*8` in the benchmark codes) and `LOGICAL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    Int,
    Real,
    Bool,
}

impl ScalarTy {
    /// Size in bytes as transmitted over the network by the SPMD runtime and
    /// charged by the communication cost model (Fortran `INTEGER*4`,
    /// `REAL*8`, `LOGICAL*4`).
    pub fn byte_size(self) -> usize {
        match self {
            ScalarTy::Int => 4,
            ScalarTy::Real => 8,
            ScalarTy::Bool => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ScalarTy::Int => "INTEGER",
            ScalarTy::Real => "REAL",
            ScalarTy::Bool => "LOGICAL",
        }
    }
}

/// Declared shape of an array: per-dimension inclusive bounds
/// `lo(d)..=hi(d)`, Fortran-style (default lower bound 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayShape {
    pub dims: Vec<(i64, i64)>,
}

impl ArrayShape {
    /// A shape with 1-based dimensions of the given extents.
    pub fn of_extents(extents: &[i64]) -> Self {
        ArrayShape {
            dims: extents.iter().map(|&e| (1, e)).collect(),
        }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d` (0-based dimension index).
    pub fn extent(&self, d: usize) -> i64 {
        let (lo, hi) = self.dims[d];
        (hi - lo + 1).max(0)
    }

    /// Total number of elements.
    pub fn len(&self) -> i64 {
        self.dims.iter().map(|&(lo, hi)| (hi - lo + 1).max(0)).product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column-major (Fortran) linearization of a global index tuple.
    /// Panics if the index is out of bounds.
    pub fn linearize(&self, idx: &[i64]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off: i64 = 0;
        let mut stride: i64 = 1;
        for (d, &(lo, hi)) in self.dims.iter().enumerate() {
            let i = idx[d];
            assert!(
                i >= lo && i <= hi,
                "index {} out of bounds {}..={} in dim {}",
                i,
                lo,
                hi,
                d
            );
            off += (i - lo) * stride;
            stride *= hi - lo + 1;
        }
        off as usize
    }

    /// Inverse of [`ArrayShape::linearize`].
    pub fn delinearize(&self, off: usize) -> Vec<i64> {
        let mut idx = Vec::with_capacity(self.dims.len());
        self.delinearize_into(off, &mut idx);
        idx
    }

    /// [`ArrayShape::delinearize`] into a reused buffer.
    pub fn delinearize_into(&self, mut off: usize, idx: &mut Vec<i64>) {
        idx.clear();
        for &(lo, hi) in &self.dims {
            let ext = (hi - lo + 1) as usize;
            idx.push(lo + (off % ext) as i64);
            off /= ext;
        }
    }

    /// True if `idx` lies within the declared bounds.
    pub fn contains(&self, idx: &[i64]) -> bool {
        idx.len() == self.dims.len()
            && idx
                .iter()
                .zip(&self.dims)
                .all(|(&i, &(lo, hi))| i >= lo && i <= hi)
    }
}

/// Whether a variable is a scalar or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum VarKind {
    Scalar,
    Array(ArrayShape),
}

/// A declared variable: name, elemental type and kind.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    pub name: String,
    pub ty: ScalarTy,
    pub kind: VarKind,
}

impl VarInfo {
    pub fn scalar(name: impl Into<String>, ty: ScalarTy) -> Self {
        VarInfo {
            name: name.into(),
            ty,
            kind: VarKind::Scalar,
        }
    }

    pub fn array(name: impl Into<String>, ty: ScalarTy, shape: ArrayShape) -> Self {
        VarInfo {
            name: name.into(),
            ty,
            kind: VarKind::Array(shape),
        }
    }

    pub fn is_array(&self) -> bool {
        matches!(self.kind, VarKind::Array(_))
    }

    pub fn shape(&self) -> Option<&ArrayShape> {
        match &self.kind {
            VarKind::Array(s) => Some(s),
            VarKind::Scalar => None,
        }
    }

    pub fn rank(&self) -> usize {
        self.shape().map_or(0, |s| s.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip_small() {
        let s = ArrayShape {
            dims: vec![(1, 3), (0, 2), (2, 4)],
        };
        assert_eq!(s.len(), 27);
        for off in 0..s.len() as usize {
            let idx = s.delinearize(off);
            assert_eq!(s.linearize(&idx), off);
            assert!(s.contains(&idx));
        }
    }

    #[test]
    fn column_major_order() {
        // Fortran order: first index varies fastest.
        let s = ArrayShape::of_extents(&[4, 3]);
        assert_eq!(s.linearize(&[1, 1]), 0);
        assert_eq!(s.linearize(&[2, 1]), 1);
        assert_eq!(s.linearize(&[1, 2]), 4);
    }

    #[test]
    fn extent_and_len() {
        let s = ArrayShape::of_extents(&[5, 7]);
        assert_eq!(s.extent(0), 5);
        assert_eq!(s.extent(1), 7);
        assert_eq!(s.len(), 35);
        assert!(!s.is_empty());
    }

    #[test]
    fn byte_sizes_match_fortran() {
        assert_eq!(ScalarTy::Int.byte_size(), 4);
        assert_eq!(ScalarTy::Real.byte_size(), 8);
        assert_eq!(ScalarTy::Bool.byte_size(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn linearize_oob_panics() {
        let s = ArrayShape::of_extents(&[3]);
        s.linearize(&[4]);
    }

    #[test]
    fn contains_rejects_wrong_rank() {
        let s = ArrayShape::of_extents(&[3, 3]);
        assert!(!s.contains(&[1]));
        assert!(s.contains(&[3, 3]));
        assert!(!s.contains(&[0, 1]));
    }
}
