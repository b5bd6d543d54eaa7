//! A run's memory: scalars, and arrays stored whole or as a box.
//!
//! The sequential interpreter, the reference executor and trace replay
//! store every array whole, at its column-major global offsets. A
//! node-program rank stores only the elements it owns: its store of an
//! array holds a *box*, the product over the array's dimensions of the
//! indices it keeps ([`HeldDim`]), laid out column-major in local order.
//! Which indices a rank keeps is the mapping's business
//! (`hpf_dist::layout::held_dims`); this module only stores them.
//!
//! The accessors by global offset ([`ArrayStore::get`],
//! [`ArrayStore::set`], [`Memory::fill_real`]) mean the same for a box as
//! for a whole array, restricted to the elements held: a `set` of an
//! element the store does not hold is dropped, which is how initial data
//! (known to every rank) reaches a box, and a `get` of one reads its
//! type's zero. Engines address elements by the subscripts they already
//! evaluated instead: [`ArrayStore::at`] gives an element's position in
//! the store, or `None` when the store does not hold it, and the engine
//! turns that into a located fault.

use crate::interp::{InterpError, Value};
use crate::program::{Program, VarId};
use crate::types::{ArrayShape, ScalarTy, VarKind};

/// The indices of one array dimension a store holds, and the local
/// position of each. The node programs' loop sets use the same type for
/// the iterations a rank visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeldDim {
    /// Indices `lo..=hi`, index `i` at position `i - lo`; none when
    /// `lo > hi`.
    Range { lo: i64, hi: i64 },
    /// The indices `i` in `lo..=hi` whose 0-based template position
    /// `p = dir·i + offset` (`dir` is 1 or -1) lies in a block dealt to
    /// `coord`: blocks of `block` positions go round `procs` coordinates,
    /// so `(p div block) mod procs = coord`. Index `i` sits at position
    /// `(p div (block·procs))·block + p mod block - base`, and the `len`
    /// held indices fill positions `0..len`. Every `p` of `lo..=hi` is in
    /// the template.
    Cyclic {
        lo: i64,
        hi: i64,
        dir: i64,
        offset: i64,
        block: i64,
        procs: i64,
        coord: i64,
        base: i64,
        len: i64,
    },
    /// Any other set: the held indices, ascending, each at its position
    /// in the list.
    Listed(Vec<i64>),
}

impl HeldDim {
    /// No index.
    pub const EMPTY: HeldDim = HeldDim::Range { lo: 1, hi: 0 };

    /// How many indices are held.
    pub fn count(&self) -> usize {
        match *self {
            HeldDim::Range { lo, hi } => (hi - lo + 1).max(0) as usize,
            HeldDim::Cyclic { len, .. } => len as usize,
            HeldDim::Listed(ref v) => v.len(),
        }
    }

    /// Does this hold every index of `lo..=hi` and nothing else?
    pub fn is_range(&self, lo: i64, hi: i64) -> bool {
        *self == HeldDim::Range { lo, hi }
    }

    /// The position of index `i`, `None` when it is not held.
    #[inline]
    pub fn local(&self, i: i64) -> Option<usize> {
        match *self {
            HeldDim::Range { lo, hi } => (lo..=hi).contains(&i).then(|| (i - lo) as usize),
            HeldDim::Cyclic {
                lo,
                hi,
                dir,
                offset,
                block,
                procs,
                coord,
                base,
                ..
            } => {
                if i < lo || i > hi {
                    return None;
                }
                let p = dir * i + offset;
                if (p / block) % procs != coord {
                    return None;
                }
                Some(((p / (block * procs)) * block + p % block - base) as usize)
            }
            HeldDim::Listed(ref v) => v.binary_search(&i).ok(),
        }
    }

    /// The held indices in position order.
    pub fn indices(&self) -> Vec<i64> {
        match *self {
            HeldDim::Range { lo, hi } => (lo..=hi).collect(),
            HeldDim::Cyclic {
                dir,
                offset,
                block,
                procs,
                coord,
                base,
                len,
                ..
            } => {
                // The position `base` is the first held template position.
                let mut p = (base / block) * block * procs + coord * block + base % block;
                let mut out = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    out.push(dir * (p - offset));
                    p += 1;
                    if p % block == 0 {
                        p += (procs - 1) * block;
                    }
                }
                out
            }
            HeldDim::Listed(ref v) => v.clone(),
        }
    }
}

/// The elements of an array a store holds: the product of one
/// [`HeldDim`] per dimension, column-major in position order.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldBox {
    dims: Vec<HeldDim>,
    /// Position stride of each dimension.
    strides: Vec<usize>,
    len: usize,
    /// The declared shape, for global offsets.
    shape: ArrayShape,
}

impl HeldBox {
    /// The box `dims` (one per dimension) of an array of `shape`.
    pub fn new(shape: &ArrayShape, dims: Vec<HeldDim>) -> HeldBox {
        let mut strides = Vec::with_capacity(dims.len());
        let mut len = 1usize;
        for d in &dims {
            strides.push(len);
            len = len.saturating_mul(d.count());
        }
        HeldBox {
            dims,
            strides,
            len,
            shape: shape.clone(),
        }
    }

    pub fn dims(&self) -> &[HeldDim] {
        &self.dims
    }

    /// Number of elements held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does the box hold every element of its array?
    pub fn is_whole(&self) -> bool {
        self.dims
            .iter()
            .zip(&self.shape.dims)
            .all(|(d, &(lo, hi))| d.is_range(lo, hi))
    }

    /// The position of element `idx`, `None` when it is not held.
    #[inline]
    pub fn local(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut k = 0;
        for ((d, &i), &stride) in self.dims.iter().zip(idx).zip(&self.strides) {
            k += d.local(i)? * stride;
        }
        Some(k)
    }

    /// The position of the element at global offset `off`.
    fn local_of_offset(&self, off: usize) -> Option<usize> {
        if off >= self.shape.len() as usize {
            return None;
        }
        self.local(&self.shape.delinearize(off))
    }

    /// Call `f(position, global offset)` for every held element, in
    /// position order.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        if self.len == 0 {
            return;
        }
        // Per dimension: the global offset contribution of each held
        // index, in position order.
        let mut global_stride = 1usize;
        let mut parts: Vec<Vec<usize>> = Vec::with_capacity(self.dims.len());
        for (d, &(lo, hi)) in self.dims.iter().zip(&self.shape.dims) {
            parts.push(
                d.indices()
                    .into_iter()
                    .map(|i| (i - lo) as usize * global_stride)
                    .collect(),
            );
            global_stride *= (hi - lo + 1) as usize;
        }
        let mut at = vec![0usize; parts.len()];
        for k in 0..self.len {
            f(k, at.iter().zip(&parts).map(|(&j, p)| p[j]).sum());
            for (j, p) in at.iter_mut().zip(&parts) {
                *j += 1;
                if *j < p.len() {
                    break;
                }
                *j = 0;
            }
        }
    }
}

/// Array elements, one vector per elemental type.
#[derive(Debug, Clone, PartialEq)]
pub enum Elems {
    Int(Vec<i64>),
    Real(Vec<f64>),
    Bool(Vec<bool>),
}

/// One array's storage: every element at its global offset, or a box.
#[derive(Clone, PartialEq)]
pub struct ArrayStore {
    elems: Elems,
    /// `None`: the whole array.
    held: Option<Box<HeldBox>>,
}

/// A whole array prints as its elements alone.
impl std::fmt::Debug for ArrayStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.held {
            None => self.elems.fmt(f),
            Some(held) => f
                .debug_struct("Boxed")
                .field("elems", &self.elems)
                .field("held", held)
                .finish(),
        }
    }
}

impl ArrayStore {
    /// A whole array of `len` elements.
    pub fn zeroed(ty: ScalarTy, len: usize) -> ArrayStore {
        ArrayStore {
            elems: zeros(ty, len),
            held: None,
        }
    }

    /// A store of the elements of `held`; a box of the whole array is
    /// stored whole.
    pub fn boxed(ty: ScalarTy, held: HeldBox) -> ArrayStore {
        if held.is_whole() {
            return ArrayStore::zeroed(ty, held.len());
        }
        ArrayStore {
            elems: zeros(ty, held.len()),
            held: Some(Box::new(held)),
        }
    }

    /// The box, `None` for a whole array.
    pub fn held(&self) -> Option<&HeldBox> {
        self.held.as_deref()
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match &self.elems {
            Elems::Int(v) => v.len(),
            Elems::Real(v) => v.len(),
            Elems::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of element storage.
    pub fn bytes(&self) -> usize {
        let ty = match &self.elems {
            Elems::Int(_) => ScalarTy::Int,
            Elems::Real(_) => ScalarTy::Real,
            Elems::Bool(_) => ScalarTy::Bool,
        };
        self.len() * stored_bytes(ty)
    }

    #[inline]
    fn position(&self, off: usize) -> Option<usize> {
        match &self.held {
            None => Some(off),
            Some(b) => b.local_of_offset(off),
        }
    }

    /// The element at global offset `off`; one a box does not hold reads
    /// as its type's zero.
    #[inline]
    pub fn get(&self, off: usize) -> Value {
        self.load(self.position(off).unwrap_or(usize::MAX))
    }

    /// The element at global offset `off`, `None` when not held.
    #[inline]
    pub fn try_get(&self, off: usize) -> Option<Value> {
        self.position(off).map(|k| self.load(k))
    }

    /// Set the element at global offset `off`; a box drops an element it
    /// does not hold.
    #[inline]
    pub fn set(&mut self, off: usize, val: Value) -> Result<(), InterpError> {
        match self.position(off) {
            Some(k) => self.store(k, val),
            None => Ok(()),
        }
    }

    /// The position of element `idx`, whose global offset is `off`:
    /// `None` when the store does not hold it.
    #[inline]
    pub fn at(&self, idx: &[i64], off: usize) -> Option<usize> {
        match &self.held {
            None => Some(off),
            Some(b) => b.local(idx),
        }
    }

    /// The element at position `k` (from [`ArrayStore::at`]); a position
    /// past the end reads as the type's zero.
    #[inline]
    pub fn load(&self, k: usize) -> Value {
        match &self.elems {
            Elems::Int(v) => Value::Int(v.get(k).copied().unwrap_or(0)),
            Elems::Real(v) => Value::Real(v.get(k).copied().unwrap_or(0.0)),
            Elems::Bool(v) => Value::Bool(v.get(k).copied().unwrap_or(false)),
        }
    }

    /// Store `val` at position `k` (from [`ArrayStore::at`]).
    #[inline]
    pub fn store(&mut self, k: usize, val: Value) -> Result<(), InterpError> {
        match &mut self.elems {
            Elems::Int(v) => v[k] = val.as_int()?,
            Elems::Real(v) => v[k] = val.as_real()?,
            Elems::Bool(v) => v[k] = val.as_bool()?,
        }
        Ok(())
    }
}

/// Bytes one stored element of type `ty` takes in memory (not its
/// Fortran size on the wire).
pub fn stored_bytes(ty: ScalarTy) -> usize {
    match ty {
        ScalarTy::Int => std::mem::size_of::<i64>(),
        ScalarTy::Real => std::mem::size_of::<f64>(),
        ScalarTy::Bool => std::mem::size_of::<bool>(),
    }
}

fn zeros(ty: ScalarTy, len: usize) -> Elems {
    match ty {
        ScalarTy::Int => Elems::Int(vec![0; len]),
        ScalarTy::Real => Elems::Real(vec![0.0; len]),
        ScalarTy::Bool => Elems::Bool(vec![false; len]),
    }
}

/// Flat memory for one run: scalars and arrays indexed by [`VarId`].
/// All storage is zero-initialized (documented deviation from Fortran's
/// "undefined" semantics; it makes runs deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    pub scalars: Vec<Value>,
    pub arrays: Vec<Option<ArrayStore>>,
}

impl Memory {
    /// Every array whole.
    pub fn zeroed(p: &Program) -> Memory {
        Memory::boxed(p, |_, _| None)
    }

    /// Array `v` of shape `s` holds the box `held(v, s)`, or the whole
    /// array where that is `None`.
    pub fn boxed(
        p: &Program,
        mut held: impl FnMut(VarId, &ArrayShape) -> Option<Vec<HeldDim>>,
    ) -> Memory {
        let mut scalars = Vec::with_capacity(p.vars.len());
        let mut arrays = Vec::with_capacity(p.vars.len());
        for (v, info) in p.vars.iter() {
            scalars.push(Value::zero(info.ty));
            arrays.push(match &info.kind {
                VarKind::Scalar => None,
                VarKind::Array(shape) => Some(match held(v, shape) {
                    Some(dims) => ArrayStore::boxed(info.ty, HeldBox::new(shape, dims)),
                    None => ArrayStore::zeroed(info.ty, shape.len() as usize),
                }),
            });
        }
        Memory { scalars, arrays }
    }

    pub fn set_scalar(&mut self, v: VarId, val: Value) {
        self.scalars[v.index()] = val;
    }

    pub fn scalar(&self, v: VarId) -> Value {
        self.scalars[v.index()]
    }

    pub fn array(&self, v: VarId) -> &ArrayStore {
        self.arrays[v.index()].as_ref().expect("not an array")
    }

    pub fn array_mut(&mut self, v: VarId) -> &mut ArrayStore {
        self.arrays[v.index()].as_mut().expect("not an array")
    }

    /// Fill a real array from a slice of the whole array (column-major
    /// order); a box takes the elements it holds.
    pub fn fill_real(&mut self, v: VarId, data: &[f64]) {
        let store = self.array_mut(v);
        let Elems::Real(dst) = &mut store.elems else {
            panic!("fill_real on non-real array");
        };
        match &store.held {
            None => {
                assert_eq!(dst.len(), data.len());
                dst.copy_from_slice(data);
            }
            Some(b) => {
                assert_eq!(b.shape.len() as usize, data.len());
                b.for_each(|k, off| dst[k] = data[off]);
            }
        }
    }

    /// A real array's stored elements as a flat slice: the whole array in
    /// column-major order, or a box's elements in position order.
    pub fn real_slice(&self, v: VarId) -> &[f64] {
        match &self.array(v).elems {
            Elems::Real(d) => d,
            _ => panic!("real_slice on non-real array"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn program() -> (Program, VarId, VarId) {
        let p = parse_program("REAL A(6,4)\nINTEGER K(8)\n").unwrap();
        let (a, k) = (p.vars.lookup("a").unwrap(), p.vars.lookup("k").unwrap());
        (p, a, k)
    }

    /// A(6,4) holding rows 2..4 of columns 2, 4 (cyclic over two
    /// coordinates, coordinate 1) and K(8) holding nothing.
    fn boxed(p: &Program, a: VarId) -> Memory {
        Memory::boxed(p, |v, _| {
            Some(if v == a {
                let cols = HeldDim::Cyclic {
                    lo: 1,
                    hi: 4,
                    dir: 1,
                    offset: -1,
                    block: 1,
                    procs: 2,
                    coord: 1,
                    base: 0,
                    len: 2,
                };
                vec![HeldDim::Range { lo: 2, hi: 4 }, cols]
            } else {
                vec![HeldDim::EMPTY]
            })
        })
    }

    fn held(i: i64, j: i64) -> bool {
        (2..=4).contains(&i) && j % 2 == 0
    }

    #[test]
    fn boxed_store_round_trips_by_global_offset() {
        let (p, a, k) = program();
        let mut mem = boxed(&p, a);
        assert_eq!(mem.array(a).len(), 6);
        assert!(mem.array(k).is_empty());
        let shape = p.vars.info(a).shape().unwrap().clone();
        let data: Vec<f64> = (0..24).map(|x| x as f64 + 0.5).collect();
        mem.fill_real(a, &data);
        for (off, &x) in data.iter().enumerate() {
            let idx = shape.delinearize(off);
            let want = held(idx[0], idx[1]).then_some(Value::Real(x));
            assert_eq!(mem.array(a).try_get(off), want, "{idx:?}");
            let got = mem.array(a).get(off);
            assert_eq!(got, want.unwrap_or(Value::Real(0.0)), "{idx:?}");
        }
        // Position order: column 2 rows 2..4, then column 4.
        assert_eq!(mem.real_slice(a), &[7.5, 8.5, 9.5, 19.5, 20.5, 21.5]);
        // A held element takes a set; another one is dropped.
        mem.array_mut(a)
            .set(shape.linearize(&[3, 4]), Value::Real(-1.0))
            .unwrap();
        mem.array_mut(a)
            .set(shape.linearize(&[3, 3]), Value::Real(-2.0))
            .unwrap();
        assert_eq!(mem.real_slice(a), &[7.5, 8.5, 9.5, 19.5, -1.0, 21.5]);
        // By subscripts: the position, or nothing outside the box.
        assert_eq!(mem.array(a).at(&[3, 4], shape.linearize(&[3, 4])), Some(4));
        assert_eq!(mem.array(a).at(&[3, 3], shape.linearize(&[3, 3])), None);
        assert_eq!(mem.array(a).at(&[1, 2], shape.linearize(&[1, 2])), None);
        assert_eq!(mem.array(a).at(&[3], 0), None, "wrong rank");
    }

    #[test]
    fn an_empty_box_holds_nothing_and_drops_every_set() {
        let (p, a, k) = program();
        let mut mem = boxed(&p, a);
        let store = mem.array_mut(k);
        assert_eq!((store.len(), store.bytes()), (0, 0));
        for off in 0..8 {
            store.set(off, Value::Int(7)).unwrap();
            assert_eq!(store.try_get(off), None);
            assert_eq!(store.get(off), Value::Int(0));
            assert_eq!(store.at(&[off as i64 + 1], off), None);
        }
        assert!(store.held().is_some_and(HeldBox::is_empty));
    }

    #[test]
    fn a_box_of_the_whole_array_is_stored_whole() {
        let (p, a, _) = program();
        let mem = Memory::boxed(&p, |_, s| {
            Some(
                s.dims
                    .iter()
                    .map(|&(lo, hi)| HeldDim::Range { lo, hi })
                    .collect(),
            )
        });
        assert_eq!(mem, Memory::zeroed(&p));
        assert!(mem.array(a).held().is_none());
        assert_eq!(mem.array(a).at(&[6, 4], 23), Some(23));
    }

    #[test]
    fn cyclic_indices_follow_positions() {
        // CYCLIC(2) over 3 coordinates of positions 0..=13 at coordinate
        // 1, reversed (dir -1): index i has position 13 - i.
        let d = HeldDim::Cyclic {
            lo: 0,
            hi: 13,
            dir: -1,
            offset: 13,
            block: 2,
            procs: 3,
            coord: 1,
            base: 0,
            len: 4,
        };
        let owned: Vec<i64> = (0..=13).filter(|&i| ((13 - i) / 2) % 3 == 1).collect();
        assert_eq!(owned.len(), d.count());
        for (k, i) in d.indices().into_iter().enumerate() {
            assert_eq!(d.local(i), Some(k), "index {i}");
        }
        let mut by_position = owned.clone();
        by_position.sort_by_key(|&i| d.local(i));
        assert_eq!(d.indices(), by_position);
        assert!((0..=13)
            .filter(|i| !owned.contains(i))
            .all(|i| d.local(i).is_none()));
    }
}
