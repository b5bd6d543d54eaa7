//! A compact fixed-size bit set used by the dataflow solvers.

/// Fixed-capacity bit set over `usize` indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    pub fn capacity(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let was = *w & bit != 0;
        *w |= bit;
        !was
    }

    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }

    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
    }

    #[test]
    fn union_and_subtract() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(2);
        b.insert(1);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
        a.subtract(&b);
        assert_eq!(a.count(), 0);
    }
}
