//! Subspaces of the skyline dimension full-space (§2.1 of the paper).
//!
//! A *subspace* `V ⊆ D` is a set of dimensions over which a (sub-)skyline is
//! evaluated. We represent a subspace compactly as a bitmask over at most 32
//! dimensions, far beyond the `d ∈ [2, 5]` range the paper evaluates.

use std::fmt;

/// Maximum number of dimensions representable by a [`DimMask`].
pub const MAX_DIMS: usize = 32;

/// A set of dimension indices (a subspace), stored as a bitmask.
///
/// Bit `k` set means dimension `d_{k}` (0-based) is part of the subspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DimMask(pub u32);

impl DimMask {
    /// The empty subspace.
    pub const EMPTY: DimMask = DimMask(0);

    /// Creates a subspace from an iterator of dimension indices.
    ///
    /// # Panics
    /// Panics if any index is `>= MAX_DIMS`.
    pub fn from_dims<I: IntoIterator<Item = usize>>(dims: I) -> Self {
        let mut bits = 0u32;
        for d in dims {
            assert!(d < MAX_DIMS, "dimension index {d} out of range");
            bits |= 1 << d;
        }
        DimMask(bits)
    }

    /// The full space over `d` dimensions: `{d_0, …, d_{d-1}}`.
    ///
    /// # Panics
    /// Panics if `d > MAX_DIMS`.
    pub fn full(d: usize) -> Self {
        assert!(d <= MAX_DIMS);
        if d == MAX_DIMS {
            DimMask(u32::MAX)
        } else {
            DimMask((1u32 << d) - 1)
        }
    }

    /// A single-dimension subspace `{d_k}`.
    pub fn singleton(k: usize) -> Self {
        assert!(k < MAX_DIMS);
        DimMask(1 << k)
    }

    /// Number of dimensions in the subspace (the *level* in the lattice).
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the subspace is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether dimension `k` belongs to the subspace.
    #[inline]
    pub fn contains(self, k: usize) -> bool {
        k < MAX_DIMS && (self.0 >> k) & 1 == 1
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: DimMask) -> bool {
        self.0 & other.0 == self.0
    }

    /// Whether `self ⊂ other` (strict).
    #[inline]
    pub fn is_strict_subset_of(self, other: DimMask) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: DimMask) -> DimMask {
        DimMask(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: DimMask) -> DimMask {
        DimMask(self.0 & other.0)
    }

    /// Iterates over the dimension indices in ascending order.
    pub fn iter(self) -> DimIter {
        DimIter(self.0)
    }

    /// Enumerates every non-empty subspace of the full space over `d`
    /// dimensions — the `2^d − 1` members of the *skycube* lattice ([36] in
    /// the paper, Figure 5).
    pub fn enumerate_nonempty(d: usize) -> impl Iterator<Item = DimMask> {
        assert!(d < MAX_DIMS, "skycube enumeration limited to < 32 dims");
        (1u32..(1u32 << d)).map(DimMask)
    }
}

/// Iterator over the dimensions of a [`DimMask`], ascending.
pub struct DimIter(u32);

impl Iterator for DimIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let k = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(k)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DimIter {}

impl fmt::Debug for DimMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for DimMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, k) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "d{}", k + 1)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for DimMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        DimMask::from_dims(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_all_dims() {
        let m = DimMask::full(4);
        assert_eq!(m.len(), 4);
        for k in 0..4 {
            assert!(m.contains(k));
        }
        assert!(!m.contains(4));
    }

    #[test]
    fn singleton_and_subset() {
        let s = DimMask::singleton(2);
        let f = DimMask::full(4);
        assert!(s.is_subset_of(f));
        assert!(s.is_strict_subset_of(f));
        assert!(f.is_subset_of(f));
        assert!(!f.is_strict_subset_of(f));
    }

    #[test]
    fn set_algebra() {
        let a = DimMask::from_dims([0, 1]);
        let b = DimMask::from_dims([1, 2]);
        assert_eq!(a.union(b), DimMask::from_dims([0, 1, 2]));
        assert_eq!(a.intersect(b), DimMask::singleton(1));
    }

    #[test]
    fn iter_ascending() {
        let m = DimMask::from_dims([3, 0, 2]);
        let dims: Vec<_> = m.iter().collect();
        assert_eq!(dims, vec![0, 2, 3]);
        assert_eq!(m.iter().len(), 3);
    }

    #[test]
    fn skycube_enumeration_size() {
        // The skycube over d dims has 2^d − 1 non-empty subspaces (Fig. 5).
        for d in 1..=5 {
            assert_eq!(DimMask::enumerate_nonempty(d).count(), (1 << d) - 1);
        }
    }

    #[test]
    fn display_is_one_based() {
        let m = DimMask::from_dims([0, 2]);
        assert_eq!(m.to_string(), "{d1,d3}");
    }

    #[test]
    fn empty_mask_behaviour() {
        assert!(DimMask::EMPTY.is_empty());
        assert_eq!(DimMask::EMPTY.len(), 0);
        assert_eq!(DimMask::EMPTY.iter().count(), 0);
        assert!(DimMask::EMPTY.is_subset_of(DimMask::singleton(0)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_dim_panics() {
        let _ = DimMask::from_dims([32]);
    }
}
