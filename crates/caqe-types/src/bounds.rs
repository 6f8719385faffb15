//! Axis-aligned boxes and the region-dominance algebra of Definition 8.
//!
//! Quad-tree leaf cells (input space, §5.1) and output regions (§5.2) are
//! both axis-aligned boxes `[lo, hi]`. Definition 8 characterizes the
//! relationship between two regions `R_i(l_i, u_i)` and `R_j(l_j, u_j)` in a
//! subspace `V`:
//!
//! 1. `R_i` **dominates** `R_j` if `u_i ⪯_V l_j` — every point of `R_i`
//!    dominates every point of `R_j`;
//! 2. `R_i` **partially dominates** `R_j` if some point of `R_i` can dominate
//!    some point of `R_j` (`l_i ⪯_V u_j` and strictly better somewhere) but
//!    not (1);
//! 3. otherwise they are **incomparable**.

use crate::dominance::weakly_dominates_in;
use crate::subspace::DimMask;
use crate::Value;

/// How two boxes relate under Definition 8 in a given subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionRelation {
    /// Every point of the left box dominates every point of the right box.
    Dominates,
    /// Some point of the left box may dominate some point of the right box.
    PartiallyDominates,
    /// No point of the left box can dominate any point of the right box.
    Incomparable,
}

/// An axis-aligned box `[lo, hi]` in `d`-dimensional value space.
///
/// Invariant: `lo.len() == hi.len()` and `lo[k] <= hi[k]` for all `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<Value>,
    hi: Vec<Value>,
}

impl Rect {
    /// Creates a box from its lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners have different arity or `lo[k] > hi[k]`.
    pub fn new(lo: Vec<Value>, hi: Vec<Value>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner arity mismatch");
        for k in 0..lo.len() {
            assert!(
                lo[k] <= hi[k],
                "invalid bounds on dim {k}: lo={} > hi={}",
                lo[k],
                hi[k]
            );
        }
        Rect { lo, hi }
    }

    /// The degenerate box containing a single point.
    pub fn point(p: &[Value]) -> Self {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// The smallest box enclosing a non-empty set of points.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for p in it {
            for k in 0..lo.len() {
                if p[k] < lo[k] {
                    lo[k] = p[k];
                }
                if p[k] > hi[k] {
                    hi[k] = p[k];
                }
            }
        }
        Some(Rect { lo, hi })
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner (best possible point of the box under the preference).
    #[inline]
    pub fn lo(&self) -> &[Value] {
        &self.lo
    }

    /// Upper corner (worst possible point of the box under the preference).
    #[inline]
    pub fn hi(&self) -> &[Value] {
        &self.hi
    }

    /// Side length along dimension `k`.
    #[inline]
    pub fn extent(&self, k: usize) -> Value {
        self.hi[k] - self.lo[k]
    }

    /// Whether the point lies inside the (closed) box.
    pub fn contains_point(&self, p: &[Value]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        (0..self.dims()).all(|k| self.lo[k] <= p[k] && p[k] <= self.hi[k])
    }

    /// Whether two boxes overlap (closed intersection non-empty).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        (0..self.dims()).all(|k| self.lo[k] <= other.hi[k] && other.lo[k] <= self.hi[k])
    }

    /// Relates `self` to `other` in subspace `mask` per Definition 8.
    ///
    /// The test is conservative in exactly the way the paper needs it:
    /// *Dominates* is a guarantee over every pair of member points;
    /// *PartiallyDominates* means domination of some future tuple pair is
    /// possible and must be accounted for in the dependency graph.
    pub fn relate_region(&self, other: &Rect, mask: DimMask) -> RegionRelation {
        self.relate_box(&other.lo, &other.hi, mask)
    }

    /// [`relate_region`](Self::relate_region) against the box with corners
    /// `lo` and `hi`, given as slices.
    fn relate_box(&self, lo: &[Value], hi: &[Value], mask: DimMask) -> RegionRelation {
        // Full domination: worst point of self ⪯ best point of other, and
        // strictly better somewhere (guaranteed when not all-equal).
        if weakly_dominates_in(&self.hi, lo, mask) && mask.iter().any(|k| self.hi[k] < lo[k]) {
            return RegionRelation::Dominates;
        }
        // Possible domination: best point of self ⪯ worst point of other
        // with strict improvement possible somewhere.
        if weakly_dominates_in(&self.lo, hi, mask) && mask.iter().any(|k| self.lo[k] < hi[k]) {
            return RegionRelation::PartiallyDominates;
        }
        RegionRelation::Incomparable
    }

    /// Whether every point of `self` dominates every point of `other` in
    /// subspace `mask` (case 1 of Definition 8).
    pub fn dominates_region(&self, other: &Rect, mask: DimMask) -> bool {
        self.relate_region(other, mask) == RegionRelation::Dominates
    }

    /// Whether some point of `self` may dominate some point of `other`
    /// (cases 1 or 2 of Definition 8). This is the edge predicate of the
    /// dependency graph (Definition 9).
    pub fn may_dominate_region(&self, other: &Rect, mask: DimMask) -> bool {
        self.may_dominate_box(&other.lo, &other.hi, mask)
    }

    /// [`may_dominate_region`](Self::may_dominate_region) against the box
    /// with corners `lo` and `hi`, given as slices: an output cell's corners
    /// are read off its region's corner table, not stored as a `Rect`.
    pub fn may_dominate_box(&self, lo: &[Value], hi: &[Value], mask: DimMask) -> bool {
        self.relate_box(lo, hi, mask) != RegionRelation::Incomparable
    }

    /// Whether the lower corner of `self` dominates the given point in the
    /// subspace — i.e. whether a *future* tuple materializing anywhere in
    /// `self` could dominate `p`. Used by safe progressive emission (§6).
    pub fn may_dominate_point(&self, p: &[Value], mask: DimMask) -> bool {
        weakly_dominates_in(&self.lo, p, mask) && mask.iter().any(|k| self.lo[k] < p[k])
    }

    /// Splits the box into a regular grid of `parts` cells per dimension of
    /// `mask_dims` (all dimensions), returning the sub-boxes in row-major
    /// order. The reference a region's output-cell corner table is tested
    /// against (`caqe-regions`).
    #[allow(clippy::needless_range_loop)] // odometer indexing is clearest
    pub fn grid(&self, parts: usize) -> Vec<Rect> {
        assert!(parts >= 1);
        let d = self.dims();
        let total = parts.pow(d as u32);
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; d];
        loop {
            let mut lo = Vec::with_capacity(d);
            let mut hi = Vec::with_capacity(d);
            for k in 0..d {
                let w = self.extent(k) / parts as Value;
                lo.push(self.lo[k] + w * idx[k] as Value);
                hi.push(if idx[k] + 1 == parts {
                    self.hi[k]
                } else {
                    self.lo[k] + w * (idx[k] + 1) as Value
                });
            }
            out.push(Rect { lo, hi });
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == d {
                    return out;
                }
                idx[k] += 1;
                if idx[k] < parts {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// The centroid of the box.
    pub fn center(&self) -> Vec<Value> {
        (0..self.dims())
            .map(|k| (self.lo[k] + self.hi[k]) / 2.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[Value], hi: &[Value]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn example16_region_relations() {
        // Regions from Example 16 of the paper (4-dimensional).
        let r1 = rect(&[6.0, 8.0, 8.0, 4.0], &[8.0, 10.0, 10.0, 6.0]);
        let r2 = rect(&[8.0, 6.0, 6.0, 5.0], &[10.0, 8.0, 8.0, 7.0]);
        let r3 = rect(&[7.0, 5.0, 4.0, 1.0], &[9.0, 7.0, 6.0, 4.0]);

        let d1 = DimMask::singleton(0);
        let d2 = DimMask::singleton(1);
        let d3 = DimMask::singleton(2);
        let d4 = DimMask::singleton(3);

        // R1 is best (non-dominated) on d1: no other region fully dominates it.
        assert!(!r2.dominates_region(&r1, d1));
        assert!(!r3.dominates_region(&r1, d1));
        // R3 is non-dominated on d2, d3, d4.
        for m in [d2, d3, d4] {
            assert!(!r1.dominates_region(&r3, m));
            assert!(!r2.dominates_region(&r3, m));
        }
        // R3 fully dominates R1 on d3: hi(r3)[2]=6 < lo(r1)[2]=8.
        assert!(r3.dominates_region(&r1, d3));
        // R3 fully dominates R1 on {d3,d4}.
        assert!(r3.dominates_region(&r1, DimMask::from_dims([2, 3])));
    }

    #[test]
    fn partial_domination_detected() {
        let a = rect(&[0.0, 0.0], &[5.0, 5.0]);
        let b = rect(&[3.0, 3.0], &[8.0, 8.0]);
        let m = DimMask::full(2);
        assert_eq!(a.relate_region(&b, m), RegionRelation::PartiallyDominates);
        // b's best point (3,3) cannot dominate a's worst (5,5)? It can:
        // 3 < 5 on both dims, so b also partially dominates a.
        assert_eq!(b.relate_region(&a, m), RegionRelation::PartiallyDominates);
    }

    #[test]
    fn full_domination_requires_strictness() {
        let a = rect(&[1.0, 1.0], &[2.0, 2.0]);
        let b = rect(&[2.0, 2.0], &[3.0, 3.0]);
        let m = DimMask::full(2);
        // hi(a) == lo(b): weak but not strict anywhere → not full domination,
        // but partial domination is possible.
        assert_eq!(a.relate_region(&b, m), RegionRelation::PartiallyDominates);

        let c = rect(&[4.0, 4.0], &[5.0, 5.0]);
        assert_eq!(a.relate_region(&c, m), RegionRelation::Dominates);
        assert_eq!(c.relate_region(&a, m), RegionRelation::Incomparable);
    }

    #[test]
    fn may_dominate_point_uses_lower_corner() {
        let r = rect(&[2.0, 2.0], &[9.0, 9.0]);
        let m = DimMask::full(2);
        assert!(r.may_dominate_point(&[5.0, 5.0], m));
        assert!(!r.may_dominate_point(&[1.0, 5.0], m));
        assert!(!r.may_dominate_point(&[2.0, 2.0], m)); // equality only
    }

    #[test]
    fn bounding_box_of_points() {
        let pts: Vec<Vec<Value>> = vec![vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 9.0]];
        let r = Rect::bounding(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(r.lo(), &[1.0, 2.0]);
        assert_eq!(r.hi(), &[3.0, 9.0]);
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn grid_partitions_exactly() {
        let r = rect(&[0.0, 0.0], &[4.0, 8.0]);
        let g = r.grid(2);
        assert_eq!(g.len(), 4);
        // Cells tile the box: all corners inside, union covers corners.
        for c in &g {
            assert!(r.contains_point(c.lo()));
            assert!(r.contains_point(c.hi()));
        }
        assert!(g.iter().any(|c| c.lo() == [0.0, 0.0]));
        assert!(g.iter().any(|c| c.hi() == [4.0, 8.0]));
    }

    #[test]
    fn grid_one_is_identity() {
        let r = rect(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        let g = r.grid(1);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], r);
    }

    #[test]
    fn intersects_and_contains() {
        let a = rect(&[0.0, 0.0], &[2.0, 2.0]);
        let b = rect(&[2.0, 2.0], &[3.0, 3.0]);
        let c = rect(&[2.1, 2.1], &[3.0, 3.0]);
        assert!(a.intersects(&b)); // closed boxes touch
        assert!(!a.intersects(&c));
        assert!(a.contains_point(&[1.0, 1.0]));
        assert!(!a.contains_point(&[1.0, 2.5]));
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = rect(&[1.0], &[0.0]);
    }
}
