//! Full-space and subspace dominance (Definitions 1 and 2 of the paper).
//!
//! A tuple `τ_i` *dominates* `τ_j` in subspace `V` iff `τ_i` is no worse in
//! every dimension of `V` and strictly better in at least one. Smaller values
//! are preferred throughout (§2.1).
//!
//! Dominance tests are the unit of CPU cost in the paper's evaluation
//! (Figure 10.b counts pairwise skyline comparisons), so every caller is
//! expected to funnel tests through an instrumented counter — either the
//! [`crate::stats::Stats`] sink or a plain `&mut u64`.

use crate::subspace::DimMask;
use crate::Value;

/// The outcome of relating two points under the preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomRelation {
    /// The left point dominates the right one (`a ≺ b`).
    Dominates,
    /// The left point is dominated by the right one (`b ≺ a`).
    DominatedBy,
    /// Equal on every considered dimension.
    Equal,
    /// Neither dominates the other (each is strictly better somewhere).
    Incomparable,
}

impl DomRelation {
    /// Flips the relation to the right point's perspective.
    #[inline]
    pub fn flip(self) -> DomRelation {
        match self {
            DomRelation::Dominates => DomRelation::DominatedBy,
            DomRelation::DominatedBy => DomRelation::Dominates,
            other => other,
        }
    }
}

/// Relates `a` and `b` over *all* dimensions of the slices (Definition 1).
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn relate(a: &[Value], b: &[Value]) -> DomRelation {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (x, y) in a.iter().zip(b.iter()) {
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return DomRelation::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

/// Relates `a` and `b` over the dimensions of subspace `mask` (Definition 2).
#[inline]
pub fn relate_in(a: &[Value], b: &[Value], mask: DimMask) -> DomRelation {
    let mut a_better = false;
    let mut b_better = false;
    for k in mask.iter() {
        let (x, y) = (a[k], b[k]);
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return DomRelation::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

/// Full-space dominance test: `a ≺ b` (Definition 1).
#[inline]
pub fn dominates(a: &[Value], b: &[Value]) -> bool {
    relate(a, b) == DomRelation::Dominates
}

/// Subspace dominance test: `a ≺_V b` (Definition 2).
#[inline]
pub fn dominates_in(a: &[Value], b: &[Value], mask: DimMask) -> bool {
    relate_in(a, b, mask) == DomRelation::Dominates
}

/// Weak subspace dominance: `a ⪯_V b`, i.e. `a` no worse than `b` on every
/// dimension of `V`. Used by the region-dominance predicates of Definition 8.
#[inline]
pub fn weakly_dominates_in(a: &[Value], b: &[Value], mask: DimMask) -> bool {
    mask.iter().all(|k| a[k] <= b[k])
}

/// A dominance kernel specialized for one subspace.
///
/// [`relate_in`] re-walks the bitmask (`trailing_zeros` + clear-lowest-bit)
/// on every comparison; a kernel precomputes the dimension list *once* per
/// mask and, when the subspace is the contiguous full space of a known
/// stride, relates the two point slices directly — the layout the flat
/// [`crate::store::PointStore`] hands out.
///
/// The kernel is semantics-preserving by construction: dimensions are
/// visited in the same ascending order with the same early exit as
/// [`relate_in`], so it returns the identical [`DomRelation`] for every
/// input, and callers keep counting one comparison per pairwise test —
/// `Stats`, the virtual clock and traces cannot tell the kernels apart.
#[derive(Debug, Clone)]
pub struct DomKernel {
    mask: DimMask,
    /// Precomputed ascending dimension indices of `mask`.
    dims: Vec<u32>,
    /// Specialized comparison shape, resolved once at construction.
    shape: Shape,
}

/// The comparison shape a [`DomKernel`] dispatches on: the common subspace
/// arities get straight-line code with the dimension indices held inline
/// (no per-comparison load from the `dims` heap allocation).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `mask` covers `0..d` contiguously: relate the point prefixes.
    Full(usize),
    /// One-dimensional subspace.
    Single(usize),
    /// Two-dimensional subspace (ascending indices).
    Pair(usize, usize),
    /// Anything else: loop over the precomputed `dims` list.
    General,
}

impl DomKernel {
    /// Builds the kernel for `mask` over points of `stride` dimensions.
    pub fn new(mask: DimMask, stride: usize) -> Self {
        let dims: Vec<u32> = mask.iter().map(|k| k as u32).collect();
        let shape = if mask == DimMask::full(stride) && stride > 0 {
            Shape::Full(stride)
        } else {
            match *dims.as_slice() {
                [k] => Shape::Single(k as usize),
                [i, j] => Shape::Pair(i as usize, j as usize),
                _ => Shape::General,
            }
        };
        DomKernel { mask, dims, shape }
    }

    /// The subspace this kernel relates points in.
    #[inline]
    pub fn mask(&self) -> DimMask {
        self.mask
    }

    /// The precomputed ascending dimension list.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Number of dimensions in the subspace.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the subspace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Relates `a` and `b` over the kernel's subspace — identical outcome
    /// to `relate_in(a, b, self.mask())`, without the bitmask walk.
    #[inline]
    pub fn relate(&self, a: &[Value], b: &[Value]) -> DomRelation {
        match self.shape {
            Shape::Full(d) => relate(&a[..d], &b[..d]),
            Shape::Single(k) => verdict(a[k] < b[k], b[k] < a[k]),
            Shape::Pair(i, j) => {
                // Both dimensions are examined unconditionally; the early
                // exit of the general loop only skips work, never changes
                // the verdict, so the outcome is identical.
                verdict(a[i] < b[i] || a[j] < b[j], b[i] < a[i] || b[j] < a[j])
            }
            Shape::General => {
                let mut a_better = false;
                let mut b_better = false;
                for &k in &self.dims {
                    let (x, y) = (a[k as usize], b[k as usize]);
                    if x < y {
                        a_better = true;
                    } else if y < x {
                        b_better = true;
                    }
                    if a_better && b_better {
                        return DomRelation::Incomparable;
                    }
                }
                verdict(a_better, b_better)
            }
        }
    }

    /// Subspace dominance test through the kernel.
    #[inline]
    pub fn dominates(&self, a: &[Value], b: &[Value]) -> bool {
        self.relate(a, b) == DomRelation::Dominates
    }

    /// The block path over raw values: relates the `count` contiguous
    /// member rows starting at row `first` of a flat buffer (`stride`
    /// values per row) against an out-of-buffer probe point, up to 64
    /// members in a single pass of branch-free compares per dimension,
    /// packing the two strict-improvement flags of every member into one
    /// `u64` lane each.
    ///
    /// Lane `j` of [`BlockVerdicts::dominated_members`] is set iff
    /// `relate_in(member_j, probe, self.mask())` is `DominatedBy`: both
    /// sides examine the same dimensions, and the scalar early exit only
    /// skips work, never changes the verdict.
    ///
    /// # Panics
    /// Panics in debug builds if `count > 64`.
    pub fn relate_block_rows(
        &self,
        data: &[Value],
        stride: usize,
        first: usize,
        count: usize,
        probe: &[Value],
    ) -> BlockVerdicts {
        debug_assert!(count <= 64, "block limited to 64 lanes");
        let mut member_better = 0u64;
        let mut probe_better = 0u64;
        let rows = data[first * stride..].chunks_exact(stride).take(count);
        match self.shape {
            Shape::Single(k) => {
                let pv = probe[k];
                for (j, row) in rows.enumerate() {
                    member_better |= ((row[k] < pv) as u64) << j;
                    probe_better |= ((pv < row[k]) as u64) << j;
                }
            }
            Shape::Pair(a, b) => {
                let (pa, pb) = (probe[a], probe[b]);
                for (j, row) in rows.enumerate() {
                    member_better |= (((row[a] < pa) | (row[b] < pb)) as u64) << j;
                    probe_better |= (((pa < row[a]) | (pb < row[b])) as u64) << j;
                }
            }
            Shape::Full(_) | Shape::General => {
                for (j, row) in rows.enumerate() {
                    let mut mb = false;
                    let mut pb = false;
                    for &k in &self.dims {
                        let (x, pv) = (row[k as usize], probe[k as usize]);
                        mb |= x < pv;
                        pb |= pv < x;
                    }
                    member_better |= (mb as u64) << j;
                    probe_better |= (pb as u64) << j;
                }
            }
        }
        BlockVerdicts {
            member_better,
            probe_better,
        }
    }

    /// Gathers the kernel's subspace values of `p` into `out` (cleared
    /// first): packs a probe the way [`Self::pack_append`] packs a window
    /// row, so full-slice [`relate`] on the two gives [`Self::relate`]'s
    /// verdict on the originals.
    #[inline]
    pub fn pack_into(&self, p: &[Value], out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.dims.iter().map(|&k| p[k as usize]));
    }

    /// Appends the kernel's subspace values of `p` to a packed window
    /// buffer (one more `d`-wide row).
    #[inline]
    pub fn pack_append(&self, p: &[Value], out: &mut Vec<Value>) {
        out.extend(self.dims.iter().map(|&k| p[k as usize]));
    }

    /// Packed region-dominance tests (Definition 8 case 1): bit `j` of the
    /// result is set iff member rectangle `j`'s *upper* corner weakly
    /// dominates `lo` on the kernel's subspace with strict improvement
    /// somewhere — i.e. every point of member `j` dominates every point of
    /// a region whose lower corner is `lo`. `his` is a flat row-major table
    /// of upper corners (`stride` values each) indexed by `members`.
    ///
    /// Lane `j` equals `Rect::dominates_region` of member `j` over that
    /// region for any values: an unordered (NaN) corner value fails the
    /// weak `h <= lo` test exactly as it does there.
    ///
    /// # Panics
    /// Panics in debug builds if `members.len() > 64`.
    // `!(h <= lv)` is deliberate: `h > lv` would let a NaN pass as ≤.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn dominate_block_corners(
        &self,
        his: &[Value],
        stride: usize,
        members: &[usize],
        lo: &[Value],
    ) -> u64 {
        let count = members.len();
        debug_assert!(count <= 64, "block limited to 64 lanes");
        let mut all_le = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let mut any_lt = 0u64;
        for &k in &self.dims {
            let lv = lo[k as usize];
            for (j, &m) in members.iter().enumerate() {
                let h = his[m * stride + k as usize];
                all_le &= !((!(h <= lv) as u64) << j);
                any_lt |= ((h < lv) as u64) << j;
            }
        }
        all_le & any_lt
    }

    /// The SFS monotone sorting score: the sum of `p` over the subspace
    /// dimensions, without re-walking the bitmask.
    #[inline]
    pub fn score(&self, p: &[Value]) -> Value {
        // The straight-line sums start from 0.0 like `Iterator::sum`'s fold
        // so signed zeros come out bit-identical (total_cmp tells -0.0 and
        // +0.0 apart, and SFS sorts scores with total_cmp).
        match self.shape {
            Shape::Full(d) => p[..d].iter().sum(),
            Shape::Single(k) => 0.0 + p[k],
            Shape::Pair(i, j) => 0.0 + p[i] + p[j],
            Shape::General => self.dims.iter().map(|&k| p[k as usize]).sum(),
        }
    }
}

/// Packed verdicts for a block of up to 64 member points related against a
/// single probe point — the output of [`DomKernel::relate_block_rows`].
/// Lane `j` carries the two strict-improvement flags of member `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVerdicts {
    /// Bit `j`: member `j` is strictly better than the probe somewhere.
    member_better: u64,
    /// Bit `j`: the probe is strictly better than member `j` somewhere.
    probe_better: u64,
}

impl BlockVerdicts {
    /// Lanes whose member is *dominated by* the probe.
    #[inline]
    pub fn dominated_members(&self) -> u64 {
        self.probe_better & !self.member_better
    }
}

/// Folds the two strict-improvement flags into a [`DomRelation`].
#[inline]
fn verdict(a_better: bool, b_better: bool) -> DomRelation {
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => DomRelation::Incomparable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hotels from Example 3 of the paper: (price, rating, distance, wifi).
    // Smaller-is-better on every dimension; ratings are therefore stored
    // inverted in the example below (5 → 0, 2 → 3) to match the convention.
    const H1: [Value; 4] = [200.0, 0.0, 0.5, 20.0];
    const H2: [Value; 4] = [350.0, 0.0, 0.5, 20.0];
    const H3: [Value; 4] = [89.0, 3.0, 3.0, 0.0];

    #[test]
    fn example3_full_space_dominance() {
        // h1 dominates h2 (cheaper, otherwise equal).
        assert!(dominates(&H1, &H2));
        assert!(!dominates(&H2, &H1));
        // h1 and h3 are incomparable.
        assert_eq!(relate(&H1, &H3), DomRelation::Incomparable);
        assert_eq!(relate(&H3, &H1), DomRelation::Incomparable);
    }

    #[test]
    fn example4_subspace_dominance() {
        // In subspace {price, wifi}, h3 dominates both h1 and h2.
        let v = DimMask::from_dims([0, 3]);
        assert!(dominates_in(&H3, &H1, v));
        assert!(dominates_in(&H3, &H2, v));
        assert!(!dominates_in(&H1, &H3, v));
    }

    #[test]
    fn equal_points_do_not_dominate() {
        let a = [1.0, 2.0];
        assert_eq!(relate(&a, &a), DomRelation::Equal);
        assert!(!dominates(&a, &a));
    }

    #[test]
    fn relation_flip_is_involutive() {
        for r in [
            DomRelation::Dominates,
            DomRelation::DominatedBy,
            DomRelation::Equal,
            DomRelation::Incomparable,
        ] {
            assert_eq!(r.flip().flip(), r);
        }
    }

    #[test]
    fn subspace_dominance_ignores_other_dims() {
        // a is terrible on d2 but dominates on {d1}.
        let a = [1.0, 99.0];
        let b = [2.0, 1.0];
        assert!(dominates_in(&a, &b, DimMask::singleton(0)));
        assert!(!dominates_in(&a, &b, DimMask::full(2)));
    }

    #[test]
    fn weak_dominance_allows_equality() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.0];
        assert!(weakly_dominates_in(&a, &b, DimMask::full(2)));
        assert!(!dominates_in(&a, &b, DimMask::full(2)));
    }

    #[test]
    fn dominance_is_a_strict_partial_order() {
        // Irreflexive + asymmetric spot checks.
        let pts: [[Value; 3]; 4] = [
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 3.0],
            [1.0, 1.0, 1.0],
            [3.0, 3.0, 3.0],
        ];
        for p in &pts {
            assert!(!dominates(p, p));
        }
        for a in &pts {
            for b in &pts {
                if dominates(a, b) {
                    assert!(!dominates(b, a));
                }
            }
        }
        // Transitivity on this instance: [1,1,1] ≺ [1,2,3] ≺ [3,3,3] impl.
        assert!(dominates(&pts[2], &pts[0]));
        assert!(dominates(&pts[0], &pts[3]));
        assert!(dominates(&pts[2], &pts[3]));
    }
}
