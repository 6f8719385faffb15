//! Output-cell sets as machine words.
//!
//! A region's output cells are the regular [`GRID_PARTS`]-per-dimension grid
//! over its bounds, so bit `k` of a cell's index is the cell's grid
//! coordinate in dimension `k` and a cell's corner in dimension `k` depends
//! on that one bit. A region therefore stores its cells as one
//! [`CellCorners`] table of three values per dimension, not as `2^d` boxes.
//! Up to [`MASK_DIMS`] dimensions the whole grid fits one `u64` (bit `c` =
//! cell `c`), and any per-dimension corner predicate holds on a cell set that
//! is `BIT_SET[k]`, its complement, both or neither — a dominance test over a
//! subspace is then those sets AND-ed (weak everywhere) and OR-ed (strict
//! somewhere), one word per (box, subspace) instead of one float loop per
//! cell. The corner values are the ones `Rect::grid` computes, so every float
//! comparison is the one the per-cell test would make. This is the one home
//! of that decomposition: the Definition 11 counts ([`crate::threats`]) and
//! the §6 discard
//! ([`OutputRegion::discard_dominated`](crate::OutputRegion::discard_dominated))
//! both go through it.

use crate::region::GRID_PARTS;
use caqe_types::{DimMask, Rect, Value};

// Bit `k` of a cell index is the cell's grid coordinate in dimension `k`.
const _: () = assert!(GRID_PARTS == 2);

/// Highest dimensionality whose `2^d` output cells fit one `u64` cell set.
pub(crate) const MASK_DIMS: usize = 6;

/// `BIT_SET[k]` — the cells (as bits of a `u64`) whose index has bit `k` set.
const BIT_SET: [u64; MASK_DIMS] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A region's output cells as one corner table: per dimension `k`, row 0
/// holds the lower bound of grid coordinate 0 (`lo + w·0`), row 1 the
/// midpoint (`lo + w·1`, coordinate 0's upper and coordinate 1's lower
/// bound) and row 2 `hi` — each computed with `Rect::grid`'s own
/// expression, so every comparison against a cell corner is the one a
/// per-cell box would give, NaN and signed zeros included. Bit `k` of cell
/// `c` picks the row: the cell's bounds in dimension `k` are rows `bit` and
/// `bit + 1`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellCorners {
    /// `GRID_PARTS + 1` rows of `d` values, row-major.
    rows: Box<[Value]>,
}

impl CellCorners {
    /// The table of `bounds`' grid.
    pub(crate) fn new(bounds: &Rect) -> Self {
        let d = bounds.dims();
        let mut rows = vec![0.0; (GRID_PARTS + 1) * d];
        for k in 0..d {
            let w = bounds.extent(k) / GRID_PARTS as Value;
            for i in 0..GRID_PARTS {
                rows[i * d + k] = bounds.lo()[k] + w * i as Value;
            }
            rows[GRID_PARTS * d + k] = bounds.hi()[k];
        }
        CellCorners { rows: rows.into() }
    }

    /// Dimensionality of the region.
    pub(crate) fn dims(&self) -> usize {
        self.rows.len() / (GRID_PARTS + 1)
    }

    /// Number of output cells, `2^d`.
    pub(crate) fn cells(&self) -> usize {
        1 << self.dims()
    }

    /// The lower bound in dimension `k` of the cells whose coordinate there
    /// is `bit`.
    #[inline]
    pub(crate) fn lo(&self, k: usize, bit: usize) -> Value {
        self.rows[bit * self.dims() + k]
    }

    /// The upper bound in dimension `k` of the cells whose coordinate there
    /// is `bit`.
    #[inline]
    pub(crate) fn hi(&self, k: usize, bit: usize) -> Value {
        self.rows[(bit + 1) * self.dims() + k]
    }

    /// Cell `c`'s lower and upper corner.
    pub(crate) fn cell(&self, c: usize) -> (Vec<Value>, Vec<Value>) {
        (0..self.dims())
            .map(|k| (self.lo(k, c >> k & 1), self.hi(k, c >> k & 1)))
            .unzip()
    }

    /// Whether no point componentwise at or above `floor` weakly dominates
    /// any cell's lower corner in `pref`: some dimension of `pref` has
    /// `floor[k]` above both of its lower bounds (a NaN on either side
    /// answers no).
    pub(crate) fn out_of_reach(&self, floor: &[Value], pref: DimMask) -> bool {
        pref.iter()
            .any(|k| floor[k] > self.lo(k, 0) && floor[k] > self.lo(k, 1))
    }
}

/// The cells of an `n`-cell grid (`1 <= n <= 64`).
pub(crate) fn all_cells(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// The cells whose coordinate in dimension `k` is 0 (if `at0`) or 1 (if
/// `at1`): where a predicate on dimension `k` holds, given its verdict on a
/// representative of either coordinate.
fn pick(k: usize, at0: bool, at1: bool) -> u64 {
    (if at0 { !BIT_SET[k] } else { 0 }) | (if at1 { BIT_SET[k] } else { 0 })
}

/// Which output cells of one target region a threat box may dominate, for
/// any subspace, without a per-cell `Rect` comparison: the four
/// per-dimension predicates of `Rect::relate_region` (weak/strict, for the
/// *Dominates* and the *PartiallyDominates* branch) as cell sets.
pub(crate) struct CellCover {
    full_weak: [u64; MASK_DIMS],
    full_strict: [u64; MASK_DIMS],
    part_weak: [u64; MASK_DIMS],
    part_strict: [u64; MASK_DIMS],
    /// All cells of the grid.
    all: u64,
}

impl CellCover {
    /// Requires `threat.dims() <= MASK_DIMS` and `cells` to be the table of
    /// a region of the same dimensionality.
    pub(crate) fn new(threat: &Rect, cells: &CellCorners) -> Self {
        let mut cover = CellCover {
            full_weak: [0; MASK_DIMS],
            full_strict: [0; MASK_DIMS],
            part_weak: [0; MASK_DIMS],
            part_strict: [0; MASK_DIMS],
            all: all_cells(cells.cells()),
        };
        for k in 0..threat.dims() {
            let (lo, hi) = (threat.lo()[k], threat.hi()[k]);
            let (lo0, lo1) = (cells.lo(k, 0), cells.lo(k, 1));
            let (hi0, hi1) = (cells.hi(k, 0), cells.hi(k, 1));
            cover.full_weak[k] = pick(k, hi <= lo0, hi <= lo1);
            cover.full_strict[k] = pick(k, hi < lo0, hi < lo1);
            cover.part_weak[k] = pick(k, lo <= hi0, lo <= hi1);
            cover.part_strict[k] = pick(k, lo < hi0, lo < hi1);
        }
        cover
    }

    /// The cells the threat may dominate in subspace `pref` — bit `c` set iff
    /// `threat.may_dominate_box(lo_c, hi_c, pref)` for cell `c`'s corners.
    pub(crate) fn cells(&self, pref: DimMask) -> u64 {
        let (mut full_weak, mut full_strict) = (u64::MAX, 0);
        let (mut part_weak, mut part_strict) = (u64::MAX, 0);
        for k in pref.iter() {
            full_weak &= self.full_weak[k];
            full_strict |= self.full_strict[k];
            part_weak &= self.part_weak[k];
            part_strict |= self.part_strict[k];
        }
        ((full_weak & full_strict) | (part_weak & part_strict)) & self.all
    }
}

/// `p ≺_V` every point of the box whose lower corner is `lo`: the per-cell
/// form of [`cells_dominated_by`], and the only form above [`MASK_DIMS`]
/// dimensions.
pub(crate) fn point_dominates_rect(p: &[Value], lo: &[Value], mask: DimMask) -> bool {
    let mut strict = false;
    for k in mask.iter() {
        if p[k] > lo[k] {
            return false;
        }
        if p[k] < lo[k] {
            strict = true;
        }
    }
    strict
}

/// The cells that point `p` dominates outright in subspace `pref` — bit `c`
/// set iff `point_dominates_rect(p, lo_c, pref)` for cell `c`'s lower corner.
/// Weak is `!(p[k] > lo)` and strict is `p[k] < lo`, the per-cell test's own
/// comparisons, so a NaN coordinate behaves the same in both. Requires
/// `p.len() <= MASK_DIMS` and `cells` to be the table of a region of the
/// same dimensionality.
pub(crate) fn cells_dominated_by(p: &[Value], cells: &CellCorners, pref: DimMask) -> u64 {
    let (mut weak, mut strict) = (u64::MAX, 0);
    for k in pref.iter() {
        let (lo0, lo1) = (cells.lo(k, 0), cells.lo(k, 1));
        let v = p[k];
        // `!(v > lo)`, not `v <= lo`: the per-cell test's comparison, which
        // a NaN passes.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let (weak0, weak1) = (!(v > lo0), !(v > lo1));
        weak &= pick(k, weak0, weak1);
        strict |= pick(k, v < lo0, v < lo1);
    }
    weak & strict & all_cells(cells.cells())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::arb_boxes;
    use proptest::prelude::*;

    /// A box per dimension from a ladder of extreme values — infinities,
    /// extents that overflow, signed zeros — plus zero-extent boxes.
    fn arb_extreme_box(d: usize) -> impl Strategy<Value = Rect> {
        const LADDER: [Value; 9] = [
            Value::NEG_INFINITY,
            -1e308,
            -1.5,
            -0.0,
            0.0,
            0.25,
            3.0,
            1e308,
            Value::INFINITY,
        ];
        proptest::collection::vec((0..LADDER.len(), 0..LADDER.len()), d..=d).prop_map(|dims| {
            let lo = dims.iter().map(|&(a, b)| LADDER[a.min(b)]).collect();
            let hi = dims.iter().map(|&(a, b)| LADDER[a.max(b)]).collect();
            Rect::new(lo, hi)
        })
    }

    #[test]
    fn a_point_dominates_a_box_only_with_a_strict_improvement() {
        let both = DimMask(0b11);
        assert!(point_dominates_rect(&[1.0, 1.0], &[1.0, 2.0], both));
        assert!(!point_dominates_rect(&[1.0, 2.0], &[1.0, 2.0], both));
        assert!(!point_dominates_rect(&[0.0, 3.0], &[1.0, 2.0], both));
        assert!(point_dominates_rect(
            &[0.0, 3.0],
            &[1.0, 2.0],
            DimMask(0b01)
        ));
    }

    proptest! {
        /// Every cell box read off the corner table is `Rect::grid`'s box,
        /// bit for bit — NaN from an infinite extent and the sign of a zero
        /// included.
        #[test]
        fn corner_table_equals_the_grid_bit_for_bit(
            bounds in (1usize..=7).prop_flat_map(arb_extreme_box)
        ) {
            let (cells, grid) = (CellCorners::new(&bounds), bounds.grid(GRID_PARTS));
            prop_assert_eq!(cells.cells(), grid.len());
            let bits = |v: &[Value]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (c, cell) in grid.iter().enumerate() {
                let (lo, hi) = cells.cell(c);
                prop_assert_eq!(bits(&lo), bits(cell.lo()), "cell {} of {:?}", c, bounds);
                prop_assert_eq!(bits(&hi), bits(cell.hi()), "cell {} of {:?}", c, bounds);
            }
        }

        /// The bitmask cell set is `may_dominate_region` per cell, in every
        /// subspace, including touching corners and zero-extent boxes.
        #[test]
        fn cell_cover_equals_per_cell_test(
            (d, boxes) in (1usize..=MASK_DIMS).prop_flat_map(|d| (Just(d), arb_boxes(d, 2)))
        ) {
            let grid = boxes[1].grid(GRID_PARTS);
            let cover = CellCover::new(&boxes[0], &CellCorners::new(&boxes[1]));
            prop_assert_eq!(cover.cells(DimMask::EMPTY), 0);
            for pref in DimMask::enumerate_nonempty(d) {
                let cells = cover.cells(pref);
                prop_assert_eq!(cells as u128 >> grid.len(), 0);
                for (c, cell) in grid.iter().enumerate() {
                    prop_assert_eq!(
                        cells >> c & 1 == 1,
                        boxes[0].may_dominate_region(cell, pref),
                        "threat {:?} cell {} {:?} pref {:?}", boxes[0], c, cell, pref
                    );
                }
            }
        }
    }
}
