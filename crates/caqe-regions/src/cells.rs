//! Output-cell sets as machine words.
//!
//! A region's output cells are the regular [`GRID_PARTS`]-per-dimension grid
//! over its bounds, so bit `k` of a cell's index is the cell's grid
//! coordinate in dimension `k` and a cell's corner in dimension `k` depends
//! on that one bit. Up to [`MASK_DIMS`] dimensions the whole grid fits one
//! `u64` (bit `c` = cell `c`), and any per-dimension corner predicate holds
//! on a cell set that is `BIT_SET[k]`, its complement, both or neither — a
//! dominance test over a subspace is then those sets AND-ed (weak
//! everywhere) and OR-ed (strict somewhere), one word per (box, subspace)
//! instead of one float loop per cell. The corner values are read from the
//! stored grid boxes, so every float comparison is the one the per-cell test
//! would make. This is the one home of that decomposition: the Definition 11
//! counts ([`crate::threats`]) and the §6 discard
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
    /// Requires `threat.dims() <= MASK_DIMS` and `grid` to be the `2^d`-cell
    /// grid of a `d`-dimensional region.
    pub(crate) fn new(threat: &Rect, grid: &[Rect]) -> Self {
        let mut cover = CellCover {
            full_weak: [0; MASK_DIMS],
            full_strict: [0; MASK_DIMS],
            part_weak: [0; MASK_DIMS],
            part_strict: [0; MASK_DIMS],
            all: all_cells(grid.len()),
        };
        for k in 0..threat.dims() {
            // Representatives of the two grid coordinates in dimension `k`.
            let (c0, c1) = (&grid[0], &grid[1 << k]);
            let (lo, hi) = (threat.lo()[k], threat.hi()[k]);
            cover.full_weak[k] = pick(k, hi <= c0.lo()[k], hi <= c1.lo()[k]);
            cover.full_strict[k] = pick(k, hi < c0.lo()[k], hi < c1.lo()[k]);
            cover.part_weak[k] = pick(k, lo <= c0.hi()[k], lo <= c1.hi()[k]);
            cover.part_strict[k] = pick(k, lo < c0.hi()[k], lo < c1.hi()[k]);
        }
        cover
    }

    /// The cells the threat may dominate in subspace `pref` — bit `c` set iff
    /// `threat.may_dominate_region(&grid[c], pref)`.
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

/// The cells of `grid` that point `p` dominates outright in subspace `pref`
/// — bit `c` set iff `point_dominates_rect(p, grid[c].lo(), pref)`. Weak is
/// `!(p[k] > lo)` and strict is `p[k] < lo`, the per-cell test's own
/// comparisons, so a NaN coordinate behaves the same in both. Requires
/// `p.len() <= MASK_DIMS` and `grid` to be the `2^d`-cell grid of a
/// `d`-dimensional region.
pub(crate) fn cells_dominated_by(p: &[Value], grid: &[Rect], pref: DimMask) -> u64 {
    let (mut weak, mut strict) = (u64::MAX, 0);
    for k in pref.iter() {
        let (lo0, lo1) = (grid[0].lo()[k], grid[1 << k].lo()[k]);
        let v = p[k];
        // `!(v > lo)`, not `v <= lo`: the per-cell test's comparison, which
        // a NaN passes.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let (weak0, weak1) = (!(v > lo0), !(v > lo1));
        weak &= pick(k, weak0, weak1);
        strict |= pick(k, v < lo0, v < lo1);
    }
    weak & strict & all_cells(grid.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::arb_boxes;
    use proptest::prelude::*;

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
        /// The bitmask cell set is `may_dominate_region` per cell, in every
        /// subspace, including touching corners and zero-extent boxes.
        #[test]
        fn cell_cover_equals_per_cell_test(
            (d, boxes) in (1usize..=MASK_DIMS).prop_flat_map(|d| (Just(d), arb_boxes(d, 2)))
        ) {
            let grid = boxes[1].grid(GRID_PARTS);
            let cover = CellCover::new(&boxes[0], &grid);
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
