//! Incremental Definition 11 threat counts (DESIGN.md §20).
//!
//! Both the guaranteed progressive cell count (Definition 11, `n == 0`) and
//! its expected-value relaxation (`Σ 1/(1+n)`) are functions of one integer
//! per (region, query, output cell): the number `n` of alive in-neighbours
//! serving the query that may dominate the cell. That integer only changes
//! when one specific in-neighbour stops serving the query (it is processed,
//! dies, or loses the query), so [`ThreatCounts`] keeps the integers and
//! applies deltas instead of re-deriving them for every scheduling root at
//! every decision.
//!
//! The table never hooks mutation sites. It remembers, per region, the
//! *effective serving set* it has counted (`EMPTY` once `processed`), and
//! [`ThreatCounts::reconcile`] compares that against the region's current
//! state: for every query a region lost (or gained) it walks the region's
//! static out-edges and decrements (increments) exactly the cells it covers.

use crate::depgraph::{DependencyGraph, Edge};
use crate::estimate::{buchta_estimate, prog_count, soft_prog_est};
use crate::region::{OutputRegion, RegionSet, GRID_PARTS};
use caqe_types::ids::QuerySet;
use caqe_types::{DimMask, Rect, RegionId};

// The bitmask decomposition below reads bit `k` of a cell index as the
// cell's grid coordinate in dimension `k`.
const _: () = assert!(GRID_PARTS == 2);

/// Highest dimensionality whose `2^d` output cells fit one `u64` cell set.
const MASK_DIMS: usize = 6;

/// `BIT_SET[k]` — the cells (as bits of a `u64`) whose index has bit `k` set.
const BIT_SET: [u64; MASK_DIMS] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Which output cells of one target region a threat box may dominate, for
/// any subspace, without a per-cell `Rect` comparison.
///
/// `Rect::relate_region` is a conjunction/disjunction of per-dimension corner
/// comparisons, and on the regular 2-per-dimension grid a cell's corner in
/// dimension `k` depends only on bit `k` of its index. So each of the four
/// per-dimension predicates (weak/strict, for the *Dominates* and the
/// *PartiallyDominates* branch) holds on a cell set that is `BIT_SET[k]`, its
/// complement, both or neither — and the subspace verdict is those sets
/// AND-ed (weak everywhere) and OR-ed (strict somewhere) over the subspace.
/// The corner values are read from the stored grid boxes, so every float
/// comparison is the one the per-cell test would make.
struct CellCover {
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
    fn new(threat: &Rect, grid: &[Rect]) -> Self {
        let mut cover = CellCover {
            full_weak: [0; MASK_DIMS],
            full_strict: [0; MASK_DIMS],
            part_weak: [0; MASK_DIMS],
            part_strict: [0; MASK_DIMS],
            all: u64::MAX >> (64 - grid.len()),
        };
        for k in 0..threat.dims() {
            // Representatives of the two grid coordinates in dimension `k`.
            let (c0, c1) = (&grid[0], &grid[1 << k]);
            let pick = |at0: bool, at1: bool| {
                (if at0 { !BIT_SET[k] } else { 0 }) | (if at1 { BIT_SET[k] } else { 0 })
            };
            let (lo, hi) = (threat.lo()[k], threat.hi()[k]);
            cover.full_weak[k] = pick(hi <= c0.lo()[k], hi <= c1.lo()[k]);
            cover.full_strict[k] = pick(hi < c0.lo()[k], hi < c1.lo()[k]);
            cover.part_weak[k] = pick(lo <= c0.hi()[k], lo <= c1.hi()[k]);
            cover.part_strict[k] = pick(lo < c0.hi()[k], lo < c1.hi()[k]);
        }
        cover
    }

    /// The cells the threat may dominate in subspace `pref` — bit `c` set iff
    /// `threat.may_dominate_region(&grid[c], pref)`.
    fn cells(&self, pref: DimMask) -> u64 {
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

/// Per (group-local query, region, output cell): the number of alive
/// in-neighbours serving the query that may dominate the cell.
///
/// For every alive region serving a query the counts equal what
/// [`prog_count`] / [`soft_prog_est`] derive from the live dependency graph
/// (see [`ThreatCounts::matches_oracle`]); entries of dead regions and of
/// queries a region no longer serves are never read.
///
/// A `default()` table has counted nothing; the first
/// [`reconcile`](ThreatCounts::reconcile) fills it, so a run that never reads
/// a progressiveness estimate never pays for it.
#[derive(Debug, Clone, Default)]
pub struct ThreatCounts {
    /// Output cells per region (`2^d`).
    cells: usize,
    /// Per region: the effective serving set whose out-edges are counted.
    counted: Vec<QuerySet>,
    /// `counts[(local query * regions + region) * cells + cell]` — query
    /// major, so an admission appends one block.
    counts: Vec<u32>,
}

impl ThreatCounts {
    /// Brings the table up to date with the regions' current state: every
    /// region whose effective serving set changed since it was last counted
    /// has its out-edges walked once per lost or gained query. `out_edges[i]`
    /// are the static out-edges of region `i` (the dependency graph's
    /// out-edges as built, never shrunk by `DependencyGraph::remove`).
    /// Charges nothing — like the scoring that reads it, this is scheduler
    /// work.
    ///
    /// Static out-edges suffice because an edge's annotation for a query is
    /// fixed from the moment a region can serve that query: the look-ahead
    /// builds them, an admission only adds the *new* query's bits, and
    /// nothing removes bits — so a loss walks exactly the edges its gain did.
    pub fn reconcile(&mut self, set: &RegionSet, out_edges: &[Vec<Edge>]) {
        self.cells = set.regions().first().map_or(0, OutputRegion::cell_count);
        self.counted.resize(set.len(), QuerySet::EMPTY);
        let need = set.queries().len() * set.len() * self.cells;
        if self.counts.len() < need {
            self.counts.resize(need, 0);
        }
        for (i, region) in set.regions().iter().enumerate() {
            let now = if region.processed {
                QuerySet::EMPTY
            } else {
                region.serving
            };
            let was = std::mem::replace(&mut self.counted[i], now);
            if now != was {
                self.apply(set, region, &out_edges[i], QuerySet(was.0 & !now.0), false);
                self.apply(set, region, &out_edges[i], QuerySet(now.0 & !was.0), true);
            }
        }
    }

    /// Adds (or removes) `threat`'s contribution on behalf of `queries` to
    /// every cell it covers along `edges`.
    fn apply(
        &mut self,
        set: &RegionSet,
        threat: &OutputRegion,
        edges: &[Edge],
        queries: QuerySet,
        add: bool,
    ) {
        if queries.is_empty() {
            return;
        }
        let bump = |n: &mut u32| {
            debug_assert!(add || *n > 0, "a loss walked an edge its gain did not");
            *n = if add { *n + 1 } else { n.saturating_sub(1) };
        };
        for e in edges {
            let w = e.queries.intersect(queries);
            if w.is_empty() {
                continue;
            }
            let grid = set.region(e.peer).grid();
            let cover =
                (threat.bounds.dims() <= MASK_DIMS).then(|| CellCover::new(&threat.bounds, grid));
            for (lq, (q, pref)) in set.queries().iter().enumerate() {
                if !w.contains(*q) {
                    continue;
                }
                let base = (lq * set.len() + e.peer.index()) * self.cells;
                let slot = &mut self.counts[base..base + self.cells];
                match &cover {
                    Some(cover) => {
                        let mut bits = cover.cells(*pref);
                        while bits != 0 {
                            bump(&mut slot[bits.trailing_zeros() as usize]);
                            bits &= bits - 1;
                        }
                    }
                    // More than 64 cells: no single-word cell set.
                    None => {
                        for (n, cell) in slot.iter_mut().zip(grid) {
                            if threat.bounds.may_dominate_region(cell, *pref) {
                                bump(n);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The per-cell counts of `region` for the group-local query `lq`.
    fn slot(&self, region: RegionId, lq: usize) -> &[u32] {
        let base = (lq * self.counted.len() + region.index()) * self.cells;
        &self.counts[base..base + self.cells]
    }

    /// Definition 11 ([`prog_count`]) read off the table; `lq` indexes
    /// `RegionSet::queries`, here and below.
    fn prog_count(&self, set: &RegionSet, region: &OutputRegion, lq: usize) -> usize {
        let (q, _) = set.queries()[lq];
        self.slot(region.id, lq)
            .iter()
            .enumerate()
            .filter(|(c, &n)| n == 0 && region.cell_lineage(*c).contains(q))
            .count()
    }

    /// Equation 10 (`estimate::prog_est`) read off the table.
    pub fn prog_est(&self, set: &RegionSet, region: &OutputRegion, lq: usize) -> f64 {
        let (q, pref) = set.queries()[lq];
        if !region.serving.contains(q) || region.cell_count() == 0 {
            return 0.0;
        }
        let frac = self.prog_count(set, region, lq) as f64 / region.cell_count() as f64;
        frac * buchta_estimate(region.est_join, pref.len())
    }

    /// The expected-value relaxation ([`soft_prog_est`]) read off the table:
    /// the same terms summed in the same cell order, so bit-identical.
    pub(crate) fn soft_prog_est(&self, set: &RegionSet, region: &OutputRegion, lq: usize) -> f64 {
        let (q, pref) = set.queries()[lq];
        if !region.serving.contains(q) || region.cell_count() == 0 {
            return 0.0;
        }
        let soft: f64 = self
            .slot(region.id, lq)
            .iter()
            .enumerate()
            .filter(|(c, _)| region.cell_lineage(*c).contains(q))
            .map(|(_, &n)| 1.0 / (1.0 + n as f64))
            .sum();
        soft / region.cell_count() as f64 * buchta_estimate(region.est_join, pref.len())
    }

    /// Whether the table reproduces the from-scratch functions exactly for
    /// every query of an alive `region` against the live graph `dg` — the
    /// audit the property tests and the engine's debug assertion share.
    pub fn matches_oracle(
        &self,
        set: &RegionSet,
        dg: &DependencyGraph,
        region: &OutputRegion,
    ) -> bool {
        set.queries().iter().enumerate().all(|(lq, (q, _))| {
            self.prog_count(set, region, lq) == prog_count(set, dg, region, *q)
                && self.soft_prog_est(set, region, lq).to_bits()
                    == soft_prog_est(set, dg, region, *q).to_bits()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_types::{CellId, QueryId, SimClock, Stats};
    use proptest::prelude::*;

    /// A box per region on a coarse integer lattice, so coincident, nested,
    /// touching and zero-extent boxes are the common case, not the rare one.
    fn arb_boxes(d: usize, n: usize) -> impl Strategy<Value = Vec<Rect>> {
        let corner = proptest::collection::vec((0u8..5, 0u8..5), d..=d);
        proptest::collection::vec(corner, n..=n).prop_map(|boxes| {
            boxes
                .into_iter()
                .map(|dims| {
                    let lo = dims.iter().map(|&(a, b)| a.min(b) as f64).collect();
                    let hi = dims.iter().map(|&(a, b)| a.max(b) as f64).collect();
                    Rect::new(lo, hi)
                })
                .collect()
        })
    }

    fn region(id: usize, bounds: Rect, serving: QuerySet) -> OutputRegion {
        OutputRegion::new(
            RegionId(id as u32),
            CellId(0),
            CellId(0),
            bounds,
            8,
            8,
            16.0,
            serving,
        )
    }

    fn out_edges(dg: &DependencyGraph, n: usize) -> Vec<Vec<Edge>> {
        (0..n)
            .map(|i| dg.threats_out(RegionId(i as u32)).to_vec())
            .collect()
    }

    proptest! {
        /// The bitmask cell set is `may_dominate_region` per cell, in every
        /// subspace, including touching corners and zero-extent boxes.
        #[test]
        fn cell_cover_equals_per_cell_test(
            (d, boxes) in (1usize..=MASK_DIMS).prop_flat_map(|d| (Just(d), arb_boxes(d, 2)))
        ) {
            let target = region(0, boxes[1].clone(), QuerySet::EMPTY);
            let cover = CellCover::new(&boxes[0], target.grid());
            prop_assert_eq!(cover.cells(DimMask::EMPTY), 0);
            for pref in DimMask::enumerate_nonempty(d) {
                let cells = cover.cells(pref);
                prop_assert_eq!(cells as u128 >> target.cell_count(), 0);
                for (c, cell) in target.grid().iter().enumerate() {
                    prop_assert_eq!(
                        cells >> c & 1 == 1,
                        boxes[0].may_dominate_region(cell, pref),
                        "threat {:?} cell {} {:?} pref {:?}", boxes[0], c, cell, pref
                    );
                }
            }
        }

        /// Under any sequence of the state changes the engine makes, the
        /// reconciled table equals the from-scratch functions bit for bit
        /// on every alive region (`d = 7` takes the per-cell fallback).
        #[test]
        fn reconciled_table_equals_from_scratch(
            (d, boxes, servings, prefs) in (1usize..=7, 2usize..=7).prop_flat_map(|(d, n)| (
                Just(d),
                arb_boxes(d, n),
                proptest::collection::vec(0u64..8, n..=n),
                proptest::collection::vec(1u32..(1 << d), 3..=3),
            )),
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0u64..64), 0..24),
        ) {
            let n = boxes.len();
            let queries: Vec<(QueryId, DimMask)> = prefs
                .iter()
                .enumerate()
                .map(|(i, &m)| (QueryId(i as u16), DimMask(m)))
                .collect();
            let regions = boxes
                .into_iter()
                .zip(&servings)
                .enumerate()
                .map(|(i, (b, &s))| region(i, b, QuerySet(s)))
                .collect();
            let mut set = RegionSet::new(regions, queries);
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            // `dg` sheds nodes like the engine's scheduling graph; `fixed`
            // plays the engine's static snapshot: patched on admission,
            // never shrunk.
            let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
            let mut fixed = dg.clone();
            let mut table = ThreatCounts::default();
            table.reconcile(&set, &out_edges(&fixed, n));

            for step in 0..=ops.len() {
                if step > 0 {
                    let (kind, a, b, bits) = ops[step - 1];
                    let rid = RegionId((a % n) as u32);
                    let nq = set.queries().len();
                    let q = QueryId((b % nq) as u16);
                    match kind {
                        0 => {
                            set.region_mut(rid).processed = true;
                            dg.remove(rid);
                        }
                        1 => {
                            let cells = set.region(rid).cell_count();
                            set.region_mut(rid).kill_cell(b % cells, QuerySet(bits));
                            if set.region(rid).serving.is_empty() {
                                dg.remove(rid);
                            }
                        }
                        2 => set.region_mut(rid).kill_query(q),
                        3 if nq < 6 => {
                            let (q, pref) = (QueryId(nq as u16), DimMask(1 + bits as u32 % ((1 << d) - 1)));
                            set.admit_query(q, pref);
                            dg.admit_query(&set, q, &mut clock, &mut stats);
                            fixed.admit_query(&set, q, &mut clock, &mut stats);
                        }
                        4 => {
                            for dead in set.depart_query(q) {
                                dg.remove(dead);
                            }
                            dg.depart_query(q);
                        }
                        _ => {
                            for q in set.region(rid).serving.iter() {
                                set.region_mut(rid).kill_query(q);
                            }
                            dg.remove(rid);
                        }
                    }
                    table.reconcile(&set, &out_edges(&fixed, n));
                }
                for r in set.regions().iter().filter(|r| r.is_alive()) {
                    prop_assert!(
                        table.matches_oracle(&set, &dg, r),
                        "region {} diverged after step {} of {:?}", r.id, step, ops
                    );
                }
            }
        }
    }
}
