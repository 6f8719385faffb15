//! Output regions (`R_i` of Table 1) and their lifecycle.

use crate::cells::{all_cells, cells_dominated_by, point_dominates_rect, MASK_DIMS};
use caqe_types::ids::QuerySet;
use caqe_types::{CellId, DimMask, QueryId, Rect, RegionId, SimClock, Stats, Value};

/// Number of grid subdivisions per dimension used for output cells inside a
/// region (the paper's 2-d illustrations use small regular grids; 2 per
/// dimension keeps the cell count at `2^d ≤ 32` for `d ≤ 5`).
pub const GRID_PARTS: usize = 2;

/// A region of the multi-query output space: the image of one pair of input
/// cells under the shared mapping functions.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRegion {
    /// Region identifier within its [`RegionSet`].
    pub id: RegionId,
    /// Source cell in the R-table partitioning.
    pub r_cell: CellId,
    /// Source cell in the T-table partitioning.
    pub t_cell: CellId,
    /// Output-space bounds (exact under monotone mappings).
    pub bounds: Rect,
    /// Member count of the R-side cell (`n_a^R` in Equation 9).
    pub n_r: usize,
    /// Member count of the T-side cell (`n_b^T` in Equation 9).
    pub n_t: usize,
    /// Estimated number of join results the cell pair will produce.
    pub est_join: f64,
    /// Queries this region can still contribute to (the mutable
    /// *region query lineage*, `RQL`).
    pub serving: QuerySet,
    /// The region's output cells (regular grid over `bounds`).
    grid: Vec<Rect>,
    /// Per output cell: queries for which the cell is still alive (the
    /// *cell query lineage*, `CQL`).
    cell_alive: Vec<QuerySet>,
    /// The queries that have a word in `alive_cells`: those with a cell
    /// still alive (the union of `cell_alive`), on grids that fit one word
    /// (`MASK_DIMS` dimensions or fewer; none above).
    slots: QuerySet,
    /// `cell_alive` transposed: per query of `slots`, in ascending id order,
    /// the non-empty set of cells still alive for it (bit `c` = cell `c`).
    /// Sized by the queries the region can still serve, so a region of a
    /// three-query group carries at most three words, not 64.
    alive_cells: Vec<u64>,
    /// Whether tuple-level processing has completed for this region.
    pub processed: bool,
}

impl OutputRegion {
    /// Creates a region; the output-cell grid is derived from `bounds`.
    #[allow(clippy::too_many_arguments)] // mirrors Table 1's region attributes
    pub fn new(
        id: RegionId,
        r_cell: CellId,
        t_cell: CellId,
        bounds: Rect,
        n_r: usize,
        n_t: usize,
        est_join: f64,
        serving: QuerySet,
    ) -> Self {
        let grid = bounds.grid(GRID_PARTS);
        let cell_alive = vec![serving; grid.len()];
        let (slots, alive_cells) = if bounds.dims() <= MASK_DIMS {
            (serving, vec![all_cells(grid.len()); serving.len()])
        } else {
            (QuerySet::EMPTY, Vec::new())
        };
        OutputRegion {
            id,
            r_cell,
            t_cell,
            bounds,
            n_r,
            n_t,
            est_join,
            serving,
            grid,
            cell_alive,
            slots,
            alive_cells,
            processed: false,
        }
    }

    /// Whether the region still serves at least one query and has not been
    /// processed.
    #[inline]
    pub fn is_alive(&self) -> bool {
        !self.processed && !self.serving.is_empty()
    }

    /// The output cells (grid boxes) of the region.
    pub fn grid(&self) -> &[Rect] {
        &self.grid
    }

    /// The queries for which output cell `c` is still alive.
    pub fn cell_lineage(&self, c: usize) -> QuerySet {
        self.cell_alive[c]
    }

    /// Total number of output cells (the `CellCount` of Equation 10).
    pub fn cell_count(&self) -> usize {
        self.grid.len()
    }

    /// Number of output cells still alive for query `q`.
    pub fn alive_cell_count(&self, q: QueryId) -> usize {
        match self.alive_cells(q) {
            Some(cells) => cells.count_ones() as usize,
            None => self.cell_alive.iter().filter(|s| s.contains(q)).count(),
        }
    }

    /// The output cells still alive for query `q` as a cell set (bit `c` =
    /// cell `c`), or `None` when the grid has more than 64 cells and no such
    /// word exists.
    pub fn alive_cells(&self, q: QueryId) -> Option<u64> {
        if self.bounds.dims() > MASK_DIMS {
            return None;
        }
        let served = self.slots.contains(q);
        Some(if served {
            self.alive_cells[self.rank(q)]
        } else {
            0
        })
    }

    /// Where `q`'s word sits (or would be inserted) in `alive_cells`: the
    /// number of `slots` with a lower id.
    fn rank(&self, q: QueryId) -> usize {
        (self.slots.0 & ((1u64 << q.index()) - 1)).count_ones() as usize
    }

    /// Takes `cells` out of `q`'s word of `alive_cells` and returns whether
    /// that emptied it — the word is dropped then. `false` if `q` has none.
    fn kill_in_word(&mut self, q: QueryId, cells: u64) -> bool {
        if !self.slots.contains(q) {
            return false;
        }
        let at = self.rank(q);
        self.alive_cells[at] &= !cells;
        let none_left = self.alive_cells[at] == 0;
        if none_left {
            self.alive_cells.remove(at);
            self.slots.remove(q);
        }
        none_left
    }

    /// Index of the output cell a generated tuple falls into, or `None` if
    /// the point lies outside the region (never happens for exact bounds).
    #[allow(clippy::needless_range_loop)] // strided per-dimension arithmetic
    pub fn locate(&self, point: &[Value]) -> Option<usize> {
        // The grid is regular; compute the index directly per dimension.
        let d = self.bounds.dims();
        debug_assert_eq!(point.len(), d);
        let mut idx = 0usize;
        let mut stride = 1usize;
        for k in 0..d {
            let lo = self.bounds.lo()[k];
            let w = self.bounds.extent(k) / GRID_PARTS as Value;
            let cell_k = if w <= 0.0 {
                0
            } else {
                let c = ((point[k] - lo) / w).floor() as isize;
                if c < 0 || point[k] > self.bounds.hi()[k] {
                    return None;
                }
                (c as usize).min(GRID_PARTS - 1)
            };
            idx += cell_k * stride;
            stride *= GRID_PARTS;
        }
        Some(idx)
    }

    /// Kills output cell `c` for the given queries. Returns the queries for
    /// which the *whole region* consequently died (no alive cell left).
    pub fn kill_cell(&mut self, c: usize, queries: QuerySet) -> QuerySet {
        let before = self.cell_alive[c];
        self.cell_alive[c] = before.intersect(QuerySet(!queries.0));
        let mut region_dead = QuerySet::EMPTY;
        for q in before.intersect(queries).iter() {
            // One word says whether any cell is left; above 64 cells only a
            // scan does.
            let none_left = if self.bounds.dims() <= MASK_DIMS {
                self.kill_in_word(q, 1 << c)
            } else {
                self.cell_alive.iter().all(|s| !s.contains(q))
            };
            if none_left && self.serving.contains(q) {
                self.serving.remove(q);
                region_dead.insert(q);
            }
        }
        region_dead
    }

    /// Kills the region for a query outright (used when a coarse or actual
    /// dominator covers all of it).
    pub fn kill_query(&mut self, q: QueryId) {
        self.serving.remove(q);
        for s in &mut self.cell_alive {
            s.remove(q);
        }
        self.kill_in_word(q, u64::MAX);
    }

    /// The §6 discard of this region for one query: kills every output cell
    /// still alive for `q` that some point of `news` dominates outright in
    /// `q`'s subspace `pref`, and returns whether the region died for `q` as
    /// a result.
    ///
    /// Charges one region comparison per (alive cell, point) test, a cell
    /// being tested against the points in order up to its first dominator —
    /// the count a cell-by-cell scan makes. Up to `MASK_DIMS` dimensions the
    /// scan runs point-major over the cell set instead: each point is charged
    /// for the cells no earlier point dominated and its dominated cells are
    /// one word ([`cells_dominated_by`]).
    pub fn discard_dominated<'p>(
        &mut self,
        q: QueryId,
        pref: DimMask,
        news: impl IntoIterator<Item = &'p [Value]> + Clone,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> bool {
        let mut charge = |tests: u64| {
            clock.charge_dom_cmps(tests);
            stats.region_comparisons += tests;
        };
        let single = QuerySet::singleton(q);
        let mut died = false;
        match self.alive_cells(q) {
            Some(alive) => {
                let mut remaining = alive;
                for p in news {
                    if remaining == 0 {
                        break;
                    }
                    charge(remaining.count_ones() as u64);
                    remaining &= !cells_dominated_by(p, &self.grid, pref);
                }
                let mut kills = alive & !remaining;
                while kills != 0 {
                    died |= !self
                        .kill_cell(kills.trailing_zeros() as usize, single)
                        .is_empty();
                    kills &= kills - 1;
                }
            }
            None => {
                for c in 0..self.grid.len() {
                    if !self.cell_alive[c].contains(q) {
                        continue;
                    }
                    let lo = self.grid[c].lo();
                    let dominated = news.clone().into_iter().any(|p| {
                        charge(1);
                        point_dominates_rect(p, lo, pref)
                    });
                    if dominated {
                        died |= !self.kill_cell(c, single).is_empty();
                    }
                }
            }
        }
        died
    }

    /// Adds a newly admitted query to the region's lineage with *every*
    /// output cell alive: no coarse information about the late arrival
    /// exists yet, so the conservative lineage is "everything may still
    /// matter". Extra materialized tuples this causes are dominated
    /// transitively and never reach a final skyline, so results stay exact.
    pub fn admit_query(&mut self, q: QueryId) {
        self.serving.insert(q);
        for s in &mut self.cell_alive {
            s.insert(q);
        }
        if self.bounds.dims() <= MASK_DIMS {
            let (at, all) = (self.rank(q), all_cells(self.grid.len()));
            if self.slots.contains(q) {
                self.alive_cells[at] = all;
            } else {
                // Ids only grow, so this is a push in practice.
                self.slots.insert(q);
                self.alive_cells.insert(at, all);
            }
        }
    }
}

/// A collection of output regions for one join group, with shared workload
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSet {
    regions: Vec<OutputRegion>,
    /// `(global query id, preference subspace)` of every query served by
    /// this region set's join group.
    queries: Vec<(QueryId, DimMask)>,
}

impl RegionSet {
    /// Creates a region set.
    pub fn new(regions: Vec<OutputRegion>, queries: Vec<(QueryId, DimMask)>) -> Self {
        RegionSet { regions, queries }
    }

    /// All regions (including dead/processed ones; check
    /// [`OutputRegion::is_alive`]).
    pub fn regions(&self) -> &[OutputRegion] {
        &self.regions
    }

    /// Mutable access to a region.
    pub fn region_mut(&mut self, id: RegionId) -> &mut OutputRegion {
        &mut self.regions[id.index()]
    }

    /// Shared access to a region.
    pub fn region(&self, id: RegionId) -> &OutputRegion {
        &self.regions[id.index()]
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether there are no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The join group's queries as `(global id, preference)` pairs.
    pub fn queries(&self) -> &[(QueryId, DimMask)] {
        &self.queries
    }

    /// The preference subspace of a (global) query id.
    ///
    /// # Panics
    /// Panics if the query is not part of this region set's group.
    #[allow(clippy::expect_used)] // documented panic contract above
    pub fn pref(&self, q: QueryId) -> DimMask {
        self.queries
            .iter()
            .find(|(id, _)| *id == q)
            .map(|(_, m)| *m)
            .expect("query not in this join group")
    }

    /// Ids of regions still alive.
    pub fn alive_ids(&self) -> Vec<RegionId> {
        self.regions
            .iter()
            .filter(|r| r.is_alive())
            .map(|r| r.id)
            .collect()
    }

    /// Registers a newly admitted query (global id `q`, preference `pref`)
    /// with this set and revives every *unprocessed* region for it (see
    /// [`OutputRegion::admit_query`]). Processed regions stay retired: their
    /// already-materialized tuples reach the late arrival through the shared
    /// plan's backfill instead.
    pub fn admit_query(&mut self, q: QueryId, pref: DimMask) {
        self.queries.push((q, pref));
        for r in &mut self.regions {
            if !r.processed {
                r.admit_query(q);
            }
        }
    }

    /// The per-dimension envelope of all region bounds: `(lo, hi)` where
    /// `lo[k]`/`hi[k]` are the min/max corner values over every region
    /// (dead or alive — the envelope feeds signature quantization, where a
    /// wider range costs precision but never correctness, and dead regions'
    /// tuples may already sit in downstream skylines). `None` when the set
    /// is empty or any corner is NaN (no sound quantizer exists then).
    pub fn mapped_bounds(&self) -> Option<(Vec<Value>, Vec<Value>)> {
        let first = self.regions.first()?;
        let d = first.bounds.dims();
        let mut lo = vec![Value::INFINITY; d];
        let mut hi = vec![Value::NEG_INFINITY; d];
        for r in &self.regions {
            for k in 0..d {
                let (l, h) = (r.bounds.lo()[k], r.bounds.hi()[k]);
                if l.is_nan() || h.is_nan() {
                    return None;
                }
                lo[k] = lo[k].min(l);
                hi[k] = hi[k].max(h);
            }
        }
        Some((lo, hi))
    }

    /// Retires query `q` from every region, returning the ids of regions
    /// that *died* as a result (the departing query was their sole remaining
    /// consumer) — the caller retires those the same way shedding does.
    pub fn depart_query(&mut self, q: QueryId) -> Vec<RegionId> {
        let mut died = Vec::new();
        for r in &mut self.regions {
            let was_alive = r.is_alive();
            r.kill_query(q);
            if was_alive && !r.is_alive() {
                died.push(r.id);
            }
        }
        died
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{arb_boxes, region};
    use proptest::prelude::*;

    /// The §6 discard as a cell-by-cell scan, whatever the dimensionality:
    /// the reference for [`OutputRegion::discard_dominated`]. Returns the
    /// cells it killed, in kill order, and whether the region died for `q`.
    fn discard_per_cell(
        reg: &mut OutputRegion,
        q: QueryId,
        pref: DimMask,
        news: &[Vec<Value>],
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> (Vec<usize>, bool) {
        let mut kills = Vec::new();
        for (c, cell) in reg.grid().iter().enumerate() {
            if !reg.cell_lineage(c).contains(q) {
                continue;
            }
            for p in news {
                clock.charge_dom_cmps(1);
                stats.region_comparisons += 1;
                if point_dominates_rect(p, cell.lo(), pref) {
                    kills.push(c);
                    break;
                }
            }
        }
        let single = QuerySet::singleton(q);
        let died = kills.iter().fold(false, |died, &c| {
            died | !reg.kill_cell(c, single).is_empty()
        });
        (kills, died)
    }

    proptest! {
        /// The cell-set discard and the cell-by-cell scan agree on the cells
        /// killed (ascending, which is the scan's kill order), on whether the
        /// region died, on the resulting region and on every charge — over
        /// touching and zero-extent boxes, NaN and infinite coordinates,
        /// partly dead lineage and every subspace (`d = 7` has no cell word
        /// and takes the scan itself).
        #[test]
        fn discard_by_cell_sets_equals_the_per_cell_scan(
            (d, boxes, news) in (1usize..=7).prop_flat_map(|d| (
                Just(d),
                arb_boxes(d, 1),
                proptest::collection::vec(proptest::collection::vec(0u8..8, d..=d), 0..=40),
            )),
            dead in proptest::collection::vec(0usize..128, 0..12),
        ) {
            let coordinate = |v: &u8| match v {
                5 => Value::NAN,
                6 => Value::INFINITY,
                7 => Value::NEG_INFINITY,
                &v => v as Value,
            };
            let news: Vec<Vec<Value>> =
                news.iter().map(|p| p.iter().map(coordinate).collect()).collect();
            let q = QueryId(1);
            let mut start = region(0, boxes[0].clone(), QuerySet::all(2));
            for c in dead {
                start.kill_cell(c % start.cell_count(), QuerySet::singleton(q));
            }
            for pref in DimMask::enumerate_nonempty(d) {
                let (mut by_sets, mut by_scan) = (start.clone(), start.clone());
                let (mut clock, mut stats) = (SimClock::default(), Stats::new());
                let died = by_sets.discard_dominated(
                    q, pref, news.iter().map(Vec::as_slice), &mut clock, &mut stats,
                );
                let (mut ref_clock, mut ref_stats) = (SimClock::default(), Stats::new());
                let (ref_kills, ref_died) =
                    discard_per_cell(&mut by_scan, q, pref, &news, &mut ref_clock, &mut ref_stats);
                let kills: Vec<usize> = (0..start.cell_count())
                    .filter(|&c| start.cell_lineage(c) != by_sets.cell_lineage(c))
                    .collect();
                prop_assert_eq!(kills, ref_kills, "pref {:?}", pref);
                prop_assert_eq!(died, ref_died);
                prop_assert_eq!(&by_sets, &by_scan);
                prop_assert_eq!(clock.ticks(), ref_clock.ticks());
                prop_assert_eq!(stats.region_comparisons, ref_stats.region_comparisons);
            }
        }

        /// The alive-cell words stay the transpose of the per-cell lineage
        /// under every mutation a region has.
        #[test]
        fn alive_cell_words_mirror_the_cell_lineage(
            (d, boxes) in (1usize..=7).prop_flat_map(|d| (Just(d), arb_boxes(d, 1))),
            serving in 0u64..16,
            ops in proptest::collection::vec((0u8..3, 0usize..128, 0u64..64), 0..24),
        ) {
            let mut reg = region(0, boxes[0].clone(), QuerySet(serving));
            for (kind, c, bits) in ops {
                let q = QueryId((bits % 6) as u16);
                match kind {
                    0 => drop(reg.kill_cell(c % reg.cell_count(), QuerySet(bits))),
                    1 => reg.kill_query(q),
                    _ => reg.admit_query(q),
                }
                for q in (0..6).map(QueryId) {
                    let alive: Vec<usize> = (0..reg.cell_count())
                        .filter(|&c| reg.cell_lineage(c).contains(q))
                        .collect();
                    prop_assert_eq!(reg.alive_cell_count(q), alive.len());
                    prop_assert_eq!(reg.alive_cells(q).is_some(), d <= MASK_DIMS);
                    if let Some(word) = reg.alive_cells(q) {
                        let set: Vec<usize> = (0..64).filter(|c| word >> c & 1 == 1).collect();
                        prop_assert_eq!(set, alive);
                    }
                }
            }
        }
    }

    fn region2d(serving: QuerySet) -> OutputRegion {
        OutputRegion::new(
            RegionId(0),
            CellId(0),
            CellId(0),
            Rect::new(vec![0.0, 0.0], vec![4.0, 4.0]),
            10,
            10,
            5.0,
            serving,
        )
    }

    #[test]
    fn grid_has_2_pow_d_cells() {
        let r = region2d(QuerySet::all(2));
        assert_eq!(r.cell_count(), 4);
        assert_eq!(r.alive_cell_count(QueryId(0)), 4);
    }

    #[test]
    fn locate_maps_points_to_cells() {
        let r = region2d(QuerySet::all(1));
        // Cells: [0,2]x[0,2] -> 0, [2,4]x[0,2] -> 1, [0,2]x[2,4] -> 2, ...
        assert_eq!(r.locate(&[1.0, 1.0]), Some(0));
        assert_eq!(r.locate(&[3.0, 1.0]), Some(1));
        assert_eq!(r.locate(&[1.0, 3.0]), Some(2));
        assert_eq!(r.locate(&[3.0, 3.0]), Some(3));
        // Boundary points land in the last cell, not outside.
        assert_eq!(r.locate(&[4.0, 4.0]), Some(3));
        assert_eq!(r.locate(&[5.0, 1.0]), None);
    }

    #[test]
    fn locate_in_grid_box_agrees_with_grid_rects() {
        let r = region2d(QuerySet::all(1));
        for (i, cell) in r.grid().iter().enumerate() {
            let c = cell.center();
            assert_eq!(r.locate(&c), Some(i));
        }
    }

    #[test]
    fn kill_cell_cascades_to_region() {
        let mut r = region2d(QuerySet::all(2));
        let q0 = QueryId(0);
        let one = QuerySet::singleton(q0);
        for c in 0..3 {
            assert!(r.kill_cell(c, one).is_empty());
            assert!(r.serving.contains(q0));
        }
        let dead = r.kill_cell(3, one);
        assert!(dead.contains(q0));
        assert!(!r.serving.contains(q0));
        // Query 1 untouched.
        assert!(r.serving.contains(QueryId(1)));
        assert!(r.is_alive());
    }

    #[test]
    fn kill_query_kills_everything_for_it() {
        let mut r = region2d(QuerySet::all(1));
        r.kill_query(QueryId(0));
        assert!(!r.is_alive());
        assert_eq!(r.alive_cell_count(QueryId(0)), 0);
    }

    #[test]
    fn degenerate_region_locates_to_cell_zero() {
        let r = OutputRegion::new(
            RegionId(0),
            CellId(0),
            CellId(0),
            Rect::new(vec![2.0, 2.0], vec![2.0, 2.0]),
            1,
            1,
            1.0,
            QuerySet::all(1),
        );
        assert_eq!(r.locate(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn admit_revives_dead_region_with_all_cells() {
        let mut r = region2d(QuerySet::all(1));
        r.kill_query(QueryId(0));
        assert!(!r.is_alive());
        r.admit_query(QueryId(1));
        assert!(r.is_alive());
        assert_eq!(r.alive_cell_count(QueryId(1)), 4);
    }

    #[test]
    fn set_admit_and_depart_round_trip() {
        let qs = vec![(QueryId(0), DimMask::full(2))];
        let mut set = RegionSet::new(vec![region2d(QuerySet::all(1))], qs);
        set.admit_query(QueryId(1), DimMask::singleton(0));
        assert_eq!(set.pref(QueryId(1)), DimMask::singleton(0));
        assert!(set.region(RegionId(0)).serving.contains(QueryId(1)));
        // Query 0 departs: the region survives on query 1.
        assert!(set.depart_query(QueryId(0)).is_empty());
        // Query 1 departs: the region was its sole remaining provider.
        assert_eq!(set.depart_query(QueryId(1)), vec![RegionId(0)]);
    }

    #[test]
    fn admit_skips_processed_regions() {
        let mut region = region2d(QuerySet::all(1));
        region.processed = true;
        let mut set = RegionSet::new(vec![region], vec![(QueryId(0), DimMask::full(2))]);
        set.admit_query(QueryId(1), DimMask::full(2));
        assert!(!set.region(RegionId(0)).serving.contains(QueryId(1)));
        assert_eq!(set.pref(QueryId(1)), DimMask::full(2));
    }

    #[test]
    fn mapped_bounds_envelope_all_regions() {
        let mut far = region2d(QuerySet::all(1));
        far.bounds = Rect::new(vec![-1.0, 3.0], vec![2.0, 9.0]);
        far.processed = true; // dead regions still count toward the envelope
        let set = RegionSet::new(
            vec![region2d(QuerySet::all(1)), far],
            vec![(QueryId(0), DimMask::full(2))],
        );
        let (lo, hi) = set.mapped_bounds().unwrap();
        assert_eq!(lo, vec![-1.0, 0.0]);
        assert_eq!(hi, vec![4.0, 9.0]);
        let empty = RegionSet::new(Vec::new(), Vec::new());
        assert!(empty.mapped_bounds().is_none());
    }

    #[test]
    fn region_set_accessors() {
        let qs = vec![(QueryId(0), DimMask::full(2))];
        let set = RegionSet::new(vec![region2d(QuerySet::all(1))], qs);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        assert_eq!(set.pref(QueryId(0)), DimMask::full(2));
        assert_eq!(set.alive_ids(), vec![RegionId(0)]);
    }
}
