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
//! out-edges and decrements (increments) exactly the cells it covers.
//!
//! The counters are packed [`LANES`] to a `u64`, so a threat's cell set
//! ([`CellCover`]) lands as one look-up and one add per [`LANES`] cells
//! instead of one read-modify-write per covered cell.

use crate::cells::{CellCover, MASK_DIMS};
use crate::depgraph::{DependencyGraph, Edge};
use crate::estimate::{buchta_estimate, prog_count, soft_prog_est};
use crate::region::{OutputRegion, RegionSet};
use caqe_types::ids::QuerySet;
use caqe_types::RegionId;

/// Bits per counter.
const LANE_BITS: usize = 16;
/// Counters per `u64` word.
const LANES: usize = 64 / LANE_BITS;
/// The highest count a lane holds.
const LANE_MAX: usize = (1 << LANE_BITS) - 1;

/// `SPREAD[s]` — a one in every lane whose bit is set in the `LANES`-cell
/// set `s`: adding it to a word bumps exactly those cells' counters.
const SPREAD: [u64; 1 << LANES] = {
    let mut lut = [0u64; 1 << LANES];
    let mut s = 0;
    while s < lut.len() {
        let mut lane = 0;
        while lane < LANES {
            if s >> lane & 1 == 1 {
                lut[s] |= 1 << (lane * LANE_BITS);
            }
            lane += 1;
        }
        s += 1;
    }
    lut
};

/// Per (group-local query, region, output cell): the number of alive
/// in-neighbours serving the query that may dominate the cell.
///
/// For every alive region and every query it serves the counts equal what
/// [`prog_count`] / [`soft_prog_est`] derive from the dependency graph (see
/// [`ThreatCounts::matches_oracle`]); entries of dead regions and of queries
/// a region no longer serves are never read — and, for that reason, no
/// longer maintained: a (region, query) that died never comes back (an
/// admission revives a region for the *new* query only, whose block of the
/// table is new too), so a loss does not bother to reach it.
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
    /// The counters, [`LANES`] to a word: cell `c` of region `r` for local
    /// query `lq` is lane `c % LANES` of word
    /// `(lq * regions + r) * words_per_slot + c / LANES` — query major, so an
    /// admission appends one block.
    counts: Vec<u64>,
}

impl ThreatCounts {
    /// Words holding one (query, region) slot's `cells` counters.
    fn words_per_slot(&self) -> usize {
        self.cells.div_ceil(LANES)
    }

    /// Brings the table up to date with the regions' current state: every
    /// region whose effective serving set changed since it was last counted
    /// has its out-edges in `dg` walked once per lost or gained query.
    /// Charges nothing — like the scoring that reads it, this is scheduler
    /// work.
    ///
    /// The graph's out-edges suffice because they are never shrunk by
    /// `DependencyGraph::remove` and an edge's annotation for a query is
    /// fixed while any region serves that query: the look-ahead builds
    /// them, an admission only adds the *new* query's bits, and a departure
    /// strips a query nobody serves any more — so a loss walks exactly the
    /// edges its gain did.
    ///
    /// # Panics
    /// Panics if the set has more than `LANE_MAX + 1` regions: a cell's
    /// count is at most its region's in-degree, which is below the region
    /// count, and that bound is what keeps a lane from carrying into its
    /// neighbour.
    pub fn reconcile(&mut self, set: &RegionSet, dg: &DependencyGraph) {
        assert!(
            set.len() <= LANE_MAX + 1,
            "{} regions overflow a {LANE_BITS}-bit threat counter",
            set.len()
        );
        self.cells = set.regions().first().map_or(0, OutputRegion::cell_count);
        self.counted.resize(set.len(), QuerySet::EMPTY);
        let need = set.queries().len() * set.len() * self.words_per_slot();
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
                let edges = dg.threats_out(region.id);
                self.apply(set, region, edges, QuerySet(was.0 & !now.0), false);
                self.apply(set, region, edges, QuerySet(now.0 & !was.0), true);
            }
        }
    }

    /// Adds (or removes) `threat`'s contribution on behalf of `queries` to
    /// every cell it covers along `edges`. A removal skips targets that are
    /// processed or no longer serve the query: nothing reads those slots
    /// again.
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
        let words = self.words_per_slot();
        let bump = |word: &mut u64, lanes: u64| {
            *word = if add {
                word.wrapping_add(lanes)
            } else {
                word.wrapping_sub(lanes)
            };
        };
        for e in edges {
            let target = set.region(e.peer);
            let read = match (add, target.processed) {
                (true, _) => QuerySet(u64::MAX),
                (false, false) => target.serving,
                (false, true) => QuerySet::EMPTY,
            };
            let w = e.queries.intersect(queries).intersect(read);
            if w.is_empty() {
                continue;
            }
            let grid = target.grid();
            let cover =
                (threat.bounds.dims() <= MASK_DIMS).then(|| CellCover::new(&threat.bounds, grid));
            for (lq, (q, pref)) in set.queries().iter().enumerate() {
                if !w.contains(*q) {
                    continue;
                }
                let base = (lq * set.len() + e.peer.index()) * words;
                let slot = &mut self.counts[base..base + words];
                match &cover {
                    Some(cover) => {
                        let mut bits = cover.cells(*pref);
                        debug_assert!(
                            add || (0..self.cells).all(|c| bits >> c & 1 == 0 || lane(slot, c) > 0),
                            "a loss walked an edge its gain did not"
                        );
                        for word in slot {
                            bump(word, SPREAD[bits as usize % SPREAD.len()]);
                            bits >>= LANES;
                        }
                    }
                    // More than 64 cells: no single-word cell set.
                    None => {
                        for (c, cell) in grid.iter().enumerate() {
                            if threat.bounds.may_dominate_region(cell, *pref) {
                                debug_assert!(add || lane(slot, c) > 0);
                                bump(&mut slot[c / LANES], SPREAD[1 << (c % LANES)]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The counters of `region` for the group-local query `lq`, packed.
    fn slot(&self, region: RegionId, lq: usize) -> &[u64] {
        let words = self.words_per_slot();
        let base = (lq * self.counted.len() + region.index()) * words;
        &self.counts[base..base + words]
    }

    /// The counts of `region`'s cells still alive for the group-local query
    /// `lq`, in ascending cell order.
    fn alive_counts<'a>(
        &'a self,
        set: &RegionSet,
        region: &'a OutputRegion,
        lq: usize,
    ) -> impl Iterator<Item = u64> + 'a {
        let (q, _) = set.queries()[lq];
        let slot = self.slot(region.id, lq);
        (0..self.cells)
            .filter(move |&c| region.cell_lineage(c).contains(q))
            .map(move |c| lane(slot, c))
    }

    /// Definition 11 ([`prog_count`]) read off the table; `lq` indexes
    /// `RegionSet::queries`, here and below.
    fn prog_count(&self, set: &RegionSet, region: &OutputRegion, lq: usize) -> usize {
        self.alive_counts(set, region, lq)
            .filter(|&n| n == 0)
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
            .alive_counts(set, region, lq)
            .map(|n| 1.0 / (1.0 + n as f64))
            .sum();
        soft / region.cell_count() as f64 * buchta_estimate(region.est_join, pref.len())
    }

    /// Whether the table reproduces the from-scratch functions exactly for
    /// every query of an alive `region` against the graph `dg` — the audit
    /// the property tests and the engine's debug assertion share.
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

/// Counter `c` of a packed slot.
fn lane(slot: &[u64], c: usize) -> u64 {
    slot[c / LANES] >> (c % LANES * LANE_BITS) & LANE_MAX as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{arb_boxes, region};
    use caqe_types::{DimMask, QueryId, Rect, SimClock, Stats};
    use proptest::prelude::*;

    #[test]
    fn coincident_threats_never_carry_into_a_neighbour_lane() {
        // 299 point boxes at the origin threaten every cell of one target:
        // more than an 8-bit lane holds, so any lane narrower than the
        // region count would carry into its neighbour on the way up or
        // borrow from it on the way down.
        let n = 300;
        let q = QueryId(0);
        let target = region(
            0,
            Rect::new(vec![1.0, 1.0], vec![3.0, 3.0]),
            QuerySet::all(1),
        );
        let threats = (1..n).map(|i| region(i, Rect::point(&[0.0, 0.0]), QuerySet::all(1)));
        let regions = std::iter::once(target).chain(threats).collect();
        let mut set = RegionSet::new(regions, vec![(q, DimMask::full(2))]);
        let dg = DependencyGraph::build(&set, &mut SimClock::default(), &mut Stats::new());
        let mut table = ThreatCounts::default();
        table.reconcile(&set, &dg);
        let counts = |table: &ThreatCounts, set: &RegionSet| -> Vec<u64> {
            table
                .alive_counts(set, set.region(RegionId(0)), 0)
                .collect()
        };
        assert_eq!(counts(&table, &set), vec![n as u64 - 1; 4]);
        assert!(table.matches_oracle(&set, &dg, set.region(RegionId(0))));
        for i in 1..n {
            set.region_mut(RegionId(i as u32)).processed = true;
            if i % 50 == 0 || i == n - 1 {
                table.reconcile(&set, &dg);
                assert_eq!(counts(&table, &set), vec![(n - 1 - i) as u64; 4]);
            }
        }
    }

    proptest! {
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
            // One graph, used the way the engine uses it: regions leave it
            // as they finish or die, its edge lists stay.
            let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
            let mut table = ThreatCounts::default();
            table.reconcile(&set, &dg);

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
                    table.reconcile(&set, &dg);
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
