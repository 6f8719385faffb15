//! The dependency graph between output regions (Definition 9, Figure 7).
//!
//! A directed edge `R_i → R_j` annotated with query set `W_{i,j}` records
//! that tuples materializing in `R_i` can dominate output cells of `R_j`
//! for the queries in `W_{i,j}`. The graph serves three masters:
//!
//! * **scheduling** — regions with no (non-mutual) incoming edges are the
//!   *roots* that Algorithm 1 ranks by CSM;
//! * **the benefit model** — the progressive cell count of `R_j` only needs
//!   to examine `R_j`'s in-neighbors ("threats");
//! * **safe emission** — a tuple of `R_j` can be progressively output once
//!   no alive in-neighbor can still dominate it (§6, Example 19).
//!
//! Mutual partial domination (`R_i` ⇄ `R_j`) is possible with overlapping
//! boxes; such pairs carry threat edges in both directions but neither
//! blocks the other's root status, so scheduling cannot deadlock.
//!
//! The edge lists are one store that never shrinks when a region leaves the
//! graph (DESIGN.md §14): the benefit model and safe emission keep reading a
//! region's threats long after scheduling is done with it, and skip peers by
//! the peer's own state. Only root status follows removals, through a
//! per-region liveness mask (`since`) instead of list surgery.

use crate::region::{OutputRegion, RegionSet};
use caqe_types::ids::QuerySet;
use caqe_types::{DimMask, QueryId, Rect, RegionId, SimClock, Stats};

/// One directed threat edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The other endpoint.
    pub peer: RegionId,
    /// Queries for which the source can dominate cells of the target.
    pub queries: QuerySet,
}

/// Inserts `q` into the edge toward `peer`, creating the edge if absent.
pub fn add_query_to_edge(edges: &mut Vec<Edge>, peer: RegionId, q: QueryId) {
    if let Some(e) = edges.iter_mut().find(|e| e.peer == peer) {
        e.queries.insert(q);
    } else {
        edges.push(Edge {
            peer,
            queries: QuerySet::singleton(q),
        });
    }
}

/// The Definition 9 pair rule for one *ordered* region pair: per-dimension
/// bits for "`from`'s best corner vs `to`'s worst corner" — `weak` where
/// `lo_from ≤ hi_to`, `strict` where `<`. The `d` corner comparisons are
/// performed once here; every query's subspace relation is then a bit-mask
/// test, which is why callers charge one region comparison per ordered
/// pair, not per (pair × query).
#[derive(Debug, Clone, Copy)]
pub struct CornerMasks {
    weak: u32,
    strict: u32,
}

impl CornerMasks {
    /// Compares the corners of the ordered pair `from → to`.
    pub fn between(from: &Rect, to: &Rect) -> Self {
        let (mut weak, mut strict) = (0u32, 0u32);
        for (k, (a, b)) in from.lo().iter().zip(to.hi()).enumerate() {
            if a <= b {
                weak |= 1 << k;
            }
            if a < b {
                strict |= 1 << k;
            }
        }
        CornerMasks { weak, strict }
    }

    /// Whether a tuple of `from` may dominate one of `to` in `subspace`:
    /// weakly better on all of it, strictly better somewhere in it.
    pub fn may_dominate(self, subspace: DimMask) -> bool {
        let m = subspace.0;
        self.weak & m == m && self.strict & m != 0
    }
}

/// Whether the edge `e` between regions `i` and `j` (either direction) is
/// live under the per-region masks `since` (see [`DependencyGraph`]): some
/// query it is annotated with has had both endpoints in the graph ever since
/// the query was admitted.
fn live(since: &[QuerySet], e: &Edge, i: usize, j: usize) -> bool {
    !e.queries.intersect(since[i]).intersect(since[j]).is_empty()
}

/// The dependency graph over a region set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    /// `threats_in[j]` — edges `i → j`: regions that can dominate cells of
    /// `j`. As built, plus admission patches; [`remove`](Self::remove) leaves
    /// the lists alone.
    threats_in: Vec<Vec<Edge>>,
    /// `threats_out[i]` — edges `i → j`: regions whose cells `i` can
    /// dominate; the exact transpose of `threats_in`.
    threats_out: Vec<Vec<Edge>>,
    /// `blockers[j]` — count of live in-edges that are *not* mutual; a
    /// region is a scheduling root when this reaches zero.
    blockers: Vec<usize>,
    /// `since[i]` — the queries region `i` has been in the graph for without
    /// interruption: every query at build, none after `remove`, plus each
    /// query admitted while the region is alive and serving it. An edge
    /// `i → j` is *live* iff its annotation meets both endpoints' masks —
    /// not "neither endpoint was removed": an admission puts a removed but
    /// unprocessed region back into the graph for the new query alone.
    since: Vec<QuerySet>,
}

impl DependencyGraph {
    /// An edgeless graph over `n` regions — used by strategies that skip
    /// the look-ahead entirely (blind pipelining); every region is a root.
    pub fn empty(n: usize) -> Self {
        Self::from_edges(vec![Vec::new(); n], vec![Vec::new(); n])
    }

    /// Builds the graph by relating every alive region pair in every query
    /// subspace both serve.
    ///
    /// The `d` per-dimension corner comparisons of a pair are performed
    /// *once* and every query's subspace relation is then derived by
    /// bit-masking — so one region-level comparison is charged per ordered
    /// pair, not per (pair × query).
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) iteration
    pub fn build(set: &RegionSet, clock: &mut SimClock, stats: &mut Stats) -> Self {
        let n = set.len();
        let mut threats_in: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut threats_out: Vec<Vec<Edge>> = vec![Vec::new(); n];

        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (ri, rj) = (&set.regions()[i], &set.regions()[j]);
                let shared = ri.serving.intersect(rj.serving);
                if shared.is_empty() {
                    continue;
                }
                clock.charge_dom_cmps(1);
                stats.region_comparisons += 1;
                let corners = CornerMasks::between(&ri.bounds, &rj.bounds);
                let w: QuerySet = shared
                    .iter()
                    .filter(|&q| corners.may_dominate(set.pref(q)))
                    .collect();
                if !w.is_empty() {
                    threats_out[i].push(Edge {
                        peer: RegionId(j as u32),
                        queries: w,
                    });
                    threats_in[j].push(Edge {
                        peer: RegionId(i as u32),
                        queries: w,
                    });
                }
            }
        }
        Self::from_edges(threats_in, threats_out)
    }

    /// A freshly built graph over the two edge lists: every region has been
    /// in it for every query any edge names, so every edge is live.
    fn from_edges(threats_in: Vec<Vec<Edge>>, threats_out: Vec<Vec<Edge>>) -> Self {
        let n = threats_in.len();
        let built = threats_in.iter().flatten().map(|e| e.queries);
        let built = built.fold(QuerySet::EMPTY, QuerySet::union);
        let mut dg = DependencyGraph {
            threats_in,
            threats_out,
            blockers: vec![0; n],
            since: vec![built; n],
        };
        dg.recompute_blockers();
        dg
    }

    /// In-edges of a region: the regions that can dominate its cells.
    ///
    /// The list outlives its endpoints' [`remove`](Self::remove): a peer
    /// that is processed, dead or no longer serves a query is still listed,
    /// and readers skip it by the peer's own state (as they always had to
    /// for a peer that merely lost one query).
    pub fn threats_in(&self, r: RegionId) -> &[Edge] {
        &self.threats_in[r.index()]
    }

    /// Out-edges of a region: the regions whose cells it can dominate. Never
    /// shrunk by [`remove`](Self::remove), like [`threats_in`](Self::threats_in).
    pub fn threats_out(&self, r: RegionId) -> &[Edge] {
        &self.threats_out[r.index()]
    }

    /// Whether a region currently has no non-mutual live blockers — a
    /// scheduling root in Algorithm 1's sense.
    pub fn is_root(&self, r: RegionId) -> bool {
        self.blockers[r.index()] == 0
    }

    /// Patches the graph for a newly admitted query `q`: re-relates every
    /// ordered pair of regions in the query's subspace and inserts `q` into
    /// the matching edges (creating edges where none existed), then lets
    /// every alive region serving `q` back into the graph for `q`.
    ///
    /// *All* ordered pairs are patched, regardless of liveness — a husk that
    /// is dead today may be revived by a later admission, and the
    /// emission-safety test reads these lists long after scheduling has
    /// dropped a region — while only edges between alive regions serving `q`
    /// become live. Blocker counts are then recomputed wholesale; a
    /// wholesale recompute cannot drift from the `build` semantics.
    ///
    /// Charges one region comparison per ordered pair for the patch and one
    /// more per ordered pair of alive regions serving `q` for the liveness
    /// update — the virtual-time price the committed session traces were
    /// recorded at, although one corner comparison answers both.
    pub fn admit_query(
        &mut self,
        set: &RegionSet,
        q: QueryId,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) {
        let pref = set.pref(q);
        let regions = set.regions();
        let back = |r: &OutputRegion| r.is_alive() && r.serving.contains(q);
        let pairs = |n: usize| (n * n.saturating_sub(1)) as u64;
        let charged = pairs(regions.len()) + pairs(regions.iter().filter(|r| back(r)).count());
        clock.charge_dom_cmps(charged);
        stats.region_comparisons += charged;
        for (i, ri) in regions.iter().enumerate() {
            for (j, rj) in regions.iter().enumerate() {
                if i != j && CornerMasks::between(&ri.bounds, &rj.bounds).may_dominate(pref) {
                    add_query_to_edge(&mut self.threats_out[i], RegionId(j as u32), q);
                    add_query_to_edge(&mut self.threats_in[j], RegionId(i as u32), q);
                }
            }
        }
        for (since, region) in self.since.iter_mut().zip(regions) {
            if back(region) {
                since.insert(q);
            }
        }
        self.recompute_blockers();
    }

    /// Removes a departing query's bit from every edge, dropping edges whose
    /// query annotation becomes empty, and recomputes blocker counts. A
    /// region whose only threats were on behalf of `q` becomes a root.
    pub fn depart_query(&mut self, q: QueryId) {
        for edges in self
            .threats_in
            .iter_mut()
            .chain(self.threats_out.iter_mut())
        {
            for e in edges.iter_mut() {
                e.queries.remove(q);
            }
            edges.retain(|e| !e.queries.is_empty());
        }
        self.recompute_blockers();
    }

    /// Recomputes `blockers` from scratch: a live in-edge `i → j` blocks `j`
    /// unless it is mutual, i.e. `i` is also a live target of `j`. Stamping
    /// `j`'s targets before scanning its in-edges answers that in O(1) per
    /// edge, so the whole pass is O(E).
    fn recompute_blockers(&mut self) {
        let since = &self.since;
        let mut target_of = vec![usize::MAX; self.threats_in.len()];
        for j in 0..self.threats_in.len() {
            for e in &self.threats_out[j] {
                if live(since, e, j, e.peer.index()) {
                    target_of[e.peer.index()] = j;
                }
            }
            self.blockers[j] = self.threats_in[j]
                .iter()
                .filter(|e| live(since, e, j, e.peer.index()) && target_of[e.peer.index()] != j)
                .count();
        }
    }

    /// Removes a region from the graph (processed or discarded), returning
    /// the regions that *became* roots as a result (the `DG_root'` of
    /// Algorithm 1), in ascending id order.
    ///
    /// O(in + out degree): the region's edges go dead with its `since` mask,
    /// nobody's list is edited. Removing a region twice is a no-op.
    pub fn remove(&mut self, r: RegionId) -> Vec<RegionId> {
        let ri = r.index();
        // The live in-neighbours of r, for the mutual test below.
        let mut threatens_r = vec![false; self.threats_in.len()];
        for e in &self.threats_in[ri] {
            threatens_r[e.peer.index()] = live(&self.since, e, ri, e.peer.index());
        }
        let mut new_roots = Vec::new();
        for e in &self.threats_out[ri] {
            let j = e.peer.index();
            // Was this edge counted as a blocker of j (live, non-mutual)?
            if live(&self.since, e, ri, j) && !threatens_r[j] && self.blockers[j] > 0 {
                self.blockers[j] -= 1;
                if self.blockers[j] == 0 {
                    new_roots.push(e.peer);
                }
            }
        }
        self.since[ri] = QuerySet::EMPTY;
        self.blockers[ri] = 0;
        new_roots.sort_unstable();
        new_roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::OutputRegion;
    use crate::testkit::{arb_boxes, region};
    use caqe_types::CellId;
    use proptest::prelude::*;

    /// The reference for root status: a graph whose lists hold the live
    /// edges and nothing else. `remove` takes the region out of every peer's
    /// list, an admission re-links only alive regions, and a region is a
    /// root when no edge on its in-list is non-mutual.
    struct ShrinkingGraph {
        threats_in: Vec<Vec<Edge>>,
        threats_out: Vec<Vec<Edge>>,
    }

    impl ShrinkingGraph {
        fn is_root(&self, j: usize) -> bool {
            let mutual = |i: RegionId| self.threats_out[j].iter().any(|e| e.peer == i);
            self.threats_in[j].iter().all(|e| mutual(e.peer))
        }

        fn admit_query(&mut self, set: &RegionSet, q: QueryId) {
            let alive = |r: &&OutputRegion| r.is_alive() && r.serving.contains(q);
            let alive: Vec<&OutputRegion> = set.regions().iter().filter(alive).collect();
            for ri in &alive {
                for rj in alive.iter().filter(|rj| rj.id != ri.id) {
                    if CornerMasks::between(&ri.bounds, &rj.bounds).may_dominate(set.pref(q)) {
                        add_query_to_edge(&mut self.threats_out[ri.id.index()], rj.id, q);
                        add_query_to_edge(&mut self.threats_in[rj.id.index()], ri.id, q);
                    }
                }
            }
        }

        fn depart_query(&mut self, q: QueryId) {
            for edges in self.threats_in.iter_mut().chain(&mut self.threats_out) {
                edges.iter_mut().for_each(|e| e.queries.remove(q));
                edges.retain(|e| !e.queries.is_empty());
            }
        }

        /// Returns the regions that became roots, in out-list order.
        fn remove(&mut self, r: RegionId) -> Vec<RegionId> {
            let n = self.threats_in.len();
            let was_root: Vec<bool> = (0..n).map(|j| self.is_root(j)).collect();
            let out = std::mem::take(&mut self.threats_out[r.index()]);
            for e in &out {
                self.threats_in[e.peer.index()].retain(|back| back.peer != r);
            }
            for e in std::mem::take(&mut self.threats_in[r.index()]) {
                self.threats_out[e.peer.index()].retain(|f| f.peer != r);
            }
            let promoted = |e: &&Edge| !was_root[e.peer.index()] && self.is_root(e.peer.index());
            out.iter().filter(promoted).map(|e| e.peer).collect()
        }
    }

    proptest! {
        /// Root status under the never-shrunk store equals root status under
        /// list surgery, through removals (twice included), admissions that
        /// revive removed-but-unprocessed regions, and departures. `remove`
        /// reports the same new roots; the reference yields them in the
        /// order of its refilled out-list, the store in ascending id order.
        #[test]
        fn root_status_equals_the_shrinking_reference(
            (boxes, servings, prefs) in (1usize..=3, 2usize..=7).prop_flat_map(|(d, n)| (
                arb_boxes(d, n),
                proptest::collection::vec(0u64..8, n..=n),
                proptest::collection::vec(1u32..(1 << d), 3..=3),
            )),
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0u32..64), 0..32),
        ) {
            let (n, d) = (boxes.len(), boxes[0].dims());
            let queries = (0..).map(QueryId).zip(prefs.into_iter().map(DimMask)).collect();
            let regions = boxes.into_iter().zip(servings).enumerate();
            let regions = regions.map(|(i, (b, s))| region(i, b, QuerySet(s))).collect();
            let mut set = RegionSet::new(regions, queries);
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
            let mut reference = ShrinkingGraph {
                threats_in: dg.threats_in.clone(),
                threats_out: dg.threats_out.clone(),
            };
            for (step, &(kind, a, bits)) in ops.iter().enumerate() {
                let rid = RegionId((a % n) as u32);
                let nq = set.queries().len();
                let q = QueryId((a / n % nq) as u16);
                let mut remove = |dg: &mut DependencyGraph, r: RegionId| {
                    let mut expected = reference.remove(r);
                    expected.sort_unstable();
                    prop_assert_eq!(dg.remove(r), expected, "step {} of {:?}", step, &ops);
                    Ok(())
                };
                match kind {
                    // Removed outright — possibly again, possibly while alive.
                    0 => remove(&mut dg, rid)?,
                    // Processed: never comes back.
                    1 => {
                        set.region_mut(rid).processed = true;
                        remove(&mut dg, rid)?;
                    }
                    // Died (discarded, retired): a later admission revives it.
                    2 => {
                        for q in set.region(rid).serving.iter() {
                            set.region_mut(rid).kill_query(q);
                        }
                        remove(&mut dg, rid)?;
                    }
                    3 if nq < 7 => {
                        let (q, pref) = (QueryId(nq as u16), DimMask(1 + bits % ((1 << d) - 1)));
                        set.admit_query(q, pref);
                        dg.admit_query(&set, q, &mut clock, &mut stats);
                        reference.admit_query(&set, q);
                    }
                    4 => {
                        for dead in set.depart_query(q) {
                            remove(&mut dg, dead)?;
                        }
                        dg.depart_query(q);
                        reference.depart_query(q);
                    }
                    // Lost one query, stays in the graph.
                    _ => set.region_mut(rid).kill_query(q),
                }
                for j in 0..n {
                    prop_assert_eq!(
                        dg.is_root(RegionId(j as u32)),
                        reference.is_root(j),
                        "region {} after step {} of {:?}", j, step, &ops
                    );
                }
            }
        }
    }

    /// Builds a 2-query, 2-dim region set from explicit boxes.
    fn set_from_boxes(boxes: &[([f64; 2], [f64; 2])]) -> RegionSet {
        let queries = vec![
            (QueryId(0), DimMask::full(2)),
            (QueryId(1), DimMask::singleton(0)),
        ];
        let all: QuerySet = queries.iter().map(|(q, _)| *q).collect();
        let regions = boxes
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                OutputRegion::new(
                    RegionId(i as u32),
                    CellId(0),
                    CellId(0),
                    Rect::new(lo.to_vec(), hi.to_vec()),
                    4,
                    4,
                    4.0,
                    all,
                )
            })
            .collect();
        RegionSet::new(regions, queries)
    }

    #[test]
    fn corner_masks_are_definition_8_in_every_subspace() {
        // Strict, touching, overlapping, incomparable and coincident pairs.
        let boxes = [
            Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]),
            Rect::new(vec![0.5, 0.0], vec![3.0, 0.5]),
            Rect::new(vec![0.0, 8.0], vec![1.0, 9.0]),
            Rect::point(&[1.0, 1.0]),
        ];
        for from in &boxes {
            for to in &boxes {
                let corners = CornerMasks::between(from, to);
                for bits in 1..4 {
                    let m = DimMask(bits);
                    assert_eq!(
                        corners.may_dominate(m),
                        from.may_dominate_region(to, m),
                        "{from:?} -> {to:?} in {m:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn strict_dominator_blocks_target() {
        // R0 strictly better than R1: edge R0 → R1, no back edge.
        let set = set_from_boxes(&[([0.0, 0.0], [1.0, 1.0]), ([5.0, 5.0], [6.0, 6.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        assert!(dg.is_root(RegionId(0)));
        assert!(!dg.is_root(RegionId(1)));
        assert_eq!(dg.threats_in(RegionId(1)).len(), 1);
        assert_eq!(dg.threats_out(RegionId(0)).len(), 1);
        // The edge covers both queries.
        assert_eq!(dg.threats_in(RegionId(1))[0].queries.len(), 2);
    }

    #[test]
    fn removal_promotes_new_roots() {
        let set = set_from_boxes(&[([0.0, 0.0], [1.0, 1.0]), ([5.0, 5.0], [6.0, 6.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        let roots = dg.remove(RegionId(0));
        assert_eq!(roots, vec![RegionId(1)]);
        assert!(dg.is_root(RegionId(1)));
        // The list stays; the edge on it is dead.
        let listed = dg.threats_in(RegionId(1));
        assert_eq!(listed.len(), 1);
        assert!(!live(&dg.since, &listed[0], 1, 0));
    }

    #[test]
    fn mutual_partial_domination_does_not_deadlock() {
        // Overlapping boxes: each can partially dominate the other.
        let set = set_from_boxes(&[([0.0, 0.0], [5.0, 5.0]), ([2.0, 2.0], [7.0, 7.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        // Threat edges exist in both directions…
        assert!(!dg.threats_in(RegionId(0)).is_empty());
        assert!(!dg.threats_in(RegionId(1)).is_empty());
        // …but neither blocks the other's scheduling.
        assert!(dg.is_root(RegionId(0)));
        assert!(dg.is_root(RegionId(1)));
    }

    #[test]
    fn incomparable_regions_are_unlinked() {
        // R0 better on d1, R1 better on d2 — on the full space incomparable,
        // but on {d1} (query 1) R0 can dominate R1.
        let set = set_from_boxes(&[([0.0, 8.0], [1.0, 9.0]), ([5.0, 0.0], [6.0, 1.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        let e = dg.threats_in(RegionId(1));
        assert_eq!(e.len(), 1);
        assert!(e[0].queries.contains(QueryId(1)));
        assert!(!e[0].queries.contains(QueryId(0)));
    }

    #[test]
    fn admit_patch_matches_rebuild() {
        // Two incomparable-on-full-space regions, initially serving only
        // query 0; admit query 1 over {d0} (where R0 can dominate R1) and
        // check the patched graph agrees edge-for-edge with a from-scratch
        // build over the grown query set.
        let boxes = [([0.0, 8.0], [1.0, 9.0]), ([5.0, 0.0], [6.0, 1.0])];
        let mk = |queries: Vec<(QueryId, DimMask)>, serving: QuerySet| {
            let regions = boxes
                .iter()
                .enumerate()
                .map(|(i, (lo, hi))| {
                    OutputRegion::new(
                        RegionId(i as u32),
                        CellId(0),
                        CellId(0),
                        Rect::new(lo.to_vec(), hi.to_vec()),
                        4,
                        4,
                        4.0,
                        serving,
                    )
                })
                .collect();
            RegionSet::new(regions, queries)
        };
        let q0 = (QueryId(0), DimMask::full(2));
        let q1 = (QueryId(1), DimMask::singleton(0));
        let mut set = mk(vec![q0], QuerySet::all(1));
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        assert!(dg.threats_in(RegionId(1)).is_empty());
        assert!(dg.is_root(RegionId(1)));

        set.admit_query(QueryId(1), DimMask::singleton(0));
        let cmp_before = stats.region_comparisons;
        dg.admit_query(&set, QueryId(1), &mut clock, &mut stats);
        assert!(stats.region_comparisons > cmp_before, "patch must pay");

        let reference = DependencyGraph::build(
            &mk(vec![q0, q1], QuerySet::all(2)),
            &mut SimClock::default(),
            &mut Stats::new(),
        );
        for r in [RegionId(0), RegionId(1)] {
            let mut a = dg.threats_in(r).to_vec();
            a.sort_by_key(|e| e.peer.0);
            let mut b = reference.threats_in(r).to_vec();
            b.sort_by_key(|e| e.peer.0);
            assert_eq!(a, b, "in-edges of {r:?} diverge from rebuild");
            assert_eq!(dg.is_root(r), reference.is_root(r));
        }
    }

    #[test]
    fn depart_drops_query_bits_and_unblocks() {
        // In `incomparable_regions_are_unlinked` the only edge R0 → R1 is on
        // behalf of query 1; its departure must erase the edge and promote
        // R1 to root.
        let set = set_from_boxes(&[([0.0, 8.0], [1.0, 9.0]), ([5.0, 0.0], [6.0, 1.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        assert!(!dg.is_root(RegionId(1)));
        dg.depart_query(QueryId(1));
        assert!(dg.threats_in(RegionId(1)).is_empty());
        assert!(dg.threats_out(RegionId(0)).is_empty());
        assert!(dg.is_root(RegionId(1)));
    }

    #[test]
    fn depart_keeps_shared_edges() {
        // A strict dominator threatens both queries; one departing must keep
        // the edge alive for the other.
        let set = set_from_boxes(&[([0.0, 0.0], [1.0, 1.0]), ([5.0, 5.0], [6.0, 6.0])]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        dg.depart_query(QueryId(1));
        let e = dg.threats_in(RegionId(1));
        assert_eq!(e.len(), 1);
        assert!(e[0].queries.contains(QueryId(0)));
        assert!(!e[0].queries.contains(QueryId(1)));
        assert!(!dg.is_root(RegionId(1)));
    }

    #[test]
    fn chain_removal_cascades() {
        // R0 ≺ R1 ≺ R2 strictly.
        let set = set_from_boxes(&[
            ([0.0, 0.0], [1.0, 1.0]),
            ([2.0, 2.0], [3.0, 3.0]),
            ([4.0, 4.0], [5.0, 5.0]),
        ]);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        assert!(dg.is_root(RegionId(0)));
        assert!(!dg.is_root(RegionId(1)));
        assert!(!dg.is_root(RegionId(2)));
        let r1 = dg.remove(RegionId(0));
        assert_eq!(r1, vec![RegionId(1)]);
        // R2 is still blocked by R1.
        assert!(!dg.is_root(RegionId(2)));
        let r2 = dg.remove(RegionId(1));
        assert_eq!(r2, vec![RegionId(2)]);
    }
}
