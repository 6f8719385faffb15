//! The min-max cuboid (Definition 7, Figure 6).

use crate::lattice::{q_serve, skycube_subspaces};
use caqe_types::ids::QuerySet;
use caqe_types::{DimMask, QueryId};

/// The pruned subspace lattice that the shared plan maintains skylines over.
///
/// A subspace `U` (with non-empty `QServe`) is kept iff at least one of
/// Definition 7's conditions holds:
///
/// 1. `|U| = 1` or `U` serves more than one query;
/// 2. no strict superset `V ⊃ U` has the same served-query set (i.e. `U` is
///    maximal for its lineage);
/// 3. `U` is the full preference subspace of some query.
///
/// ```
/// use caqe_cuboid::MinMaxCuboid;
/// use caqe_types::DimMask;
///
/// // The Figure 1 workload keeps 8 of the skycube's 15 subspaces.
/// let prefs = vec![
///     DimMask::from_dims([0, 1]),
///     DimMask::from_dims([0, 1, 2]),
///     DimMask::from_dims([1, 2]),
///     DimMask::from_dims([1, 2, 3]),
/// ];
/// let cuboid = MinMaxCuboid::build(&prefs);
/// assert_eq!(cuboid.len(), 8);
/// assert!(cuboid.contains(DimMask::from_dims([1, 2])));
/// assert!(!cuboid.contains(DimMask::from_dims([0, 3])));
/// ```
#[derive(Debug, Clone)]
pub struct MinMaxCuboid {
    /// Kept subspaces in ascending level order.
    subspaces: Vec<DimMask>,
    /// `serves[i]` = queries served by `subspaces[i]`.
    serves: Vec<QuerySet>,
    /// `children[i]` = indices of kept subspaces strictly contained in
    /// `subspaces[i]`.
    children: Vec<Vec<usize>>,
    /// `query_subspace[q]` = index of query `q`'s full preference subspace
    /// ([`INACTIVE_SUBSPACE`] for a departed slot).
    query_subspace: Vec<usize>,
    /// The queries' preference subspaces, as given. Departed queries keep
    /// their slot so global ids stay stable across churn.
    prefs: Vec<DimMask>,
    /// `active[q]` = whether slot `q` currently participates in Def. 7.
    active: Vec<bool>,
}

/// Sentinel `query_subspace` entry for an inactive (departed) query slot.
pub const INACTIVE_SUBSPACE: usize = usize::MAX;

impl MinMaxCuboid {
    /// Builds the min-max cuboid for a workload given each query's
    /// preference subspace `P_i`.
    ///
    /// # Panics
    /// Panics if `prefs` is empty, any preference is empty, or the union of
    /// dimensions exceeds 16.
    pub fn build(prefs: &[DimMask]) -> Self {
        Self::build_masked(prefs, &vec![true; prefs.len()])
    }

    /// [`MinMaxCuboid::build`] over the *active* subset of a query universe:
    /// inactive slots contribute nothing to Definition 7 but keep their
    /// global index (their `query_subspace` entry is [`INACTIVE_SUBSPACE`]).
    /// This is the from-scratch reference the incremental
    /// [`MinMaxCuboid::admit_query`] / [`MinMaxCuboid::depart_query`] paths
    /// are checked against.
    ///
    /// # Panics
    /// Panics if no slot is active, lengths differ, any active preference is
    /// empty, or the active dimension union exceeds 16.
    pub fn build_masked(prefs: &[DimMask], active: &[bool]) -> Self {
        assert_eq!(prefs.len(), active.len());
        assert!(
            active.iter().any(|&a| a),
            "workload must contain at least one active query"
        );
        assert!(
            prefs.iter().zip(active).all(|(p, &a)| !a || !p.is_empty()),
            "every active query needs at least one skyline dimension"
        );
        let (subspaces, serves, children, query_subspace) = Self::construct(prefs, active);
        MinMaxCuboid {
            subspaces,
            serves,
            children,
            query_subspace,
            prefs: prefs.to_vec(),
            active: active.to_vec(),
        }
    }

    /// Computes the Definition 7 keep-set over the active slots. Serve sets
    /// are indexed by *global* slot id so they stay meaningful across churn.
    fn construct(
        prefs: &[DimMask],
        active: &[bool],
    ) -> (Vec<DimMask>, Vec<QuerySet>, Vec<Vec<usize>>, Vec<usize>) {
        let active_prefs: Vec<DimMask> = prefs
            .iter()
            .zip(active)
            .filter(|(_, &a)| a)
            .map(|(&p, _)| p)
            .collect();
        let all = skycube_subspaces(&active_prefs);
        let serve_of = |u: DimMask| {
            let mut s = q_serve(u, prefs);
            for (i, &a) in active.iter().enumerate() {
                if !a {
                    s.remove(QueryId(i as u16));
                }
            }
            s
        };

        let mut kept: Vec<(DimMask, QuerySet)> = Vec::new();
        for &u in &all {
            let s = serve_of(u);
            if s.is_empty() {
                continue;
            }
            let cond1 = u.len() == 1 || s.len() > 1;
            // Condition 2: U is maximal for its lineage. Because any
            // superset's lineage is a subset of U's, "QServe(U) ⊆ QServe(V)"
            // for a strict superset V means equality.
            let cond2 = !all
                .iter()
                .any(|&v| u.is_strict_subset_of(v) && s.is_subset_of(serve_of(v)));
            let cond3 = active_prefs.contains(&u);
            if cond1 || cond2 || cond3 {
                kept.push((u, s));
            }
        }
        kept.sort_by_key(|(m, _)| (m.len(), m.0));

        let subspaces: Vec<DimMask> = kept.iter().map(|(m, _)| *m).collect();
        let serves: Vec<QuerySet> = kept.iter().map(|(_, s)| *s).collect();
        let children: Vec<Vec<usize>> = subspaces
            .iter()
            .map(|&u| {
                subspaces
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v.is_strict_subset_of(u))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        // Allowed survivor: construction condition 3 (every active query's
        // subspace is retained in `subspaces`) makes the lookup infallible.
        #[allow(clippy::expect_used)]
        let query_subspace: Vec<usize> = prefs
            .iter()
            .zip(active)
            .map(|(&p, &a)| {
                if !a {
                    return INACTIVE_SUBSPACE;
                }
                subspaces
                    .iter()
                    .position(|&u| u == p)
                    .expect("condition 3 guarantees each query's subspace is kept")
            })
            .collect();
        (subspaces, serves, children, query_subspace)
    }

    /// Admits a new query with preference subspace `pref` into the next free
    /// slot, extending the lattice per Definition 7. While some query is
    /// active, admission is purely *additive*: every previously kept
    /// subspace stays kept (its serve set can only grow, and a strict
    /// superset introduced by new dimensions serves only the new query, so
    /// it cannot newly absorb an old node's lineage). After the last
    /// departure, which leaves the shape untouched, the lattice is built for
    /// the arrival alone, and old subspaces it does not keep go. Returns,
    /// for each subspace index of the *new* lattice, the index it had in the
    /// old lattice (`None` for freshly added nodes) so callers can splice
    /// per-subspace state instead of rebuilding it.
    ///
    /// # Panics
    /// Panics if `pref` is empty or the dimension union exceeds 16.
    pub fn admit_query(&mut self, pref: DimMask) -> Vec<Option<usize>> {
        assert!(!pref.is_empty(), "admitted query needs skyline dimensions");
        let old_subspaces = std::mem::take(&mut self.subspaces);
        let additive = self.active.iter().any(|&a| a);
        self.prefs.push(pref);
        self.active.push(true);
        let (subspaces, serves, children, query_subspace) =
            Self::construct(&self.prefs, &self.active);
        let mapping: Vec<Option<usize>> = subspaces
            .iter()
            .map(|&u| {
                old_subspaces
                    .binary_search_by_key(&(u.len(), u.0), |m| (m.len(), m.0))
                    .ok()
            })
            .collect();
        debug_assert!(
            !additive || mapping.iter().flatten().count() == old_subspaces.len(),
            "admit must be additive: every old subspace stays kept"
        );
        self.subspaces = subspaces;
        self.serves = serves;
        self.children = children;
        self.query_subspace = query_subspace;
        mapping
    }

    /// Retires query `q` from the lattice, pruning subspaces that no longer
    /// satisfy Definition 7. Departure is purely *subtractive*: no new
    /// subspace can appear (subset relations between serve sets are
    /// preserved when a query bit is dropped from both sides). Returns the
    /// same new-index → old-index mapping as [`MinMaxCuboid::admit_query`];
    /// every entry is `Some`.
    ///
    /// If `q` is the last active query the lattice shape is left untouched
    /// (there is nothing to rank the keep-conditions against); only `q`'s
    /// serve bits are cleared.
    ///
    /// # Panics
    /// Panics if `q` is out of range or already inactive.
    pub fn depart_query(&mut self, q: QueryId) -> Vec<Option<usize>> {
        assert!(self.active[q.index()], "query departed twice");
        self.active[q.index()] = false;
        if !self.active.iter().any(|&a| a) {
            for s in &mut self.serves {
                s.remove(q);
            }
            self.query_subspace[q.index()] = INACTIVE_SUBSPACE;
            return (0..self.subspaces.len()).map(Some).collect();
        }
        let old_subspaces = std::mem::take(&mut self.subspaces);
        let (subspaces, serves, children, query_subspace) =
            Self::construct(&self.prefs, &self.active);
        let mapping: Vec<Option<usize>> = subspaces
            .iter()
            .map(|&u| {
                old_subspaces
                    .binary_search_by_key(&(u.len(), u.0), |m| (m.len(), m.0))
                    .ok()
            })
            .collect();
        debug_assert!(
            mapping.iter().all(|m| m.is_some()),
            "depart must be subtractive: no new subspace may appear"
        );
        self.subspaces = subspaces;
        self.serves = serves;
        self.children = children;
        self.query_subspace = query_subspace;
        mapping
    }

    /// Whether query slot `q` is currently active (admitted, not departed).
    /// Slots beyond the universe read as inactive.
    pub fn is_active(&self, q: QueryId) -> bool {
        self.active.get(q.index()).copied().unwrap_or(false)
    }

    /// The kept subspaces, ascending by level.
    pub fn subspaces(&self) -> &[DimMask] {
        &self.subspaces
    }

    /// Number of kept subspaces.
    pub fn len(&self) -> usize {
        self.subspaces.len()
    }

    /// Whether the cuboid is empty (never true for a valid workload).
    pub fn is_empty(&self) -> bool {
        self.subspaces.is_empty()
    }

    /// The queries served by kept subspace `i`.
    pub fn serves(&self, i: usize) -> QuerySet {
        self.serves[i]
    }

    /// Indices of kept subspaces strictly contained in kept subspace `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Index of the kept subspace equal to query `q`'s preference subspace.
    pub fn query_subspace(&self, q: QueryId) -> usize {
        self.query_subspace[q.index()]
    }

    /// The preference subspace of query `q`.
    pub fn pref(&self, q: QueryId) -> DimMask {
        self.prefs[q.index()]
    }

    /// Number of queries in the workload.
    pub fn num_queries(&self) -> usize {
        self.prefs.len()
    }

    /// Whether a subspace was kept.
    pub fn contains(&self, u: DimMask) -> bool {
        self.subspaces
            .binary_search_by_key(&(u.len(), u.0), |m| (m.len(), m.0))
            .is_ok()
    }

    /// Kept subspaces grouped by level (cardinality), ascending — the rows
    /// of Figure 6.
    pub fn levels(&self) -> Vec<Vec<DimMask>> {
        let mut levels: Vec<Vec<DimMask>> = Vec::new();
        for &u in &self.subspaces {
            let l = u.len() - 1;
            while levels.len() <= l {
                levels.push(Vec::new());
            }
            levels[l].push(u);
        }
        levels.retain(|l| !l.is_empty());
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_prefs() -> Vec<DimMask> {
        vec![
            DimMask::from_dims([0, 1]),
            DimMask::from_dims([0, 1, 2]),
            DimMask::from_dims([1, 2]),
            DimMask::from_dims([1, 2, 3]),
        ]
    }

    #[test]
    fn figure6_exact_cuboid() {
        let c = MinMaxCuboid::build(&figure1_prefs());
        let expect: Vec<DimMask> = vec![
            DimMask::singleton(0),
            DimMask::singleton(1),
            DimMask::singleton(2),
            DimMask::singleton(3),
            DimMask::from_dims([0, 1]),
            DimMask::from_dims([1, 2]),
            DimMask::from_dims([0, 1, 2]),
            DimMask::from_dims([1, 2, 3]),
        ];
        assert_eq!(c.subspaces(), expect.as_slice());
    }

    #[test]
    fn figure6_levels() {
        let c = MinMaxCuboid::build(&figure1_prefs());
        let levels = c.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].len(), 4); // all singletons
        assert_eq!(levels[1].len(), 2); // {d1,d2}, {d2,d3}
        assert_eq!(levels[2].len(), 2); // {d1,d2,d3}, {d2,d3,d4}
    }

    #[test]
    fn query_subspaces_are_kept() {
        let prefs = figure1_prefs();
        let c = MinMaxCuboid::build(&prefs);
        for (i, &p) in prefs.iter().enumerate() {
            let idx = c.query_subspace(QueryId(i as u16));
            assert_eq!(c.subspaces()[idx], p);
            assert!(c.serves(idx).contains(QueryId(i as u16)));
        }
    }

    #[test]
    fn children_are_strict_subsets() {
        let c = MinMaxCuboid::build(&figure1_prefs());
        for i in 0..c.len() {
            for &ch in c.children(i) {
                assert!(c.subspaces()[ch].is_strict_subset_of(c.subspaces()[i]));
            }
        }
        // {d1,d2,d3} contains d1, d2, d3, {d1,d2}, {d2,d3}.
        let top = DimMask::from_dims([0, 1, 2]);
        let i = c.subspaces().iter().position(|&u| u == top).unwrap();
        assert_eq!(c.children(i).len(), 5);
    }

    #[test]
    fn single_query_cuboid() {
        // One query over {d1, d2}: singletons + the query subspace.
        let c = MinMaxCuboid::build(&[DimMask::from_dims([0, 1])]);
        assert_eq!(
            c.subspaces(),
            &[
                DimMask::singleton(0),
                DimMask::singleton(1),
                DimMask::from_dims([0, 1])
            ]
        );
    }

    #[test]
    fn identical_queries_share_everything() {
        let p = DimMask::from_dims([0, 1, 2]);
        let c = MinMaxCuboid::build(&[p, p, p]);
        // Singletons + full subspace; intermediate 2-dim subspaces serve all
        // three queries (cond 1) so they are kept too.
        assert!(c.contains(p));
        for k in 0..3 {
            assert!(c.contains(DimMask::singleton(k)));
        }
        for i in 0..c.len() {
            assert!(!c.serves(i).is_empty());
        }
    }

    #[test]
    fn cuboid_is_subset_of_skycube() {
        let prefs = figure1_prefs();
        let c = MinMaxCuboid::build(&prefs);
        let sky = crate::lattice::skycube_subspaces(&prefs);
        assert!(c.len() <= sky.len());
        for &u in c.subspaces() {
            assert!(sky.contains(&u));
        }
    }

    #[test]
    fn definition7_holds_for_every_kept_subspace() {
        let prefs = figure1_prefs();
        let c = MinMaxCuboid::build(&prefs);
        let all = crate::lattice::skycube_subspaces(&prefs);
        for (i, &u) in c.subspaces().iter().enumerate() {
            let s = c.serves(i);
            assert!(!s.is_empty());
            let cond1 = u.len() == 1 || s.len() > 1;
            let cond2 = !all
                .iter()
                .any(|&v| u.is_strict_subset_of(v) && s.is_subset_of(q_serve(v, &prefs)));
            let cond3 = prefs.contains(&u);
            assert!(cond1 || cond2 || cond3, "kept subspace {u} violates Def. 7");
        }
    }

    #[test]
    #[should_panic]
    fn empty_pref_rejected() {
        let _ = MinMaxCuboid::build(&[DimMask::EMPTY]);
    }

    /// Structural equality modulo the serve/children/query_subspace views.
    fn assert_same_lattice(a: &MinMaxCuboid, b: &MinMaxCuboid) {
        assert_eq!(a.subspaces(), b.subspaces());
        for i in 0..a.len() {
            assert_eq!(a.serves(i), b.serves(i), "serve set differs at {i}");
            assert_eq!(a.children(i), b.children(i), "children differ at {i}");
        }
        assert_eq!(a.num_queries(), b.num_queries());
        for q in 0..a.num_queries() {
            let qid = QueryId(q as u16);
            assert_eq!(a.is_active(qid), b.is_active(qid));
            if a.is_active(qid) {
                assert_eq!(a.query_subspace(qid), b.query_subspace(qid));
            }
        }
    }

    #[test]
    fn admit_matches_masked_rebuild() {
        // Start from the first Figure 1 query and admit the rest one at a
        // time; after each admit the incremental lattice must be identical
        // to a from-scratch build over the grown workload.
        let prefs = figure1_prefs();
        let mut c = MinMaxCuboid::build(&prefs[..1]);
        for k in 1..prefs.len() {
            let mapping = c.admit_query(prefs[k]);
            let reference = MinMaxCuboid::build(&prefs[..=k]);
            assert_same_lattice(&c, &reference);
            // Mapping entries point at the right old subspaces.
            assert_eq!(mapping.len(), c.len());
        }
    }

    #[test]
    fn admit_is_additive() {
        let prefs = figure1_prefs();
        let mut c = MinMaxCuboid::build(&prefs[..2]);
        let before: Vec<DimMask> = c.subspaces().to_vec();
        let mapping = c.admit_query(prefs[3]);
        for (new_i, &u) in c.subspaces().iter().enumerate() {
            match mapping[new_i] {
                Some(old_i) => assert_eq!(before[old_i], u),
                None => assert!(!before.contains(&u), "node {u} wrongly marked new"),
            }
        }
        // Every old subspace survived.
        for &u in &before {
            assert!(c.contains(u), "admit dropped {u}");
        }
    }

    #[test]
    fn an_arrival_after_the_last_departure_gets_its_own_lattice() {
        // The last departure leaves the shape; the next arrival's lattice is
        // its own, and only the subspaces both keep carry over.
        let prefs = figure1_prefs();
        let mut c = MinMaxCuboid::build(&prefs[..2]);
        c.depart_query(QueryId(0));
        c.depart_query(QueryId(1));
        let before: Vec<DimMask> = c.subspaces().to_vec();
        let mapping = c.admit_query(prefs[2]);
        let reference = MinMaxCuboid::build_masked(&prefs[..3], &[false, false, true]);
        assert_same_lattice(&c, &reference);
        for (new_i, &u) in c.subspaces().iter().enumerate() {
            assert_eq!(
                mapping[new_i].map(|old_i| before[old_i]),
                before.contains(&u).then_some(u)
            );
        }
        assert!(mapping.iter().flatten().count() < before.len());
    }

    #[test]
    fn depart_matches_masked_rebuild() {
        let prefs = figure1_prefs();
        let mut c = MinMaxCuboid::build(&prefs);
        let mapping = c.depart_query(QueryId(3));
        assert!(mapping.iter().all(|m| m.is_some()));
        let reference = MinMaxCuboid::build_masked(&prefs, &[true, true, true, false]);
        assert_same_lattice(&c, &reference);
        // Q4's private subspace {d2,d3,d4} is gone, shared ones remain.
        assert!(!c.contains(DimMask::from_dims([1, 2, 3])));
        assert!(c.contains(DimMask::from_dims([1, 2])));
        assert!(!c.is_active(QueryId(3)));
    }

    #[test]
    fn depart_then_admit_round_trip() {
        // Departing a query and admitting an identical one restores the
        // lattice shape; the new query lives in a fresh slot.
        let prefs = figure1_prefs();
        let mut c = MinMaxCuboid::build(&prefs);
        let shape_before: Vec<DimMask> = c.subspaces().to_vec();
        c.depart_query(QueryId(1));
        c.admit_query(prefs[1]);
        assert_eq!(c.subspaces(), shape_before.as_slice());
        assert_eq!(c.num_queries(), 5);
        assert!(!c.is_active(QueryId(1)));
        assert!(c.is_active(QueryId(4)));
        assert_eq!(c.pref(QueryId(4)), prefs[1]);
        // The fresh slot's serve bits replace the departed one's.
        let i = c.query_subspace(QueryId(4));
        assert!(c.serves(i).contains(QueryId(4)));
        assert!(!c.serves(i).contains(QueryId(1)));
    }

    #[test]
    fn last_query_departing_keeps_lattice_shape() {
        let mut c = MinMaxCuboid::build(&[DimMask::from_dims([0, 1])]);
        let shape: Vec<DimMask> = c.subspaces().to_vec();
        let mapping = c.depart_query(QueryId(0));
        assert_eq!(mapping.len(), shape.len());
        assert_eq!(c.subspaces(), shape.as_slice());
        for i in 0..c.len() {
            assert!(c.serves(i).is_empty());
        }
        assert!(!c.is_active(QueryId(0)));
        // A later admit works from the empty active set.
        c.admit_query(DimMask::from_dims([0, 1]));
        assert!(c.is_active(QueryId(1)));
    }

    #[test]
    fn admit_with_new_dimensions_extends_lattice() {
        // Admitting a query over an entirely new dimension pair adds its
        // singletons and subspace without disturbing the old region of the
        // lattice.
        let mut c = MinMaxCuboid::build(&[DimMask::from_dims([0, 1])]);
        let mapping = c.admit_query(DimMask::from_dims([2, 3]));
        assert!(c.contains(DimMask::singleton(2)));
        assert!(c.contains(DimMask::from_dims([2, 3])));
        assert!(c.contains(DimMask::from_dims([0, 1])));
        // New nodes are flagged None in the mapping.
        let new_nodes = mapping.iter().filter(|m| m.is_none()).count();
        assert!(new_nodes >= 3, "expected ≥3 fresh nodes, got {new_nodes}");
    }

    #[test]
    #[should_panic]
    fn double_depart_rejected() {
        let mut c = MinMaxCuboid::build(&figure1_prefs());
        c.depart_query(QueryId(0));
        c.depart_query(QueryId(0));
    }
}
