//! Operation counters — the metrics of the paper's evaluation (§7.1):
//! memory usage is proxied by the number of join results and CPU usage by
//! the number of pairwise skyline (dominance) comparisons, exactly as the
//! paper measures them in Figure 10.

use std::ops::AddAssign;

/// Per-query emission counters: the raw material of the Figure 9/11
/// per-query satisfaction breakdowns, accumulated directly by the
/// executors instead of being reconstructed from emission logs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerQueryStats {
    /// Result tuples emitted for this query.
    pub tuples_emitted: u64,
    /// Sum of the utilities awarded to this query's emissions (the
    /// numerator of the run-time satisfaction metric `v(Q_i, t)`).
    pub utility_sum: f64,
}

impl AddAssign for PerQueryStats {
    fn add_assign(&mut self, rhs: PerQueryStats) {
        self.tuples_emitted += rhs.tuples_emitted;
        self.utility_sum += rhs.utility_sum;
    }
}

/// Counters accumulated by an execution strategy over a whole workload run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Join-candidate pairs examined (probe attempts).
    pub join_probes: u64,
    /// Join results materialized (the paper's memory-usage metric).
    pub join_results: u64,
    /// Pairwise tuple-level dominance comparisons (the paper's CPU-usage
    /// metric, Figure 10.b).
    pub dom_comparisons: u64,
    /// Abstract region/cell-level dominance tests performed by the
    /// look-ahead, dependency graph and safe-emission machinery. These
    /// advance the virtual clock like any other work but are reported
    /// separately, mirroring the paper's metric which counts tuple-level
    /// skyline comparisons only.
    pub region_comparisons: u64,
    /// Mapping-function evaluations.
    pub map_evals: u64,
    /// Result tuples emitted across all queries.
    pub tuples_emitted: u64,
    /// Units of work (regions / chunks) processed at tuple level.
    pub regions_processed: u64,
    /// Regions discarded without tuple-level processing (look-ahead pruning).
    pub regions_pruned: u64,
    /// Join results discarded because their output cell was dominated.
    pub tuples_discarded: u64,
    /// Region processing attempts that failed (panicked) and were requeued
    /// with backoff. Zero unless fault injection is active.
    pub region_retries: u64,
    /// Regions quarantined after exhausting their retry budget.
    pub regions_quarantined: u64,
    /// Root regions shed by the contract-aware degradation policy.
    pub regions_shed: u64,
    /// Records dropped or quarantined by ingestion validation (non-finite
    /// values or duplicate identifiers).
    pub ingest_quarantined: u64,
    /// Non-finite preference values clamped by ingestion validation.
    pub ingest_clamped: u64,
    /// Virtual ticks spent building join groups (partitioning excluded —
    /// the quad-tree build is uncharged). Read off the clock at the engine's
    /// phase boundaries.
    pub build_ticks: u64,
    /// Virtual ticks spent in the probe/project phase of region processing.
    pub probe_ticks: u64,
    /// Virtual ticks spent in shared-plan skyline insertion.
    pub insert_ticks: u64,
    /// Virtual ticks spent in emission-safety checks and result emission.
    pub emit_ticks: u64,
    /// Dominance + region comparisons charged during group build.
    pub build_dom_cmps: u64,
    /// Tuple-level dominance comparisons charged during plan insertion.
    pub insert_dom_cmps: u64,
    /// Region-level comparisons charged by the emission-safety scan.
    pub emit_region_cmps: u64,
    /// Screening diagnostic: point signatures quantized (signature
    /// construction is uncharged physical work, like the SFS presort). This
    /// describes *how* the work was done, not what it charged — excluded
    /// from [`Stats::observable`].
    pub sig_builds: u64,
    /// Screening diagnostic: times a batch reached a shared-plan window
    /// that already carried its signature screen. Excluded from
    /// [`Stats::observable`].
    pub presort_cache_hits: u64,
    /// Screening diagnostic: times a batch reached a shared-plan window
    /// that had to attach its screen first. Excluded from
    /// [`Stats::observable`].
    pub presort_cache_misses: u64,
    /// Tuples materialized into group arenas (join-history occupancy).
    pub arena_tuples: u64,
    /// Points interned into shared-plan stores (one-copy occupancy).
    pub plan_points_interned: u64,
    /// Per-query breakdown of emissions and utility, indexed by `QueryId`.
    /// Empty until an executor sizes it to the workload; a memoized
    /// group-build delta carries it empty, so replaying one never
    /// misattributes across indices.
    pub per_query: Vec<PerQueryStats>,
}

/// Applies a caller macro to every scalar `u64` counter field, in
/// declaration order. The one list behind [`Stats::counters`] (which
/// `caqe-obs` reads) and `+=` — a counter added here is named and summed;
/// one left out is caught by `counters_name_every_scalar_field`.
macro_rules! with_counter_fields {
    ($apply:ident) => {
        $apply!(
            join_probes,
            join_results,
            dom_comparisons,
            region_comparisons,
            map_evals,
            tuples_emitted,
            regions_processed,
            regions_pruned,
            tuples_discarded,
            region_retries,
            regions_quarantined,
            regions_shed,
            ingest_quarantined,
            ingest_clamped,
            build_ticks,
            probe_ticks,
            insert_ticks,
            emit_ticks,
            build_dom_cmps,
            insert_dom_cmps,
            emit_region_cmps,
            sig_builds,
            presort_cache_hits,
            presort_cache_misses,
            arena_tuples,
            plan_points_interned
        )
    };
}

impl Stats {
    /// A zeroed counter set (workload-global totals only; call
    /// [`Stats::ensure_queries`] to open the per-query breakdown).
    pub fn new() -> Self {
        Stats::default()
    }

    /// Every scalar counter as a `(name, value)` pair, in declaration
    /// order. The per-query breakdown is not included — group-build stat
    /// deltas (the thing a plan memo records) carry it empty.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list {
            ($($f:ident),*) => { vec![$((stringify!($f), self.$f)),*] };
        }
        with_counter_fields!(list)
    }

    /// Sizes the per-query breakdown to at least `n` entries.
    pub fn ensure_queries(&mut self, n: usize) {
        if self.per_query.len() < n {
            self.per_query.resize(n, PerQueryStats::default());
        }
    }

    /// Credits one emission with utility `u` to query index `q`, growing
    /// the breakdown on demand.
    pub fn record_emission(&mut self, q: usize, u: f64) {
        self.tuples_emitted += 1;
        self.ensure_queries(q + 1);
        self.per_query[q].tuples_emitted += 1;
        self.per_query[q].utility_sum += u;
    }

    /// The charged observables: a copy with the screening diagnostics
    /// zeroed. Screened-vs-unscreened equivalence checks compare through
    /// this — the diagnostics say *how* the work was done, which is the one
    /// thing an unscreened reference arm is allowed to differ on.
    #[must_use]
    pub fn observable(&self) -> Stats {
        let mut s = self.clone();
        s.sig_builds = 0;
        s.presort_cache_hits = 0;
        s.presort_cache_misses = 0;
        s
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += rhs.$f;)* };
        }
        with_counter_fields!(sum);
        self.ensure_queries(rhs.per_query.len());
        for (mine, theirs) in self.per_query.iter_mut().zip(rhs.per_query) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Stats` whose `i`-th counter (in [`Stats::counters`] order) holds
    /// `i + 1`, so no two fields can stand in for each other.
    fn numbered() -> Stats {
        let mut s = Stats::new();
        let mut next = 0;
        macro_rules! number {
            ($($f:ident),*) => { $(next += 1; s.$f = next;)* };
        }
        with_counter_fields!(number);
        s
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = numbered();
        a.per_query = vec![PerQueryStats {
            tuples_emitted: 5,
            utility_sum: 2.5,
        }];
        a += a.clone();
        for (i, (name, v)) in a.counters().into_iter().enumerate() {
            assert_eq!(v, 2 * (i as u64 + 1), "{name}");
        }
        assert_eq!(a.per_query[0].tuples_emitted, 10);
        assert!((a.per_query[0].utility_sum - 5.0).abs() < 1e-12);
    }

    #[test]
    fn observable_zeroes_only_screening_diagnostics() {
        let mut s = Stats::new();
        s.dom_comparisons = 7;
        s.sig_builds = 8;
        s.presort_cache_hits = 9;
        s.presort_cache_misses = 10;
        let o = s.observable();
        assert_eq!(o.dom_comparisons, 7);
        assert_eq!(o.sig_builds, 0);
        assert_eq!(o.presort_cache_hits, 0);
        assert_eq!(o.presort_cache_misses, 0);
        // Everything else is untouched.
        let mut expect = s.clone();
        expect.sig_builds = 0;
        expect.presort_cache_hits = 0;
        expect.presort_cache_misses = 0;
        assert_eq!(o, expect);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Stats::new(), Stats::default());
        assert_eq!(Stats::new().join_results, 0);
        assert!(Stats::new().per_query.is_empty());
    }

    #[test]
    fn per_query_merge_handles_length_mismatch() {
        let mut a = Stats::new();
        a.ensure_queries(1);
        a.per_query[0].tuples_emitted = 3;
        let mut b = Stats::new();
        b.ensure_queries(3);
        b.per_query[2].utility_sum = 1.5;
        a += b;
        assert_eq!(a.per_query.len(), 3);
        assert_eq!(a.per_query[0].tuples_emitted, 3);
        assert_eq!(a.per_query[1], PerQueryStats::default());
        assert!((a.per_query[2].utility_sum - 1.5).abs() < 1e-12);
        // Merging an empty (memo-delta) breakdown changes nothing.
        let snapshot = a.clone();
        a += Stats::new();
        assert_eq!(a.per_query, snapshot.per_query);
    }

    #[test]
    fn counters_name_every_scalar_field() {
        let counters = numbered().counters();
        assert_eq!(counters.len(), 26);
        assert_eq!(counters[0], ("join_probes", 1));
        assert_eq!(counters[25], ("plan_points_interned", 26));
        // The list is the whole struct: every field but `per_query` is a
        // `u64` counter, so a field the list misses shows in the size.
        let listed = counters.len() * std::mem::size_of::<u64>();
        let per_query = std::mem::size_of::<Vec<PerQueryStats>>();
        assert_eq!(std::mem::size_of::<Stats>(), listed + per_query);
    }

    #[test]
    fn record_emission_grows_and_credits() {
        let mut s = Stats::new();
        s.record_emission(2, 0.5);
        s.record_emission(2, 0.25);
        s.record_emission(0, 1.0);
        assert_eq!(s.tuples_emitted, 3);
        assert_eq!(s.per_query.len(), 3);
        assert_eq!(s.per_query[2].tuples_emitted, 2);
        assert!((s.per_query[2].utility_sum - 0.75).abs() < 1e-12);
        assert_eq!(s.per_query[1].tuples_emitted, 0);
        assert_eq!(s.per_query[0].tuples_emitted, 1);
    }
}
