//! Run outcomes: everything the paper's evaluation measures (§7.1).

use caqe_types::{Fnv1a, QueryId, Stats, VirtualSeconds};

/// Per-query outcome of one workload execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query.
    pub query: QueryId,
    /// `(emission time, utility)` of every result, in emission order.
    pub emissions: Vec<(VirtualSeconds, f64)>,
    /// Provenance `(rid, tid)` of every result, in emission order — used by
    /// correctness tests to compare result *sets* across strategies.
    pub results: Vec<(u64, u64)>,
    /// The progressiveness score `pScore` (Equation 7).
    pub p_score: f64,
    /// The average satisfaction reported in Figures 9 and 11 (mean utility
    /// per result, clamped to `[0, 1]`; vacuously 1 for empty results).
    pub satisfaction: f64,
}

impl QueryOutcome {
    /// Number of results emitted.
    pub fn count(&self) -> usize {
        self.results.len()
    }

    /// Time of the first emission, if any — a progressiveness indicator.
    pub fn first_emission(&self) -> Option<VirtualSeconds> {
        self.emissions.first().map(|(ts, _)| *ts)
    }

    /// Time of the last emission, if any.
    pub fn last_emission(&self) -> Option<VirtualSeconds> {
        self.emissions.last().map(|(ts, _)| *ts)
    }
}

/// The outcome of running one strategy over one workload.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Strategy name ("CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ").
    pub strategy: String,
    /// Per-query outcomes, indexed by `QueryId`.
    pub per_query: Vec<QueryOutcome>,
    /// Operation counters (join results = memory metric, dominance
    /// comparisons = CPU metric, Figure 10).
    pub stats: Stats,
    /// Total virtual execution time.
    pub virtual_seconds: VirtualSeconds,
    /// Wall-clock seconds actually spent (informational).
    pub wall_seconds: f64,
}

impl RunOutcome {
    /// The workload-wide average satisfaction (the y-axis of Figures 9
    /// and 11): the mean of the per-query satisfaction metrics.
    pub fn avg_satisfaction(&self) -> f64 {
        if self.per_query.is_empty() {
            return 1.0;
        }
        self.per_query.iter().map(|q| q.satisfaction).sum::<f64>() / self.per_query.len() as f64
    }

    /// The cumulative progressiveness score of the workload (Equation 6).
    pub fn total_p_score(&self) -> f64 {
        self.per_query.iter().map(|q| q.p_score).sum()
    }

    /// Total results emitted across queries.
    pub fn total_results(&self) -> usize {
        self.per_query.iter().map(|q| q.count()).sum()
    }

    /// FNV-1a digest of everything deterministic about the run: per-query
    /// emission `(time, utility)` pairs (by exact bit pattern), result
    /// provenance, and the virtual clock. Wall time is excluded by
    /// construction.
    ///
    /// Two runs are observably equivalent iff their digests match; the
    /// serving layer uses this to prove a snapshot/restore cycle
    /// trace-equivalent to an uninterrupted run without retaining full
    /// outcomes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.usize(self.per_query.len());
        for q in &self.per_query {
            h.usize(q.emissions.len());
            for (ts, util) in &q.emissions {
                h.f64(*ts).f64(*util);
            }
            for (rid, tid) in &q.results {
                h.u64(*rid).u64(*tid);
            }
            h.f64(q.p_score).f64(q.satisfaction);
        }
        h.f64(self.virtual_seconds);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            strategy: "TEST".into(),
            per_query: vec![
                QueryOutcome {
                    query: QueryId(0),
                    emissions: vec![(1.0, 1.0), (2.0, 0.5)],
                    results: vec![(0, 0), (1, 1)],
                    p_score: 1.5,
                    satisfaction: 0.75,
                },
                QueryOutcome {
                    query: QueryId(1),
                    emissions: vec![],
                    results: vec![],
                    p_score: 0.0,
                    satisfaction: 1.0,
                },
            ],
            stats: Stats::new(),
            virtual_seconds: 2.0,
            wall_seconds: 0.01,
        }
    }

    #[test]
    fn aggregates() {
        let o = outcome();
        assert!((o.avg_satisfaction() - 0.875).abs() < 1e-12);
        assert_eq!(o.total_p_score(), 1.5);
        assert_eq!(o.total_results(), 2);
        assert_eq!(o.per_query[0].count(), 2);
        assert_eq!(o.per_query[0].first_emission(), Some(1.0));
        assert_eq!(o.per_query[0].last_emission(), Some(2.0));
        assert_eq!(o.per_query[1].first_emission(), None);
    }

    #[test]
    fn digest_ignores_wall_time_but_sees_everything_else() {
        let a = outcome();
        let mut b = outcome();
        b.wall_seconds = 123.0;
        assert_eq!(a.digest(), b.digest(), "wall time must not matter");
        let mut c = outcome();
        c.per_query[0].emissions[1].1 = 0.5000001;
        assert_ne!(a.digest(), c.digest(), "utility changes must matter");
        let mut d = outcome();
        d.per_query[1].results.push((9, 9));
        assert_ne!(a.digest(), d.digest(), "result sets must matter");
        let mut e = outcome();
        e.virtual_seconds = 3.0;
        assert_ne!(a.digest(), e.digest(), "the virtual clock must matter");
    }
}
