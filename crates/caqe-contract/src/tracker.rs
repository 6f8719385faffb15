//! Per-query score accumulation: `pScore` (Equation 7) and the run-time
//! satisfaction metric `v(Q_i, t_j)` (§6 of the paper).

use crate::model::{Contract, EmissionCtx};
use caqe_types::VirtualSeconds;

/// A point-in-time view of one query's satisfaction state, taken after an
/// emission (or at any scheduling decision). Consumed by the trace layer to
/// build the Figure 9/11 satisfaction *timelines* without re-deriving the
/// running metric from emission logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatisfactionSnapshot {
    /// Results emitted so far (the sequence number of the latest emission).
    pub count: u64,
    /// Sum of the utilities awarded so far (`pScore`, Equation 7).
    pub sum_utility: f64,
    /// The run-time satisfaction metric `v(Q_i, t)` at this point.
    pub satisfaction: f64,
}

/// Tracks the emissions of one query under its contract.
#[derive(Debug, Clone)]
pub struct QueryScore {
    contract: Contract,
    /// Best current estimate of the query's final result count.
    est_total: f64,
    /// Virtual time the query entered the system; contracts are evaluated
    /// on time *since admission*, so a query admitted mid-run is not judged
    /// against deadlines that expired before it existed. 0 for the initial
    /// workload — the historical behavior, bit-for-bit.
    start: VirtualSeconds,
    emissions: Vec<(VirtualSeconds, f64)>,
    sum_utility: f64,
}

impl QueryScore {
    /// A fresh tracker for a query under `contract`, with an initial
    /// estimate of the final result cardinality.
    pub fn new(contract: Contract, est_total: f64) -> Self {
        QueryScore::new_at(contract, est_total, 0.0)
    }

    /// [`QueryScore::new`] for a query admitted at virtual time `start`:
    /// every utility evaluation shifts timestamps by `-start` first.
    pub fn new_at(contract: Contract, est_total: f64, start: VirtualSeconds) -> Self {
        QueryScore {
            contract,
            est_total: est_total.max(1.0),
            start,
            emissions: Vec::new(),
            sum_utility: 0.0,
        }
    }

    /// The virtual time this query was admitted at (0 for the initial
    /// workload).
    pub fn start(&self) -> VirtualSeconds {
        self.start
    }

    /// The contract being tracked.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// The current cardinality estimate.
    pub fn est_total(&self) -> f64 {
        self.est_total
    }

    /// Records one emitted result at virtual time `ts`, returning its
    /// utility score.
    pub fn record(&mut self, ts: VirtualSeconds) -> f64 {
        let seq = self.emissions.len() as u64 + 1;
        let u = self
            .contract
            .utility(&EmissionCtx::new(ts - self.start, seq, self.est_total));
        // Stored timestamps stay absolute — the trace layer reports the
        // global timeline; only the utility evaluation is admission-relative.
        self.emissions.push((ts, u));
        self.sum_utility += u;
        u
    }

    /// The utility a *hypothetical* emission at time `ts` with sequence
    /// offset `ahead` (1 = the very next result) would earn. Used by the
    /// optimizer's benefit model (Equation 8) without perturbing state.
    pub fn hypothetical_utility(&self, ts: VirtualSeconds, ahead: u64) -> f64 {
        let seq = self.emissions.len() as u64 + ahead;
        self.contract
            .utility(&EmissionCtx::new(ts - self.start, seq, self.est_total))
    }

    /// Number of results emitted so far.
    pub fn count(&self) -> u64 {
        self.emissions.len() as u64
    }

    /// The progressiveness score `pScore` (Equation 7): the sum of all
    /// assigned utilities.
    pub fn p_score(&self) -> f64 {
        self.sum_utility
    }

    /// The run-time satisfaction metric `v(Q_i, t)`: the average utility of
    /// all results reported so far; 0 while the query has produced nothing
    /// (an unserved query is maximally unsatisfied, driving the Equation 11
    /// weight boost).
    pub fn runtime_satisfaction(&self) -> f64 {
        if self.emissions.is_empty() {
            0.0
        } else {
            self.sum_utility / self.emissions.len() as f64
        }
    }

    /// The final per-query satisfaction reported in Figures 9 and 11: the
    /// mean utility per result, clamped to `[0, 1]`. A query with no results
    /// at all is vacuously satisfied.
    pub fn final_satisfaction(&self) -> f64 {
        if self.emissions.is_empty() {
            1.0
        } else {
            (self.sum_utility / self.emissions.len() as f64).clamp(0.0, 1.0)
        }
    }

    /// The recorded `(timestamp, utility)` pairs, in emission order.
    pub fn emissions(&self) -> &[(VirtualSeconds, f64)] {
        &self.emissions
    }

    /// The current satisfaction state as one copyable record (see
    /// [`SatisfactionSnapshot`]).
    pub fn snapshot(&self) -> SatisfactionSnapshot {
        SatisfactionSnapshot {
            count: self.count(),
            sum_utility: self.sum_utility,
            satisfaction: self.runtime_satisfaction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_score_sums_utilities() {
        let mut s = QueryScore::new(Contract::Deadline { t_hard: 10.0 }, 100.0);
        assert_eq!(s.record(5.0), 1.0);
        assert_eq!(s.record(9.0), 1.0);
        assert_eq!(s.record(11.0), 0.0);
        assert_eq!(s.p_score(), 2.0);
        assert_eq!(s.count(), 3);
        assert!((s.runtime_satisfaction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.final_satisfaction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_query_runtime_vs_final() {
        let s = QueryScore::new(Contract::LogDecay, 10.0);
        assert_eq!(s.runtime_satisfaction(), 0.0);
        assert_eq!(s.final_satisfaction(), 1.0);
        assert_eq!(s.p_score(), 0.0);
    }

    #[test]
    fn sequence_numbers_feed_quota_contracts() {
        // 10% of 10 per 1s ⇒ 1 due per second.
        let mut s = QueryScore::new(
            Contract::Quota {
                frac: 0.1,
                interval: 1.0,
            },
            10.0,
        );
        assert_eq!(s.record(0.5), 1.0); // #1 due at 1s
        assert_eq!(s.record(1.5), 1.0); // #2 due at 2s
        let late = s.record(30.0); // #3 due at 3s → 0.1
        assert!((late - 0.1).abs() < 1e-9);
    }

    #[test]
    fn hypothetical_does_not_mutate() {
        let s = QueryScore::new(Contract::Deadline { t_hard: 10.0 }, 100.0);
        assert_eq!(s.hypothetical_utility(5.0, 1), 1.0);
        assert_eq!(s.hypothetical_utility(15.0, 1), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn estimates_are_floored_at_one() {
        let s = QueryScore::new(Contract::LogDecay, 0.0);
        assert_eq!(s.est_total(), 1.0);
    }

    #[test]
    fn zero_emissions_is_unsatisfied_regardless_of_clock() {
        // The run-time metric is emission-driven: a query that has produced
        // nothing reads v = 0 whether the virtual clock sits at 0 or far
        // past every deadline — the clock only enters through the utilities
        // of actual emissions.
        let s = QueryScore::new(Contract::Deadline { t_hard: 1.0 }, 10.0);
        assert_eq!(s.runtime_satisfaction(), 0.0);
        // Probing utilities deep past the deadline must not perturb it.
        assert_eq!(s.hypothetical_utility(1e9, 1), 0.0);
        assert_eq!(s.runtime_satisfaction(), 0.0);
        assert_eq!(s.count(), 0);
        // The snapshot agrees with the direct reads.
        let snap = s.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum_utility, 0.0);
        assert_eq!(snap.satisfaction, 0.0);
    }

    #[test]
    fn late_admission_shifts_contract_time() {
        // A query admitted at t=100 under a 10s deadline earns full utility
        // for emissions before t=110 and nothing after, while a start-0 twin
        // judges the same absolute timestamps as long expired.
        let mut late = QueryScore::new_at(Contract::Deadline { t_hard: 10.0 }, 100.0, 100.0);
        let mut early = QueryScore::new(Contract::Deadline { t_hard: 10.0 }, 100.0);
        assert_eq!(late.start(), 100.0);
        assert_eq!(late.hypothetical_utility(105.0, 1), 1.0);
        assert_eq!(early.hypothetical_utility(105.0, 1), 0.0);
        assert_eq!(late.record(105.0), 1.0);
        assert_eq!(late.record(111.0), 0.0);
        assert_eq!(early.record(105.0), 0.0);
        // Emission timestamps stay absolute for the trace layer.
        assert_eq!(late.emissions()[0].0, 105.0);
    }

    #[test]
    fn snapshot_tracks_emissions() {
        let mut s = QueryScore::new(Contract::Deadline { t_hard: 10.0 }, 100.0);
        s.record(5.0);
        s.record(11.0);
        let snap = s.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_utility, 1.0);
        assert!((snap.satisfaction - 0.5).abs() < 1e-12);
        assert_eq!(snap.satisfaction, s.runtime_satisfaction());
    }
}
