//! The progressiveness-based benefit model (§5.3 of the paper).
//!
//! * [`buchta_estimate`] — Equation 9: the expected skyline size of `m`
//!   uniformly distributed `d`-dimensional points, `ln(m)^{d−1} / (d−1)!`
//!   (Buchta [4]);
//! * [`prog_count`] — Definition 11: how many of a region's output cells
//!   cannot be dominated by any *alive* threatening region;
//! * [`prog_est`] — Equation 10: the fraction of the region's estimated
//!   skyline output that is guaranteed progressive;
//!   (these two and their `soft_` relaxations re-derive every threat from
//!   the graph and are kept as the oracle for [`ThreatCounts`], which the
//!   scheduler reads instead);
//! * [`estimate_ticks`] — the cost model: projected virtual ticks to
//!   process the region at tuple level;
//! * [`region_csm`] — Equation 8: the Cumulative Satisfaction Metric that
//!   ranks candidate regions.

use crate::depgraph::DependencyGraph;
use crate::region::{OutputRegion, RegionSet};
use crate::threats::ThreatCounts;
use caqe_contract::QueryScore;
use caqe_types::{CostModel, QueryId, SimClock};

/// Equation 9: Buchta's estimate of the number of skyline points among `m`
/// independently distributed points in `d` dimensions. Clamped to `[1, m]`
/// for `m ≥ 1`.
pub fn buchta_estimate(m: f64, d: usize) -> f64 {
    if m <= 1.0 {
        return m.max(0.0);
    }
    let d = d.max(1);
    let mut fact = 1.0f64;
    for k in 2..d {
        fact *= k as f64;
    }
    (m.ln().powi(d as i32 - 1) / fact).clamp(1.0, m)
}

/// Definition 11: the number of output cells of `region` that are still
/// alive for `q` and cannot be dominated by any alive threatening region.
pub fn prog_count(
    set: &RegionSet,
    dg: &DependencyGraph,
    region: &OutputRegion,
    q: QueryId,
) -> usize {
    let mask = set.pref(q);
    let threats: Vec<&OutputRegion> = dg
        .threats_in(region.id)
        .iter()
        .filter(|e| e.queries.contains(q))
        .map(|e| set.region(e.peer))
        .filter(|r| r.is_alive() && r.serving.contains(q))
        .collect();
    (0..region.cell_count())
        .filter(|&c| region.cell_lineage(c).contains(q))
        .filter(|&c| {
            let (lo, hi) = region.cells().cell(c);
            !threats
                .iter()
                .any(|t| t.bounds.may_dominate_box(&lo, &hi, mask))
        })
        .count()
}

/// Equation 10: the progressiveness estimate of a region for one query —
/// the guaranteed-progressive fraction of its estimated skyline output.
pub fn prog_est(set: &RegionSet, dg: &DependencyGraph, region: &OutputRegion, q: QueryId) -> f64 {
    if !region.serving.contains(q) {
        return 0.0;
    }
    let cells = region.cell_count();
    if cells == 0 {
        return 0.0;
    }
    let frac = prog_count(set, dg, region, q) as f64 / cells as f64;
    let d = set.pref(q).len();
    frac * buchta_estimate(region.est_join, d)
}

/// Expected-value relaxation of Definition 11: each alive cell contributes
/// `1 / (1 + #alive threats that may dominate it)` instead of the
/// all-or-nothing guarantee of [`prog_count`].
///
/// Under heavy mutual overlap — e.g. subspace queries projecting many cell
/// pairs onto identical boxes — *every* cell of *every* region has at least
/// one potential dominator, so the guaranteed count collapses to zero for
/// all candidates at once and Equation 8 loses its contract signal entirely.
/// The soft count degrades smoothly: a cell with no threats still counts
/// 1.0 (agreeing with [`prog_count`]), a contested cell counts its survival
/// odds under the uniform-threat approximation.
pub fn soft_prog_count(
    set: &RegionSet,
    dg: &DependencyGraph,
    region: &OutputRegion,
    q: QueryId,
) -> f64 {
    let mask = set.pref(q);
    let threats: Vec<&OutputRegion> = dg
        .threats_in(region.id)
        .iter()
        .filter(|e| e.queries.contains(q))
        .map(|e| set.region(e.peer))
        .filter(|r| r.is_alive() && r.serving.contains(q))
        .collect();
    (0..region.cell_count())
        .filter(|&c| region.cell_lineage(c).contains(q))
        .map(|c| {
            let (lo, hi) = region.cells().cell(c);
            let n_threats = threats
                .iter()
                .filter(|t| t.bounds.may_dominate_box(&lo, &hi, mask))
                .count();
            1.0 / (1.0 + n_threats as f64)
        })
        .sum()
}

/// Expected-value counterpart of [`prog_est`], used by the CSM benefit
/// model (Equation 8) so that candidate ranking keeps a contract-weighted
/// signal even when no region's output is *guaranteed* progressive.
pub fn soft_prog_est(
    set: &RegionSet,
    dg: &DependencyGraph,
    region: &OutputRegion,
    q: QueryId,
) -> f64 {
    if !region.serving.contains(q) {
        return 0.0;
    }
    let cells = region.cell_count();
    if cells == 0 {
        return 0.0;
    }
    let frac = soft_prog_count(set, dg, region, q) / cells as f64;
    let d = set.pref(q).len();
    frac * buchta_estimate(region.est_join, d)
}

/// The optimizer's cost model: projected virtual ticks to process `region`
/// at tuple level — a hash join over the cell pair plus projection and
/// skyline insertion for the expected matches. `avg_sky` approximates the
/// dominance comparisons per insertion with the square root of the expected
/// match count (sub-linear window growth).
pub fn estimate_ticks(region: &OutputRegion, model: &CostModel, output_dims: usize) -> u64 {
    let probes = (region.n_r + region.n_t) as f64 + region.est_join;
    let avg_sky = region.est_join.sqrt().max(1.0);
    let ticks = model.region_overhead as f64
        + probes * model.join_probe as f64
        + region.est_join
            * (output_dims as f64 * model.map_eval as f64 + avg_sky * model.dom_cmp as f64);
    ticks.ceil() as u64
}

/// One region's benefit-model predictions reconciled against what actually
/// happened when the region was processed.
///
/// The scheduler commits to a region on the strength of three estimates —
/// the expected join size, the Buchta skyline estimate (Equation 9) behind
/// `ProgEst` (Equation 10), and the projected processing ticks behind
/// Equation 8's completion time. The trace layer records all three at
/// schedule time and the matching actuals at completion; the relative
/// errors below are the estimator-accuracy audit the adaptive-lattice
/// ROADMAP items depend on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReconciledEstimate {
    /// Expected join results of the cell pair (`est_join` of the region).
    pub est_join: f64,
    /// Buchta skyline estimate summed over the queries the region served.
    pub est_skyline: f64,
    /// Projected processing ticks ([`estimate_ticks`]).
    pub est_ticks: u64,
    /// Join results the region actually materialized.
    pub actual_join: u64,
    /// Tuples the region actually admitted to a query skyline (summed over
    /// served queries, counted at insertion time).
    pub actual_skyline: u64,
    /// Ticks the region's tuple-level processing actually charged.
    pub actual_ticks: u64,
}

/// Relative error `|est − actual| / max(actual, 1)`: the floor keeps
/// zero-actual regions (fully discarded output) from dividing by zero while
/// still penalizing estimates that promised output.
fn relative_error(est: f64, actual: f64) -> f64 {
    (est - actual).abs() / actual.max(1.0)
}

impl ReconciledEstimate {
    /// Relative error of the join-size estimate.
    pub fn join_rel_error(&self) -> f64 {
        relative_error(self.est_join, self.actual_join as f64)
    }

    /// Relative error of the Buchta skyline estimate (Equation 9).
    pub fn skyline_rel_error(&self) -> f64 {
        relative_error(self.est_skyline, self.actual_skyline as f64)
    }

    /// Relative error of the tick (cost) estimate.
    pub fn ticks_rel_error(&self) -> f64 {
        relative_error(self.est_ticks as f64, self.actual_ticks as f64)
    }
}

/// Equation 8: the Cumulative Satisfaction Metric of a candidate region at
/// the current virtual time.
///
/// For each query the region still serves, the expected progressive output
/// `N^i_est = ProgEst(R_c, Q_i)` — read off the reconciled `threats` table —
/// is scored with the query's utility function at the *projected completion
/// time* `t_curr + t_c`, weighted by the query's run-time weight `w_i`.
/// `t_c` is the region's [`estimate_ticks`].
pub fn region_csm(
    set: &RegionSet,
    threats: &ThreatCounts,
    region: &OutputRegion,
    scores: &[QueryScore],
    weights: &[f64],
    clock: &SimClock,
    t_c: u64,
) -> f64 {
    let t_done = clock.projected(t_c);
    let mut csm = 0.0;
    for (lq, (q, _)) in set.queries().iter().enumerate() {
        if !region.serving.contains(*q) {
            continue;
        }
        let est = threats.soft_prog_est(set, region, lq);
        if est <= 0.0 {
            continue;
        }
        // Utility of the batch, approximated at its median sequence number.
        let ahead = (est / 2.0).ceil() as u64;
        let u = scores[q.index()].hypothetical_utility(t_done, ahead.max(1));
        csm += weights[q.index()] * est * u;
    }
    csm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::OutputRegion;
    use caqe_contract::Contract;
    use caqe_types::ids::QuerySet;
    use caqe_types::{CellId, DimMask, Rect, RegionId, Stats};

    #[test]
    fn buchta_known_values() {
        // d = 1: skyline of distinct values has exactly 1 point.
        assert_eq!(buchta_estimate(1000.0, 1), 1.0);
        // d = 2: ln(m).
        assert!((buchta_estimate(1000.0, 2) - 1000.0f64.ln()).abs() < 1e-9);
        // d = 3: ln(m)^2 / 2.
        assert!((buchta_estimate(1000.0, 3) - 1000.0f64.ln().powi(2) / 2.0).abs() < 1e-9);
        // Monotone in d for large m.
        assert!(buchta_estimate(1e5, 4) > buchta_estimate(1e5, 3));
        // Degenerate inputs.
        assert_eq!(buchta_estimate(0.0, 3), 0.0);
        assert_eq!(buchta_estimate(1.0, 3), 1.0);
        // Never exceeds m.
        assert!(buchta_estimate(2.0, 5) <= 2.0);
    }

    fn two_region_set() -> (RegionSet, DependencyGraph) {
        let queries = vec![(QueryId(0), DimMask::full(2))];
        let all: QuerySet = queries.iter().map(|(q, _)| *q).collect();
        let r0 = OutputRegion::new(
            RegionId(0),
            CellId(0),
            CellId(0),
            Rect::new(vec![0.0, 0.0], vec![4.0, 4.0]),
            8,
            8,
            16.0,
            all,
        );
        // r1 sits up-and-right of r0's lower half: partially dominated.
        let r1 = OutputRegion::new(
            RegionId(1),
            CellId(1),
            CellId(1),
            Rect::new(vec![2.0, 2.0], vec![6.0, 6.0]),
            8,
            8,
            16.0,
            all,
        );
        let set = RegionSet::new(vec![r0, r1], queries);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
        (set, dg)
    }

    /// Equation 8 for one region over a freshly built threat table.
    fn csm_of(
        set: &RegionSet,
        dg: &DependencyGraph,
        rid: RegionId,
        scores: &[QueryScore],
        weights: &[f64],
        clock: &SimClock,
    ) -> f64 {
        let mut threats = ThreatCounts::default();
        threats.reconcile(set, dg);
        let region = set.region(rid);
        let t_c = estimate_ticks(region, clock.model(), 2);
        region_csm(set, &threats, region, scores, weights, clock, t_c)
    }

    #[test]
    fn prog_count_sees_threats() {
        let (set, dg) = two_region_set();
        let q = QueryId(0);
        // r0's cells can be dominated by r1's best corner (2,2)? Only cells
        // whose worst corner is strictly worse than (2,2): the top-right
        // cell [2,4]x[2,4] is at risk; the bottom-left [0,2]x[0,2] is safe.
        let c0 = prog_count(&set, &dg, set.region(RegionId(0)), q);
        assert!((1..4).contains(&c0), "prog_count(r0) = {c0}");
        // r1 is heavily threatened by r0 (lower corner (0,0) dominates all).
        let c1 = prog_count(&set, &dg, set.region(RegionId(1)), q);
        assert_eq!(c1, 0);
    }

    #[test]
    fn prog_est_scales_with_prog_count() {
        let (set, dg) = two_region_set();
        let q = QueryId(0);
        let e0 = prog_est(&set, &dg, set.region(RegionId(0)), q);
        let e1 = prog_est(&set, &dg, set.region(RegionId(1)), q);
        assert!(e0 > e1);
        assert_eq!(e1, 0.0);
        // Non-serving query returns 0.
        assert_eq!(
            prog_est(&set, &dg, set.region(RegionId(0)), QueryId(3)),
            0.0
        );
    }

    #[test]
    fn estimate_ticks_grows_with_work() {
        let model = CostModel::default();
        let queries = [(QueryId(0), DimMask::full(2))];
        let all: QuerySet = queries.iter().map(|(q, _)| *q).collect();
        let small = OutputRegion::new(
            RegionId(0),
            CellId(0),
            CellId(0),
            Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            4,
            4,
            2.0,
            all,
        );
        let big = OutputRegion::new(
            RegionId(1),
            CellId(0),
            CellId(0),
            Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            400,
            400,
            2000.0,
            all,
        );
        assert!(estimate_ticks(&big, &model, 2) > estimate_ticks(&small, &model, 2));
        assert!(estimate_ticks(&small, &model, 2) >= model.region_overhead);
    }

    #[test]
    fn csm_prefers_unthreatened_region() {
        let (set, dg) = two_region_set();
        let scores = vec![QueryScore::new(Contract::Deadline { t_hard: 100.0 }, 50.0)];
        let weights = vec![1.0];
        let clock = SimClock::default();
        let c0 = csm_of(&set, &dg, RegionId(0), &scores, &weights, &clock);
        let c1 = csm_of(&set, &dg, RegionId(1), &scores, &weights, &clock);
        assert!(
            c0 > c1,
            "CSM should favour the progressive region: {c0} vs {c1}"
        );
    }

    #[test]
    fn csm_scales_with_weight() {
        let (set, dg) = two_region_set();
        let scores = vec![QueryScore::new(Contract::Deadline { t_hard: 100.0 }, 50.0)];
        let clock = SimClock::default();
        let w1 = csm_of(&set, &dg, RegionId(0), &scores, &[1.0], &clock);
        let w2 = csm_of(&set, &dg, RegionId(0), &scores, &[2.0], &clock);
        assert!((w2 - 2.0 * w1).abs() < 1e-9);
    }

    #[test]
    fn reconciled_estimate_relative_errors() {
        let rec = ReconciledEstimate {
            est_join: 150.0,
            est_skyline: 12.0,
            est_ticks: 2000,
            actual_join: 100,
            actual_skyline: 10,
            actual_ticks: 1000,
        };
        assert!((rec.join_rel_error() - 0.5).abs() < 1e-12);
        assert!((rec.skyline_rel_error() - 0.2).abs() < 1e-12);
        assert!((rec.ticks_rel_error() - 1.0).abs() < 1e-12);
        // Perfect estimates read zero error.
        let exact = ReconciledEstimate {
            est_join: 100.0,
            est_skyline: 10.0,
            est_ticks: 1000,
            actual_join: 100,
            actual_skyline: 10,
            actual_ticks: 1000,
        };
        assert_eq!(exact.join_rel_error(), 0.0);
        assert_eq!(exact.skyline_rel_error(), 0.0);
        assert_eq!(exact.ticks_rel_error(), 0.0);
        // Zero actuals: the unit floor keeps the error finite and equal to
        // the unfulfilled estimate itself.
        let empty = ReconciledEstimate {
            est_join: 3.0,
            est_skyline: 2.0,
            est_ticks: 5,
            actual_join: 0,
            actual_skyline: 0,
            actual_ticks: 0,
        };
        assert!((empty.join_rel_error() - 3.0).abs() < 1e-12);
        assert!((empty.skyline_rel_error() - 2.0).abs() < 1e-12);
        assert!((empty.ticks_rel_error() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn csm_zero_after_deadline() {
        let (set, dg) = two_region_set();
        let scores = vec![QueryScore::new(Contract::Deadline { t_hard: 0.0001 }, 50.0)];
        let weights = vec![1.0];
        let clock = SimClock::default();
        // Any region completes after the (absurd) deadline: CSM = 0.
        let c = csm_of(&set, &dg, RegionId(0), &scores, &weights, &clock);
        assert_eq!(c, 0.0);
    }
}
