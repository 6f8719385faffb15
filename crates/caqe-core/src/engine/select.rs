//! Algorithm 1 (§5.3): which region to process next — and, inverted, which
//! one to shed.

use super::churn::QueryTable;
use super::Run;
use crate::config::SchedulingPolicy;
use crate::group::Counted;
use caqe_faults::FaultPlan;
use caqe_regions::{buchta_estimate, estimate_ticks, OutputRegion, ReconciledEstimate};
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{RegionId, SimClock};

/// A scheduler decision: the region to process and the score that won.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Pick {
    pub(super) gi: usize,
    pub(super) rid: RegionId,
    pub(super) score: f64,
}

/// The stable lowercase policy label used in trace decision events.
fn policy_label(policy: SchedulingPolicy) -> &'static str {
    match policy {
        SchedulingPolicy::ContractDriven => "contract",
        SchedulingPolicy::CountDriven => "count",
        SchedulingPolicy::Fifo => "fifo",
    }
}

/// The engine-side cost projection for a region: its `estimate_ticks`
/// (`base`) with any estimator perturbation fault applied (DESIGN.md §13). A
/// factor of exactly 1.0 — the no-fault case — takes the untouched estimate,
/// keeping the golden path bit-identical.
fn perturbed_est_ticks(faults: &FaultPlan, gi: u32, rid: RegionId, base: u64) -> u64 {
    let factor = faults.estimator_factor(gi, rid.0);
    if factor == 1.0 {
        base
    } else {
        ((base as f64 * factor).ceil() as u64).max(1)
    }
}

/// Everything one decision ranks its candidates against.
struct Ranker<'a> {
    policy: SchedulingPolicy,
    queries: &'a QueryTable,
    clock: &'a SimClock,
    faults: &'a FaultPlan,
}

impl Ranker<'_> {
    /// Scores one candidate region under the active policy.
    ///
    /// `witnessed` — per query, the number of pending tuples currently naming
    /// this region as their emission blocker (empty unless contract-driven).
    fn score(&self, g: &Counted<'_>, gi: u32, reg: &OutputRegion, witnessed: &[u32]) -> f64 {
        let (scores, weights) = (&self.queries.scores, &self.queries.weights);
        // Dominance-potential tiebreaker: heavily overlapping regions can
        // drive every progressiveness estimate to zero at once. Preferring
        // the region whose *worst* corner sorts best breaks the tie
        // productively — its tuples dominate the most output space,
        // triggering the discard cascade that unblocks safe emission
        // everywhere else.
        let potential: f64 = g
            .members
            .iter()
            .filter(|&&q| reg.serving.contains(q))
            .map(|&q| {
                let mask = g.regions.pref(q);
                let hi_score: f64 = mask.iter().map(|k| reg.bounds.hi()[k]).sum();
                weights[q.index()] / (1.0 + hi_score / mask.len() as f64)
            })
            .sum();
        let base_ticks = estimate_ticks(reg, self.clock.model(), g.mapping.output_dims());
        let ticks = perturbed_est_ticks(self.faults, gi, reg.id, base_ticks);
        match self.policy {
            SchedulingPolicy::ContractDriven => {
                // Equation 8 scores the expected utility of the region's
                // progressive output at its projected completion time. We
                // rank by *raw* expected benefit rather than benefit per
                // tick: under heavy subspace overlap the regions that matter
                // most are the dense minimal-corner ones whose output
                // dominates (and thereby discards or unblocks) the bulk of
                // the landscape, and dividing by their — systematically
                // underestimated — cost starves exactly those regions in
                // favour of cheap peripheral ones.
                let t_done = self.clock.projected(ticks);
                // Unblocking benefit: tuples already materialized and waiting
                // on exactly this region earn their utility the moment it
                // completes (or move their witness one blocker down the
                // clique). Without this term the optimizer spreads effort
                // across cliques and every emission arrives late.
                let mut unblock = 0.0;
                for (qi, &n) in witnessed.iter().enumerate() {
                    if n > 0 {
                        unblock +=
                            weights[qi] * n as f64 * scores[qi].hypothetical_utility(t_done, 1);
                    }
                }
                let csm = g.csm(reg, scores, weights, self.clock, base_ticks);
                csm + unblock + 1e-3 * potential
            }
            SchedulingPolicy::CountDriven => {
                // ProgXe+: estimated progressive output per tick,
                // contract-blind.
                g.prog_est(reg) / ticks.max(1) as f64 + 1e-3 * potential
            }
            SchedulingPolicy::Fifo => 0.0,
        }
    }
}

impl<S: TraceSink> Run<'_, S> {
    /// Picks the next region per the scheduling policy: among
    /// dependency-graph roots when any exist (falling back to all alive
    /// regions on cycles), the one with the highest score. Regions serving a
    /// backoff penalty are skipped; the loop advances the clock to the
    /// earliest wake-up when nothing else is schedulable.
    ///
    /// Each group is ranked through its [`JoinGroup::counted`] view, which is
    /// why this takes the run mutably.
    ///
    /// [`JoinGroup::counted`]: crate::group::JoinGroup::counted
    pub(super) fn select(&mut self) -> Option<Pick> {
        let now = self.clock.ticks();
        let policy = self.engine.policy;
        if policy == SchedulingPolicy::Fifo {
            // Amortized O(1): advance each group's cursor past the dead
            // prefix once instead of rescanning every region on every pick.
            // Backoff is temporary, so blocked regions are handled by the
            // forward scan and never absorbed into the cursor.
            for (gi, gs) in self.groups.iter_mut().enumerate() {
                let regions = gs.g.regions.regions();
                while regions.get(gs.fifo_cursor).is_some_and(|r| !r.is_alive()) {
                    gs.fifo_cursor += 1;
                }
                let next = regions[gs.fifo_cursor..]
                    .iter()
                    .find(|reg| reg.is_alive() && gs.not_before[reg.id.index()] <= now);
                if let Some(reg) = next {
                    return Some(Pick {
                        gi,
                        rid: reg.id,
                        score: 0.0,
                    });
                }
            }
            return None;
        }

        self.count_witnesses();
        let Run {
            groups,
            queries,
            clock,
            exec,
            witness_counts,
            ..
        } = self;
        let nq = queries.len();
        let ranker = Ranker {
            policy,
            queries,
            clock,
            faults: &exec.faults,
        };
        let mut best: Option<Pick> = None;
        let mut any_alive = false;
        for roots_only in [true, false] {
            let mut first = 0;
            for (gi, gs) in groups.iter_mut().enumerate() {
                let g = gs.g.counted();
                for reg in g.regions.regions() {
                    if !reg.is_alive() {
                        continue;
                    }
                    any_alive = true;
                    if gs.not_before[reg.id.index()] > now {
                        continue;
                    }
                    if roots_only && !g.dg.is_root(reg.id) {
                        continue;
                    }
                    let witnessed = match policy {
                        SchedulingPolicy::ContractDriven => {
                            &witness_counts[(first + reg.id.index()) * nq..][..nq]
                        }
                        _ => &[],
                    };
                    let score = ranker.score(&g, gi as u32, reg, witnessed);
                    if best.map_or(true, |b| score > b.score) {
                        best = Some(Pick {
                            gi,
                            rid: reg.id,
                            score,
                        });
                    }
                }
                first += g.regions.len();
            }
            if best.is_some() || !any_alive {
                break;
            }
            // No roots (mutual-domination cycle): fall back to all alive.
        }
        best
    }

    /// Witness credit. Per (group, region, query): how many pending tuples
    /// cite the region as their emission blocker (witness). Processing a
    /// heavily-cited blocker unblocks those tuples — or moves their witness
    /// one step down the blocker clique — so contract-driven candidates are
    /// credited for it. One flat table, `nq` counts per region, groups back
    /// to back; no iteration-ordered map on this traced path.
    fn count_witnesses(&mut self) {
        self.witness_counts.clear();
        if self.engine.policy != SchedulingPolicy::ContractDriven {
            return;
        }
        let nq = self.queries.len();
        let regions: usize = self.groups.iter().map(|gs| gs.g.regions.len()).sum();
        self.witness_counts.resize(regions * nq, 0);
        let mut first = 0;
        for gs in &self.groups {
            for p in gs.pending.iter().flatten() {
                for (q, witness) in &p.entries {
                    if let Some(w) = witness {
                        self.witness_counts[(first + w.index()) * nq + q.index()] += 1;
                    }
                }
            }
            first += gs.g.regions.len();
        }
    }

    /// Traces the decision and captures the schedule-time estimates for the
    /// completion-side audit. Everything here is a pure read of engine
    /// state: the clock is consulted, never charged.
    pub(super) fn trace_decision(&mut self, pick: Pick) -> ReconciledEstimate {
        let mut audit = ReconciledEstimate::default();
        if S::ENABLED {
            let (gi, rid) = (pick.gi as u32, pick.rid);
            let (scores, weights) = (&self.queries.scores, &self.queries.weights);
            let faults = &self.exec.faults;
            // FIFO never ranks, so this may be the first look at the counts.
            let g = self.groups[pick.gi].g.counted();
            let reg = g.regions.region(rid);
            audit.est_join = reg.est_join;
            audit.est_skyline = g
                .members
                .iter()
                .filter(|&&q| reg.serving.contains(q))
                .map(|&q| buchta_estimate(reg.est_join.max(1.0), g.regions.pref(q).len()))
                .sum();
            let base_ticks = estimate_ticks(reg, self.clock.model(), g.mapping.output_dims());
            audit.est_ticks = perturbed_est_ticks(faults, gi, rid, base_ticks);
            self.sink.record(TraceEvent::Decision {
                tick: self.clock.ticks(),
                group: gi,
                region: rid.0,
                policy: policy_label(self.engine.policy),
                root: g.dg.is_root(rid),
                score: pick.score,
                csm: g.csm(reg, scores, weights, &self.clock, base_ticks),
                prog_est: g.prog_est(reg),
                est_ticks: audit.est_ticks,
                weights: weights.clone(),
            });
            // One estimator-fault record per *scheduled* region (never per
            // scored candidate — that would flood the trace).
            let est_factor = faults.estimator_factor(gi, rid.0);
            if est_factor != 1.0 {
                self.trace_fault("estimator", gi, rid.0, est_factor);
            }
        }
        audit
    }

    /// Picks the load-shedding victim: the alive dependency-graph root with
    /// the lowest CSM (the Alg. 1 ranking inverted, under the live Eq. 11
    /// weights), skipping any region that is the *sole* remaining provider
    /// for some query it serves — shedding it would silently zero that
    /// query's result.
    pub(super) fn pick_shed_victim(&mut self) -> Option<(usize, RegionId)> {
        let (scores, weights) = (&self.queries.scores, &self.queries.weights);
        let mut victim: Option<(usize, RegionId, f64)> = None;
        for (gi, gs) in self.groups.iter_mut().enumerate() {
            let g = gs.g.counted();
            let out_dims = g.mapping.output_dims();
            for reg in g.regions.regions() {
                if !reg.is_alive() || !g.dg.is_root(reg.id) {
                    continue;
                }
                // Sole-provider guard: every query this region serves must
                // have at least one other alive region serving it.
                let sole = g.members.iter().any(|&q| {
                    reg.serving.contains(q)
                        && !g
                            .regions
                            .regions()
                            .iter()
                            .any(|o| o.id != reg.id && o.is_alive() && o.serving.contains(q))
                });
                if sole {
                    continue;
                }
                let t_c = estimate_ticks(reg, self.clock.model(), out_dims);
                let csm = g.csm(reg, scores, weights, &self.clock, t_c);
                if victim.map_or(true, |(_, _, best)| csm < best) {
                    victim = Some((gi, reg.id, csm));
                }
            }
        }
        victim.map(|(gi, rid, _)| (gi, rid))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{group_of, World};
    use crate::config::EngineConfig;
    use caqe_types::{DimMask, RegionId};

    const FULL: [DimMask; 1] = [DimMask(0b11)];

    #[test]
    fn roots_are_ranked_before_non_roots() {
        // Region 1 strictly dominates region 0, so only region 1 is a root.
        let boxes = [([5.0, 5.0], [6.0, 6.0]), ([0.0, 0.0], [1.0, 1.0])];
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&boxes, &FULL)]);
        assert!(!run.groups[0].g.dg.is_root(RegionId(0)));
        let first = run.select().expect("two alive regions");
        assert_eq!((first.gi, first.rid), (0, RegionId(1)));
        // Once the root completes, the region it blocked is the next root.
        run.groups[0].g.regions.region_mut(first.rid).processed = true;
        run.groups[0].g.dg.remove(first.rid);
        assert_eq!(run.select().map(|p| p.rid), Some(RegionId(0)));
        run.groups[0].g.regions.region_mut(RegionId(0)).processed = true;
        assert_eq!(run.select(), None);
    }

    #[test]
    fn a_cycle_without_roots_falls_back_to_all_alive() {
        // A → B → C → A, none of the edges mutual: each region is separated
        // from its successor on one dimension and spans the third widely.
        let boxes = [
            ([0.0, 0.0, 2.0], [1.0, 10.0, 3.0]),
            ([2.0, 0.0, 0.0], [3.0, 1.0, 10.0]),
            ([0.0, 2.0, 0.0], [10.0, 3.0, 1.0]),
        ];
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&boxes, &[DimMask(0b111)])]);
        let dg = &run.groups[0].g.dg;
        assert!((0..3).all(|i| !dg.is_root(RegionId(i))));
        assert!(run.select().is_some());
    }

    #[test]
    fn a_region_in_backoff_is_skipped_until_its_tick() {
        // Incomparable boxes: both are roots.
        let boxes = [([0.0, 8.0], [1.0, 9.0]), ([8.0, 0.0], [9.0, 1.0])];
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&boxes, &FULL)]);
        let winner = run.select().expect("two roots").rid;
        let now = run.clock.ticks();
        run.groups[0].not_before[winner.index()] = now + 10;
        let second = run.select().expect("the other root").rid;
        assert_ne!(second, winner);
        run.groups[0].not_before[second.index()] = now + 20;
        assert_eq!(run.select(), None, "every alive region is backing off");
        assert_eq!(run.earliest_wakeup(), Some(now + 10));
        run.clock.advance(10);
        assert_eq!(run.select().map(|p| p.rid), Some(winner));
    }

    #[test]
    fn fifo_cursor_never_revisits_a_dead_prefix() {
        let boxes = [
            ([0.0, 0.0], [1.0, 1.0]),
            ([1.0, 1.0], [2.0, 2.0]),
            ([2.0, 2.0], [3.0, 3.0]),
            ([3.0, 3.0], [4.0, 4.0]),
        ];
        let mut world = World::new(EngineConfig::s_jfsl());
        let mut run = world.over(vec![group_of(&boxes, &FULL)]);
        for dead in [0, 1] {
            run.groups[0].g.regions.region_mut(RegionId(dead)).processed = true;
        }
        assert_eq!(run.select().map(|p| p.rid), Some(RegionId(2)));
        assert_eq!(run.groups[0].fifo_cursor, 2);
        // Backoff is temporary: the scan steps over region 2, the cursor
        // does not.
        run.groups[0].not_before[2] = run.clock.ticks() + 1;
        assert_eq!(run.select().map(|p| p.rid), Some(RegionId(3)));
        assert_eq!(run.groups[0].fifo_cursor, 2);
        run.groups[0].not_before[2] = 0;
        run.groups[0].g.regions.region_mut(RegionId(2)).processed = true;
        assert_eq!(run.select().map(|p| p.rid), Some(RegionId(3)));
        assert_eq!(run.groups[0].fifo_cursor, 3);
    }
}
