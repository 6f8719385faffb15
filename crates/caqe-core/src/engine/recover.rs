//! Graceful degradation (DESIGN.md §13): retry with virtual-tick backoff,
//! quarantine, backoff wake-up and contract-aware load shedding.
//!
//! Backoff is measured in *virtual ticks*, so recovery schedules are
//! deterministic.

use super::select::Pick;
use super::{GroupState, Run};
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{QueryId, RegionId};

/// Processing attempts before a region is quarantined (and admission
/// attempts before an injected admission panic stops recurring).
pub(super) const MAX_ATTEMPTS: u32 = 3;
/// Backoff after the first failure, doubling per retry.
const BACKOFF_BASE_TICKS: u64 = 64;
/// Ceiling on the exponential backoff.
const BACKOFF_CAP_TICKS: u64 = 1024;

/// Backoff after the `attempt`-th failure (1-based): exponential with a cap,
/// `base · 2^(attempt-1)` ticks.
pub(super) fn backoff_ticks(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(32);
    BACKOFF_BASE_TICKS
        .saturating_mul(1u64 << shift)
        .min(BACKOFF_CAP_TICKS)
}

impl GroupState {
    /// Marks the origins whose pending tuples must be re-examined once `rid`
    /// stops threatening anything (processed or retired): the region itself
    /// plus everything it threatens.
    pub(super) fn recheck_seed(&mut self, rid: RegionId) {
        self.recheck.insert(rid);
        let targets = self.g.dg.threats_out(rid).iter().map(|e| e.peer);
        self.recheck.extend(targets);
    }

    /// Retires a region that will never produce tuples (quarantined after
    /// repeated failures, shed under degradation, or orphaned by a
    /// departure): empties its serving set, removes it from the dependency
    /// graph and marks its [`recheck_seed`](Self::recheck_seed) — a retired
    /// region never materializes tuples, so its targets may now be safe.
    pub(super) fn retire_region(&mut self, rid: RegionId) {
        let reg = self.g.regions.region_mut(rid);
        for q in reg.serving.iter() {
            reg.kill_query(q);
        }
        self.g.dg.remove(rid);
        self.recheck_seed(rid);
    }
}

impl<S: TraceSink> Run<'_, S> {
    /// Traces one fault the plan injected at the current tick (`u32::MAX`
    /// for a group or region the fault is not tied to).
    pub(super) fn trace_fault(&mut self, kind: &'static str, group: u32, region: u32, factor: f64) {
        if S::ENABLED {
            self.sink.record(TraceEvent::FaultInjected {
                tick: self.clock.ticks(),
                group,
                region,
                kind,
                factor,
            });
        }
    }

    /// Routes a processing unit that panicked on its `attempt`-th try to a
    /// retry after backoff or, once out of budget, to quarantine. A `dirty`
    /// unit — one that mutated shared state before dying — cannot be re-run
    /// (its tuples would double-insert), so it skips the retry budget and is
    /// quarantined at once. Injected panics fire at unit entry and therefore
    /// always retry cleanly.
    pub(super) fn recover(&mut self, pick: Pick, attempt: u32, dirty: bool) {
        let Pick { gi, rid, .. } = pick;
        self.groups[gi].attempts[rid.index()] = attempt;
        if dirty || attempt >= MAX_ATTEMPTS {
            self.stats.regions_quarantined += 1;
            if S::ENABLED {
                self.sink.record(TraceEvent::RegionQuarantined {
                    tick: self.clock.ticks(),
                    group: gi as u32,
                    region: rid.0,
                    attempts: attempt,
                });
            }
            self.groups[gi].retire_region(rid);
            self.emit_safe(gi);
        } else {
            self.stats.region_retries += 1;
            let backoff = backoff_ticks(attempt);
            self.groups[gi].not_before[rid.index()] = self.clock.ticks() + backoff;
            if S::ENABLED {
                self.sink.record(TraceEvent::RegionRetry {
                    tick: self.clock.ticks(),
                    group: gi as u32,
                    region: rid.0,
                    attempt,
                    backoff_ticks: backoff,
                });
            }
        }
    }

    /// The earliest backoff expiry among alive regions still serving a
    /// penalty, if any.
    pub(super) fn earliest_wakeup(&self) -> Option<u64> {
        let now = self.clock.ticks();
        self.groups
            .iter()
            .flat_map(|gs| {
                let alive = gs.g.regions.regions().iter().filter(|reg| reg.is_alive());
                alive.map(|reg| gs.not_before[reg.id.index()])
            })
            .filter(|&nb| nb > now)
            .min()
    }

    /// Contract-aware degradation: when the mean running satisfaction slips
    /// below the configured floor, shed the lowest-CSM root region (Alg. 1
    /// ranking, live Eq. 11 weights) instead of letting every query stall
    /// behind it.
    pub(super) fn shed_if_starving(&mut self) {
        let policy = self.exec.degradation;
        if !self.engine.progressive_emission
            || !policy.enabled()
            || self.clock.ticks() < self.next_shed_check
        {
            return;
        }
        let Some(mean_sat) = self
            .unfinished_mean_satisfaction()
            .filter(|m| *m < policy.sat_floor)
        else {
            return;
        };
        let Some((gi, rid)) = self.pick_shed_victim() else {
            return;
        };
        self.stats.regions_shed += 1;
        if S::ENABLED {
            self.sink.record(TraceEvent::RegionShed {
                tick: self.clock.ticks(),
                group: gi as u32,
                region: rid.0,
                satisfaction: mean_sat,
            });
        }
        self.groups[gi].retire_region(rid);
        self.emit_safe(gi);
        self.next_shed_check = self.clock.ticks().saturating_add(policy.grace_ticks);
    }

    /// Mean running satisfaction over the active queries that are still
    /// *unfinished* — served by at least one alive region. Returns `None`
    /// when no such query exists, which disables the shed check entirely: a
    /// finished query's (typically high) satisfaction must never mask a
    /// starving peer, and with nothing unfinished there is nothing shedding
    /// could help.
    fn unfinished_mean_satisfaction(&self) -> Option<f64> {
        let mut n = 0usize;
        let mut sum = 0.0f64;
        for (qi, score) in self.queries.scores.iter().enumerate() {
            let qid = QueryId(qi as u16);
            let unfinished = self.queries.active[qi]
                && self.groups.iter().any(|gs| {
                    let regions = gs.g.regions.regions();
                    regions
                        .iter()
                        .any(|reg| reg.is_alive() && reg.serving.contains(qid))
                });
            if unfinished {
                n += 1;
                sum += score.runtime_satisfaction();
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{group_of, World};
    use super::*;
    use crate::config::EngineConfig;
    use caqe_types::DimMask;

    const FULL: [DimMask; 1] = [DimMask(0b11)];
    /// Two incomparable boxes: both regions are roots, neither threatens
    /// the other.
    const APART: [([f64; 2], [f64; 2]); 2] = [([0.0, 8.0], [1.0, 9.0]), ([8.0, 0.0], [9.0, 1.0])];

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_ticks(1), 64);
        assert_eq!(backoff_ticks(2), 128);
        assert_eq!(backoff_ticks(3), 256);
        assert_eq!(backoff_ticks(10), 1024);
        assert_eq!(backoff_ticks(63), 1024); // shift clamp, no overflow
    }

    #[test]
    fn retiring_rechecks_the_region_and_its_out_targets() {
        // A chain 0 → 1 → 2 (0 also threatens 2), and a region 3 that is
        // incomparable with all of them.
        let boxes = [
            ([10.0, 10.0], [11.0, 11.0]),
            ([12.0, 12.0], [13.0, 13.0]),
            ([14.0, 14.0], [15.0, 15.0]),
            ([0.0, 20.0], [1.0, 21.0]),
        ];
        let mut gs = GroupState::new(group_of(&boxes, &FULL));
        assert!(!gs.g.dg.is_root(RegionId(1)));
        gs.retire_region(RegionId(0));
        assert_eq!(gs.recheck.drain().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(!gs.g.regions.region(RegionId(0)).is_alive());
        assert!(gs.g.dg.is_root(RegionId(1)) && !gs.g.dg.is_root(RegionId(2)));
    }

    #[test]
    fn earliest_wakeup_ignores_dead_regions() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&APART, &FULL)]);
        assert_eq!(run.earliest_wakeup(), None);
        run.groups[0].not_before = vec![50, 80];
        assert_eq!(run.earliest_wakeup(), Some(50));
        run.groups[0].g.regions.region_mut(RegionId(0)).processed = true;
        assert_eq!(run.earliest_wakeup(), Some(80));
        run.clock.advance(80);
        assert_eq!(run.earliest_wakeup(), None);
    }

    #[test]
    fn failures_retry_with_backoff_then_quarantine() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&APART, &FULL)]);
        let first = run.select().expect("two roots");
        run.recover(first, 1, false);
        assert_eq!(
            run.groups[0].not_before[first.rid.index()],
            backoff_ticks(1)
        );
        assert!(run.groups[0].g.regions.region(first.rid).is_alive());
        run.recover(first, MAX_ATTEMPTS, false);
        assert!(!run.groups[0].g.regions.region(first.rid).is_alive());
        // A unit that died after touching shared state is never retried.
        let second = run.select().expect("the other root");
        run.recover(second, 1, true);
        assert!(!run.groups[0].g.regions.region(second.rid).is_alive());
        assert_eq!(run.stats.region_retries, 1);
        assert_eq!(run.stats.regions_quarantined, 2);
    }
}
