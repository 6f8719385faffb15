//! Contract-aware execution at tuple level (§6): run the chosen region as
//! one unit — its rows joined, projected and inserted by
//! [`Run::join_rows`] — under panic isolation with rollback to the last
//! commit, and discard what the new tuples dominate.

use super::rows::Rows;
use super::select::Pick;
use super::{GroupState, Run};
use crate::group::JoinGroup;
use caqe_data::Table;
use caqe_faults::InjectedPanic;
use caqe_operators::SortedJoinIndex;
use caqe_partition::{LeafCell, Partitioning};
use caqe_regions::depgraph::Edge;
use caqe_regions::{NewPoints, OutputRegion, ReconciledEstimate};
use caqe_trace::{SpanKind, TraceEvent, TraceSink};
use caqe_types::ids::QuerySet;
use caqe_types::{PointId, QueryId, RegionId};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

/// The regions a §6 discard scans.
#[derive(Clone, Copy)]
pub(super) enum Peers<'a> {
    /// Every region the processed region threatens, for the queries on the
    /// edge.
    ThreatenedBy(RegionId),
    /// The husks an admission revived, for the arrival alone.
    Revived(&'a [RegionId], QueryId),
}

impl<S: TraceSink> Run<'_, S> {
    /// Processes the picked region at tuple level, isolated against panics
    /// — injected by the fault plan or genuine. Returns, per member
    /// query (local order), the handles of tuples newly admitted to that
    /// query's skyline; or `None` when the unit failed, in which case the
    /// region has been routed to retry or quarantine ([`Run::recover`]) and
    /// stays unprocessed.
    ///
    /// `audit` carries the schedule-time estimates; the completion side is
    /// filled in and traced here.
    pub(super) fn execute(
        &mut self,
        pick: Pick,
        mut audit: ReconciledEstimate,
    ) -> Option<Vec<Vec<PointId>>> {
        let Pick { gi, rid, .. } = pick;
        let exec = self.exec;
        let faults = &exec.faults;
        let sched_tick = self.clock.ticks();
        let join_results_before = self.stats.join_results;
        self.clock.charge_region_overhead();
        let attempt = self.groups[gi].attempts[rid.index()] + 1;
        let g = &self.groups[gi].g;
        self.tuples.commit = (g.arena.len(), g.skipped.len());
        self.tuples.plan_written = false;
        let inject = faults.panics(gi as u32, rid.0, attempt);
        if inject {
            self.trace_fault("panic", gi as u32, rid.0, 1.0);
        }
        let unit = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic_any(InjectedPanic {
                    group: gi as u32,
                    region: rid.0,
                    attempt,
                });
            }
            self.join_rows(gi, rid, Rows::Region)
        }));
        let Ok(new_by_query) = unit else {
            let dirty = self.tuples.plan_written;
            if !dirty {
                // The probe died before the plan saw its rows: drop them and
                // the rows it skipped, back to the unit's start or its seed,
                // and the region retries from there.
                let (arena_len, skipped_len) = self.tuples.commit;
                let g = &mut self.groups[gi].g;
                g.arena.truncate(arena_len);
                g.points.truncate(arena_len);
                g.skipped.truncate(skipped_len);
            }
            self.recover(pick, attempt, dirty);
            return None;
        };
        self.stats.regions_processed += 1;
        self.groups[gi].g.regions.region_mut(rid).processed = true;

        // Injected cost spike: actual ticks blow past the estimate.
        if let Some(factor) = faults.cost_spike(gi as u32, rid.0) {
            let elapsed = self.clock.ticks() - sched_tick;
            let extra = (elapsed as f64 * (factor - 1.0)).max(0.0).round() as u64;
            self.clock.advance(extra);
            self.trace_fault("cost_spike", gi as u32, rid.0, factor);
        }

        if S::ENABLED {
            let completed_tick = self.clock.ticks();
            audit.actual_join = self.stats.join_results - join_results_before;
            audit.actual_skyline = new_by_query.iter().map(|v| v.len() as u64).sum();
            audit.actual_ticks = completed_tick - sched_tick;
            self.sink.record(TraceEvent::Span {
                kind: SpanKind::Region,
                group: Some(gi as u32),
                region: Some(rid.0),
                start_tick: sched_tick,
                end_tick: completed_tick,
            });
            self.sink.record(TraceEvent::EstimateAudit {
                scheduled_tick: sched_tick,
                completed_tick,
                group: gi as u32,
                region: rid.0,
                estimate: audit,
            });
        }
        Some(new_by_query)
    }

    /// Discards output cells (and whole regions) of `peers` that are
    /// dominated by newly materialized skyline tuples (§6) — per member
    /// query (local order), the handles in `new_by_query` — marking for
    /// recheck every origin whose pending tuples may have become safe as a
    /// result.
    pub(super) fn discard_dominated(
        &mut self,
        gi: usize,
        peers: Peers<'_>,
        new_by_query: &[Vec<PointId>],
    ) {
        let (clock, stats) = (&mut self.clock, &mut self.stats);
        let GroupState { g, recheck, .. } = &mut self.groups[gi];
        let JoinGroup {
            regions,
            dg,
            points,
            ..
        } = g;
        // Each query's new points and their floor, resolved once for every
        // peer.
        let news: Vec<Option<NewPoints>> = new_by_query
            .iter()
            .map(|pids| {
                let batch = pids.iter().map(|&pid| points.get(pid)).collect();
                (!pids.is_empty()).then(|| NewPoints::new(points.stride(), batch))
            })
            .collect();
        let revived: Vec<Edge>;
        let edges = match peers {
            Peers::ThreatenedBy(rid) => dg.threats_out(rid),
            Peers::Revived(husks, q) => {
                let queries = QuerySet::singleton(q);
                revived = husks.iter().map(|&peer| Edge { peer, queries }).collect();
                &revived
            }
        };
        let mut pruned = Vec::new();
        for &Edge { peer, queries: w } in edges {
            let mut shrunk = false;
            for (local, news) in news.iter().enumerate() {
                let (global, mask) = regions.queries()[local];
                let Some(news) = news.as_ref().filter(|_| w.contains(global)) else {
                    continue;
                };
                let reg = regions.region_mut(peer);
                if reg.processed || !reg.serving.contains(global) {
                    continue;
                }
                shrunk |= reg.discard_dominated(global, mask, news, clock, stats);
            }
            if shrunk {
                // The peer threatens fewer things now; its own targets may
                // have become safe.
                recheck.extend(dg.threats_out(peer).iter().map(|e| e.peer));
                if regions.region(peer).serving.is_empty() {
                    // A dead region never produces tuples: anything it
                    // threatened must be rechecked.
                    recheck.insert(peer);
                    pruned.push(peer);
                }
            }
        }
        stats.regions_pruned += pruned.len() as u64;
        for peer in pruned {
            dg.remove(peer);
        }
    }
}

/// Region `reg`'s T cell and the join index over it (build on T side):
/// stable-sorted `(key, row)` runs — matches per key come back in cell-row
/// order, the same order an append-built hash index would yield.
pub(super) fn join_index<'p>(
    part_t: &'p Partitioning,
    t: &Table,
    reg: &OutputRegion,
    join_col: usize,
) -> (&'p LeafCell, SortedJoinIndex) {
    let cell = part_t.cell(reg.t_cell);
    let rows = &cell.rows;
    (
        cell,
        SortedJoinIndex::build(rows.len(), |i| t.record(rows[i]).key(join_col)),
    )
}

#[cfg(test)]
mod tests {
    use super::super::testkit::crash::{arm, At};
    use super::super::testkit::{four_queries, group_of, result_sets, spec, World};
    use super::*;
    use crate::config::EngineConfig;
    use caqe_types::DimMask;
    use std::time::Instant;

    #[test]
    fn a_probe_that_dies_mid_way_is_rolled_back_and_retried() {
        let specs = || vec![spec(0, DimMask::full(4))];
        let mut world = World::new(EngineConfig::caqe());
        // How much the first region joins and keeps, and the unfaulted run.
        let mut run = world.start(specs(), false);
        let pick = run.select().expect("the join is not empty");
        run.execute(pick, ReconciledEstimate::default())
            .expect("no fault");
        let (results, rows) = (run.stats.join_results, run.groups[pick.gi].g.arena.len());
        assert!(rows > 0, "the first region keeps nothing");
        let mut run = world.start(specs(), false);
        run.drive(&[]).expect("runs");
        let clean = run.finish("clean", Instant::now());
        assert!(clean.total_results() > 0);

        // The seed boundary: a panic right after the seed's commit rolls
        // nothing back, and the retry joins only the rest.
        let mut run = world.start(specs(), false);
        assert_eq!(run.select(), Some(pick));
        let before = run.groups[pick.gi].g.arena.len();
        arm(pick.gi, pick.rid, At::Seeded);
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        let (seed_results, seeded) = (run.stats.join_results, run.groups[pick.gi].g.arena.len());
        assert!(
            before < seeded && seed_results < results,
            "no seed and rest"
        );
        assert!(run.groups[pick.gi].seeded[pick.rid.index()]);
        run.drive(&[]).expect("runs");
        let faulted = run.finish("faulted", Instant::now());
        assert_eq!(faulted.stats.regions_quarantined, 0);
        assert_eq!(result_sets(&faulted), result_sets(&clean));

        // A panic after the first and the last join result of the seed,
        // and of the rest: the arena returns to the unit's start, or to
        // the seed once that is in the plan.
        for n in [1, seed_results, seed_results + 1, results] {
            let mut run = world.start(specs(), false);
            assert_eq!(run.select(), Some(pick));
            arm(pick.gi, pick.rid, At::JoinResult(n));
            assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
            let g = &run.groups[pick.gi].g;
            let boundary = if n <= seed_results { before } else { seeded };
            assert_eq!(
                (g.arena.len(), g.points.len()),
                (boundary, boundary),
                "n = {n}"
            );
            assert!(g.regions.region(pick.rid).is_alive());
            assert_eq!(run.stats.region_retries, 1);
            // The seed's tuples wait for the rest: the region still to run
            // threatens them.
            run.groups[pick.gi].recheck.insert(pick.rid);
            run.emit_safe(pick.gi);
            assert!(run.queries.results.iter().all(Vec::is_empty), "n = {n}");
            run.drive(&[]).expect("runs");
            let faulted = run.finish("faulted", Instant::now());
            assert_eq!(faulted.stats.regions_quarantined, 0);
            assert_eq!(result_sets(&faulted), result_sets(&clean), "n = {n}");
        }

        // In session mode the skip record is part of the join history: a
        // panic after the region's last skip, which is the rest's, drops the
        // rest's record entries with its arena rows, and the retry records
        // them afresh.
        let mut world = World::roomy();
        let (target, skipped) = world.first_skipping_region();
        let mut run = world.start(four_queries(), true);
        run.drive(&[]).expect("runs");
        let clean = run.finish("clean", Instant::now());
        let lens = |run: &Run<'_, _>| {
            let g = &run.groups[target.0].g;
            (g.arena.len(), g.points.len(), g.skipped.len())
        };
        let mut run = world.start(four_queries(), true);
        let pick = run.step_to(target);
        let before = lens(&run);
        arm(pick.gi, pick.rid, At::Seeded);
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        let seeded = lens(&run);
        assert!(
            skipped > (seeded.2 - before.2) as u64,
            "the rest skips nothing"
        );
        let mut run = world.start(four_queries(), true);
        let pick = run.step_to(target);
        arm(pick.gi, pick.rid, At::Skipped(skipped));
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        assert_eq!(lens(&run), seeded);
        assert_eq!(run.stats.region_retries, 1);
        run.drive(&[]).expect("runs");
        let g = &run.groups[pick.gi].g;
        let entries = g.skipped.iter().filter(|&&(at, _)| at == pick.rid).count();
        assert_eq!(entries as u64, skipped, "the retry records the region once");
        let faulted = run.finish("faulted", Instant::now());
        assert_eq!(faulted.stats.regions_quarantined, 0);
        assert_eq!(result_sets(&faulted), result_sets(&clean));
    }

    #[test]
    fn a_panic_after_the_plan_write_quarantines_the_region() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.start(vec![spec(0, DimMask::full(4))], false);
        let pick = run.select().expect("the join is not empty");
        arm(pick.gi, pick.rid, At::AfterInsert(1));
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        assert_eq!(run.stats.regions_quarantined, 1);
        assert_eq!(run.stats.region_retries, 0);
        // The plan holds ids of the region's rows, so they stay.
        let g = &run.groups[pick.gi].g;
        assert!(!g.arena.is_empty());
        assert_eq!(g.arena.len(), g.points.len());
        assert_eq!(g.arena.len() as u64, run.stats.arena_tuples);
        assert!(!g.regions.region(pick.rid).is_alive());
        run.drive(&[]).expect("runs");

        // The skip record follows the arena: the rows skipped by the
        // batches the plan saw — the seed's, or the seed's and the rest's —
        // stay on record for a re-join.
        let mut world = World::roomy();
        let (target, skipped) = world.first_skipping_region();
        for write in [1, 2] {
            let mut run = world.start(four_queries(), true);
            let pick = run.step_to(target);
            let recorded = run.groups[pick.gi].g.skipped.len();
            let skipped_before = run.stats.rows_skipped;
            arm(pick.gi, pick.rid, At::AfterInsert(write));
            assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
            assert_eq!(run.stats.regions_quarantined, 1);
            let seen = run.stats.rows_skipped - skipped_before;
            assert_eq!(seen == skipped, write == 2, "write {write}");
            let g = &run.groups[pick.gi].g;
            assert_eq!(g.skipped.len() as u64, recorded as u64 + seen);
            assert!(g.skipped[recorded..].iter().all(|&(at, _)| at == pick.rid));
            run.drive(&[]).expect("runs");
        }
    }

    #[test]
    fn executing_a_region_materializes_its_join_and_registers_pending() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.start(vec![spec(0, DimMask::full(4))], false);
        let pick = run.select().expect("the join is not empty");
        let entered = run
            .execute(pick, ReconciledEstimate::default())
            .expect("no fault plan");
        let gs = &run.groups[pick.gi];
        assert!(gs.g.regions.region(pick.rid).processed);
        assert_eq!(run.stats.regions_processed, 1);
        assert!(!gs.g.arena.is_empty());
        assert_eq!(gs.g.arena.len() as u64, run.stats.arena_tuples);
        assert_eq!(gs.g.arena.len(), gs.g.points.len());
        assert!(gs.g.arena.iter().all(|tuple| tuple.origin == pick.rid));
        // What is pending is what is in the skyline now: every tuple that
        // entered it, minus those a later tuple of the batch evicted.
        let mut pending: Vec<u64> = gs.pending.iter().flatten().map(|p| p.tag).collect();
        pending.sort_unstable();
        let mut skyline = gs.g.plan.query_skyline_tags(QueryId(0));
        skyline.sort_unstable();
        assert_eq!(pending, skyline);
        assert!(skyline
            .iter()
            .all(|&tag| entered[0].contains(&PointId(tag as u32))));
    }

    #[test]
    fn new_tuples_discard_the_cells_they_dominate() {
        // Region 0 threatens region 1, whose 2×2 output cells have lower
        // corners (2,2), (3,2), (2,3) and (3,3).
        let boxes = [([0.0, 0.0], [1.0, 1.0]), ([2.0, 2.0], [4.0, 4.0])];
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&boxes, &[DimMask(0b11)])]);

        let partial = run.plant(0, &[2.5, 2.5], &[0]);
        let news = [vec![PointId(partial as u32)]];
        run.discard_dominated(0, Peers::ThreatenedBy(RegionId(0)), &news);
        let threatened = run.groups[0].g.regions.region(RegionId(1));
        assert_eq!(threatened.alive_cell_count(QueryId(0)), 3);
        assert_eq!(run.groups[0].recheck.drain().count(), 0);

        let total = run.plant(0, &[0.0, 0.0], &[0]);
        let news = [vec![PointId(total as u32)]];
        run.discard_dominated(0, Peers::ThreatenedBy(RegionId(0)), &news);
        assert!(!run.groups[0].g.regions.region(RegionId(1)).is_alive());
        assert_eq!(run.stats.regions_pruned, 1);
        assert_eq!(run.groups[0].recheck.drain().collect::<Vec<_>>(), vec![1]);
    }
}
