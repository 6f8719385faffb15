//! Contract-aware execution at tuple level (§6): join the chosen region's
//! cell pair, project, insert into the shared skyline plan, keep the
//! pending-emission lists in step, and discard what the new tuples dominate.

use super::emit::PendingTuple;
use super::select::Pick;
#[cfg(test)]
use super::testkit::crash;
use super::{GroupState, Run};
use crate::group::{ArenaTuple, JoinGroup};
use caqe_cuboid::BatchOutcome;
use caqe_data::Table;
use caqe_faults::InjectedPanic;
use caqe_operators::SortedJoinIndex;
use caqe_partition::{LeafCell, Partitioning};
use caqe_regions::depgraph::Edge;
use caqe_regions::{NewPoints, OutputRegion, ReconciledEstimate};
use caqe_trace::{SpanKind, TraceEvent, TraceSink};
use caqe_types::ids::QuerySet;
use caqe_types::{PointId, QueryId, RegionId, Value};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

/// What the tuple step keeps from region to region, cleared and never
/// freed: the candidates' rows go straight into the group's arena, so only
/// their lineage, the row test's image and the shared plan's outcome need a
/// home of their own.
#[derive(Default)]
pub(super) struct TupleScratch {
    /// The lineage of each candidate of the current region, in tag order.
    lineage: Vec<QuerySet>,
    /// The current R row's best image, for the row-level look-ahead.
    image: Vec<Value>,
    /// The shared plan's outcome for the current region's batch.
    outcome: BatchOutcome,
    /// Whether the current region's batch has reached the shared plan. From
    /// then on the plan holds ids of the region's rows, so a panic leaves
    /// the unit dirty rather than rolled back.
    plan_written: bool,
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
        let (arena_before, skipped_before) = (g.arena.len(), g.skipped.len());
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
            self.process_region_tuples(gi, rid)
        }));
        let Ok(new_by_query) = unit else {
            let dirty = self.tuples.plan_written;
            if !dirty {
                // The probe died before the plan saw its rows: drop them and
                // the rows it skipped, and the region retries against the
                // group it started from.
                let g = &mut self.groups[gi].g;
                g.arena.truncate(arena_before);
                g.points.truncate(arena_before);
                g.skipped.truncate(skipped_before);
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

    /// Joins the region's cell pair, projects, and inserts surviving tuples
    /// into the shared skyline plan. Returns, per member query (local
    /// order), the handles (into the group's point store) of tuples newly
    /// admitted to that query's skyline.
    ///
    /// Two phases: the probe projects every candidate straight into the
    /// group's arena and point store, then the whole batch — the store's
    /// tail — goes into the plan. A genuine mid-probe panic therefore
    /// leaves rows the plan never saw, which [`Run::execute`] truncates
    /// away, so the region stays retryable; from the plan write on, the
    /// unit is dirty. The virtual clock is never *read* inside the region,
    /// so charging all probes ahead of all inserts leaves every observable —
    /// final ticks, stats, plan state, emission timestamps — bit-identical
    /// to interleaving them tuple by tuple.
    ///
    /// With [`EngineConfig::row_lookahead`](crate::config::EngineConfig),
    /// an R row with partners is first tested at its best image: the
    /// mapping over the T cell's lower corner, which every partner's result
    /// is componentwise ≥ (mapping weights are non-negative). If that image
    /// is strictly dominated in every kept window, so is each result, and
    /// the row is skipped — no partner probes, no projection, no arena row.
    /// The test examines at most `partners × kept windows` members, the
    /// fewest its inserts could have been charged had the row been joined.
    fn process_region_tuples(&mut self, gi: usize, rid: RegionId) -> Vec<Vec<PointId>> {
        let (r, t) = (self.r, self.t);
        let progressive = self.engine.progressive_emission;
        let row_lookahead = self.engine.row_lookahead;
        // Session mode keeps even serving-nobody tuples, and records the
        // rows the look-ahead skipped: arena and record together are the
        // join history a later admission backfills its fresh subspaces
        // from, once it has re-joined the record ([`Run::rejoin_skipped`]).
        // A serving-nobody tuple is dominated in every query subspace, so it
        // never reaches a skyline — the result sets are unchanged, only the
        // history is.
        let session = self.session_mode;
        let (clock, stats, scratch) = (&mut self.clock, &mut self.stats, &mut self.tuples);
        let GroupState { g, pending, .. } = &mut self.groups[gi];
        let mut new_by_query: Vec<Vec<PointId>> = vec![Vec::new(); g.members.len()];

        let reg = g.regions.region(rid);
        let serving = reg.serving;
        if serving.is_empty() {
            return new_by_query;
        }

        let (t_cell, index) = join_index(&self.part_t, t, reg, g.join_col);
        let r_rows: &[usize] = &self.part_r.cell(reg.r_cell).rows;
        let join_col = g.join_col;
        let stride = g.mapping.output_dims();
        let out_dims = stride as u64;
        let windows = g.plan.windows() as u64;

        // --- Phase 1: probe + project, into the arena. ---
        let probe_t0 = clock.ticks();
        let first_tag = g.arena.len();
        scratch.lineage.clear();
        #[cfg(test)]
        let (results_before, skipped_before) = (stats.join_results, stats.rows_skipped);
        for &ri in r_rows {
            clock.charge_join_probes(1);
            stats.join_probes += 1;
            let rrec = r.record(ri);
            let partners = index.matches(rrec.key(join_col));
            if row_lookahead && partners.len() > 0 {
                scratch.image.clear();
                g.mapping
                    .apply_into(&rrec.vals, t_cell.bounds.lo(), &mut scratch.image);
                let budget = partners.len() as u64 * windows;
                if g.plan
                    .dominated_everywhere(&scratch.image, budget, clock, stats)
                {
                    stats.rows_skipped += 1;
                    stats.skipped_join_results += partners.len() as u64;
                    if session {
                        g.skipped.push((rid, ri as u32));
                    }
                    #[cfg(test)]
                    crash::point(
                        gi,
                        rid,
                        crash::At::Skipped(stats.rows_skipped - skipped_before),
                    );
                    continue;
                }
            }
            for mi in partners {
                let trec = t.record(t_cell.rows[mi]);
                clock.charge_join_probes(1);
                stats.join_probes += 1;
                clock.charge_map_evals(out_dims);
                stats.map_evals += out_dims;
                stats.join_results += 1;
                // Project into the point store's tail; pop the row again if
                // the tuple turns out to serve nobody.
                let id = g
                    .points
                    .push_with(|out| g.mapping.apply_into(&rrec.vals, &trec.vals, out));

                // Cell-level lineage: which queries can this tuple still
                // serve?
                let lineage = match reg.locate(g.points.get(id)) {
                    Some(c) => reg.cell_lineage(c).intersect(serving),
                    None => serving,
                };
                if lineage.is_empty() && !session {
                    stats.tuples_discarded += 1;
                    g.points.pop();
                } else {
                    g.arena.push(ArenaTuple {
                        rid: rrec.id,
                        tid: trec.id,
                        origin: rid,
                    });
                    scratch.lineage.push(lineage);
                }
                #[cfg(test)]
                crash::point(
                    gi,
                    rid,
                    crash::At::JoinResult(stats.join_results - results_before),
                );
            }
        }
        stats.probe_ticks += clock.ticks() - probe_t0;
        debug_assert_eq!(g.points.len(), g.arena.len(), "arena/point-store desync");

        // --- Phase 2: shared-plan insertion. ---
        // The region's rows are the point store's tail, tags dense in
        // candidate order; `SharedSkylinePlan::insert_batch_into` takes them
        // in place — bit-identical to inserting the candidates one at a
        // time. The per-candidate emission/eviction bookkeeping below never
        // touches the clock, so replaying it after the batch leaves every
        // observable unchanged.
        if scratch.lineage.is_empty() {
            return new_by_query;
        }
        scratch.plan_written = true;
        stats.arena_tuples += scratch.lineage.len() as u64;
        let insert_t0 = clock.ticks();
        let insert_d0 = stats.dom_comparisons;
        let batch = &g.points.as_flat()[first_tag * stride..];
        let outcome = &mut scratch.outcome;
        g.plan
            .insert_batch_into(first_tag as u64, batch, stride, clock, stats, outcome);
        stats.insert_ticks += clock.ticks() - insert_t0;
        stats.insert_dom_cmps += stats.dom_comparisons - insert_d0;
        #[cfg(test)]
        crash::point(gi, rid, crash::At::AfterInsert);
        debug_assert_eq!(outcome.added.len(), scratch.lineage.len());
        debug_assert_eq!(g.members.len(), g.plan.num_queries());
        let query_bit = |local: usize| g.plan.query_bit(QueryId(local as u16));
        let mut evictions = outcome.evictions.iter().peekable();
        for (c, (&added, lineage)) in outcome.added.iter().zip(&scratch.lineage).enumerate() {
            let tag = (first_tag + c) as u64;

            // Register newly admitted skyline tuples as pending emissions.
            let mut entries: Vec<(QueryId, Option<RegionId>)> = Vec::new();
            for (local, &global) in g.members.iter().enumerate() {
                let in_sky = added & query_bit(local) != 0;
                if in_sky && serving.contains(global) && lineage.contains(global) {
                    entries.push((global, None));
                    new_by_query[local].push(PointId(tag as u32));
                }
            }
            if !progressive {
                continue;
            }
            if !entries.is_empty() {
                pending[rid.index()].push(PendingTuple { tag, entries });
            }

            // Handle evictions: invalidated provisional results. An
            // eviction belongs to every query whose subspace it happened in.
            while let Some(ev) = evictions.next_if(|e| e.candidate == c) {
                let owners = (0..g.members.len()).filter(|&l| query_bit(l) == 1u64 << ev.subspace);
                for local in owners {
                    let global = g.members[local];
                    for &etag in &ev.tags {
                        let origin = g.arena[etag as usize].origin;
                        let list = &mut pending[origin.index()];
                        for p in list.iter_mut() {
                            if p.tag == etag {
                                p.entries.retain(|(q, _)| *q != global);
                            }
                        }
                        list.retain(|p| !p.entries.is_empty());
                    }
                }
            }
        }
        new_by_query
    }

    /// Discards output cells (and whole regions) of `rid`'s threatened
    /// neighbors that are dominated by newly materialized skyline tuples
    /// (§6), marking for recheck every origin whose pending tuples may have
    /// become safe as a result.
    pub(super) fn discard_dominated(
        &mut self,
        gi: usize,
        rid: RegionId,
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
        let mut pruned = Vec::new();
        for &Edge { peer, queries: w } in dg.threats_out(rid) {
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
    use super::super::testkit::{four_queries, group_of, spec, World};
    use super::crash::{arm, At};
    use super::*;
    use crate::config::EngineConfig;
    use crate::outcome::RunOutcome;
    use caqe_data::{Distribution, TableGenerator};
    use caqe_types::{DimMask, Stats};
    use std::time::Instant;

    /// Every query's results, as a sorted set of provenance pairs.
    fn result_sets(out: &RunOutcome) -> Vec<Vec<(u64, u64)>> {
        let sorted = |q: &crate::outcome::QueryOutcome| {
            let mut results = q.results.clone();
            results.sort_unstable();
            results
        };
        out.per_query.iter().map(sorted).collect()
    }

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

        // A panic after the first, a middle and the last join result.
        for n in [1, results / 2, results] {
            let mut run = world.start(specs(), false);
            assert_eq!(run.select(), Some(pick));
            let g = &run.groups[pick.gi].g;
            let before = (g.arena.len(), g.points.len());
            arm(pick.gi, pick.rid, At::JoinResult(n));
            assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
            let g = &run.groups[pick.gi].g;
            assert_eq!((g.arena.len(), g.points.len()), before, "n = {n}");
            assert!(g.regions.region(pick.rid).is_alive());
            assert_eq!(run.stats.region_retries, 1);
            run.drive(&[]).expect("runs");
            let faulted = run.finish("faulted", Instant::now());
            assert_eq!(faulted.stats.regions_quarantined, 0);
            assert_eq!(result_sets(&faulted), result_sets(&clean), "n = {n}");
        }

        // In session mode the skip record is part of the join history: a
        // panic after the region's last skip drops its record entries with
        // its arena rows, and the retry records them afresh.
        let mut world = World::roomy();
        let (target, skipped) = world.first_skipping_region();
        let mut run = world.start(four_queries(), true);
        run.drive(&[]).expect("runs");
        let clean = run.finish("clean", Instant::now());
        let mut run = world.start(four_queries(), true);
        let pick = run.step_to(target);
        let g = &run.groups[pick.gi].g;
        let before = (g.arena.len(), g.points.len(), g.skipped.len());
        arm(pick.gi, pick.rid, At::Skipped(skipped));
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        let g = &run.groups[pick.gi].g;
        assert_eq!((g.arena.len(), g.points.len(), g.skipped.len()), before);
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
        arm(pick.gi, pick.rid, At::AfterInsert);
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

        // The skip record follows the arena: the plan saw the region's
        // rows, so the rows it skipped stay on record for a re-join.
        let mut world = World::roomy();
        let (target, skipped) = world.first_skipping_region();
        let mut run = world.start(four_queries(), true);
        let pick = run.step_to(target);
        let recorded = run.groups[pick.gi].g.skipped.len();
        arm(pick.gi, pick.rid, At::AfterInsert);
        assert!(run.execute(pick, ReconciledEstimate::default()).is_none());
        assert_eq!(run.stats.regions_quarantined, 1);
        let g = &run.groups[pick.gi].g;
        assert_eq!(g.skipped.len() as u64, recorded as u64 + skipped);
        assert!(g.skipped[recorded..].iter().all(|&(at, _)| at == pick.rid));
        run.drive(&[]).expect("runs");
    }

    #[test]
    fn the_row_test_examines_at_most_partners_times_kept_windows() {
        // Per region, the probe phase's comparisons are the row tests'
        // (the inserts' are counted apart); each tested row has partners,
        // made or skipped, and may examine `partners × windows` members.
        // Anticorrelated rows with one or two partners each meet big
        // windows, where an unbounded scan would run past that.
        let gen = TableGenerator::new(600, 2, Distribution::Anticorrelated)
            .with_selectivities(&[0.02, 0.02]);
        let mut world = World::generated(EngineConfig::caqe(), &gen, 8);
        let mut run = world.start(four_queries(), false);
        let windows = run.groups[0].g.plan.windows() as u64;
        assert!(windows > 4, "the cuboid keeps only the query windows");
        let mut tested = 0;
        while let Some(pick) = run.select() {
            let s = run.stats.clone();
            run.step(pick);
            let d = |f: fn(&Stats) -> u64| f(&run.stats) - f(&s);
            let cmps = d(|s| s.dom_comparisons) - d(|s| s.insert_dom_cmps);
            let partners = d(|s| s.join_results) + d(|s| s.skipped_join_results);
            assert!(
                cmps <= partners * windows,
                "{pick:?}: {cmps} > {partners} × {windows}"
            );
            tested += cmps;
        }
        assert!(
            tested > 0 && run.stats.rows_skipped > 0,
            "no row was tested"
        );
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
        run.discard_dominated(0, RegionId(0), &news);
        let threatened = run.groups[0].g.regions.region(RegionId(1));
        assert_eq!(threatened.alive_cell_count(QueryId(0)), 3);
        assert_eq!(run.groups[0].recheck.drain().count(), 0);

        let total = run.plant(0, &[0.0, 0.0], &[0]);
        let news = [vec![PointId(total as u32)]];
        run.discard_dominated(0, RegionId(0), &news);
        assert!(!run.groups[0].g.regions.region(RegionId(1)).is_alive());
        assert_eq!(run.stats.regions_pruned, 1);
        assert_eq!(run.groups[0].recheck.drain().collect::<Vec<_>>(), vec![1]);
    }
}
