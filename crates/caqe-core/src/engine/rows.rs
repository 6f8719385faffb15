//! The row step of §6's tuple level: which R rows of a region are joined,
//! in what order and in how many batches. A region's first join and an
//! admission's re-join of the skip record both go through
//! [`Run::join_rows`].
//!
//! With the row-level look-ahead, rows are joined *best-first*: each row's
//! best image — its mapping over the T cell's lower corner, which every one
//! of its join results is componentwise ≥ (mapping weights are
//! non-negative) — is computed once, and rows are taken by ascending image
//! sum, ties by row. The first [`SEED_ROWS`] (the *seed*) are joined and go
//! into the plan as one batch; the rest are row-tested against the seeded
//! plan and go in as a second. A batch's rows are tested together, in one
//! `SharedSkylinePlan::dominated_rows` call, before any partner is probed.
//! The plan's outcome does not depend on how a batch stream is cut, so the
//! order changes only which rows the test can skip — SFS's presort at row
//! grain: the likeliest dominators come first.

use super::emit::PendingTuple;
use super::execute::join_index;
#[cfg(test)]
use super::testkit::crash;
use super::{GroupState, Run};
use crate::group::{ArenaTuple, JoinGroup};
use caqe_cuboid::{BatchOutcome, RowTests};
use caqe_trace::TraceSink;
use caqe_types::ids::QuerySet;
use caqe_types::{PointId, QueryId, RegionId, Value};
use std::ops::Range;

/// Rows in a seed: the batch the rest of the region is row-tested against.
pub(super) const SEED_ROWS: usize = 8;

/// An R row with partners: its best image's sum, its row, where its image
/// sits in [`TupleScratch::images`] and where its partners sit in the join
/// index.
#[derive(Clone, Copy)]
struct Row {
    sum: Value,
    ri: u32,
    slot: u32,
    partners: (u32, u32),
}

impl Row {
    fn partners(&self) -> Range<usize> {
        self.partners.0 as usize..self.partners.1 as usize
    }
}

/// What the tuple step keeps from region to region, cleared and never
/// freed: the candidates' rows go straight into the group's arena, so only
/// their lineage, the rows' order, images and tests and the shared plan's
/// outcome need a home of their own.
#[derive(Default)]
pub(super) struct TupleScratch {
    /// The lineage of each candidate of the current batch, in tag order.
    lineage: Vec<QuerySet>,
    /// The rows with partners, in join order.
    order: Vec<Row>,
    /// The best images of the rows, flat: in probe order until the rows are
    /// ordered, then in `order`'s order.
    images: Vec<Value>,
    /// The current batch's row tests.
    tests: RowTests,
    /// The shared plan's outcome for the current batch.
    outcome: BatchOutcome,
    /// Whether the plan has seen rows past [`Self::commit`]. From then on
    /// it holds ids of those rows, so a panic leaves the unit dirty rather
    /// than rolled back.
    pub(super) plan_written: bool,
    /// Arena and skip-record lengths a non-dirty panic rolls back to: the
    /// unit's start, or the end of its seed once that is in the plan.
    pub(super) commit: (usize, usize),
}

/// The rows [`Run::join_rows`] joins, and where their results go.
#[derive(Clone, Copy)]
pub(super) enum Rows<'a> {
    /// The region's R cell, joined for the first time: results are offered
    /// to every window and registered for emission by their lineage.
    Region,
    /// Rows of the skip record (all of one region), re-joined at an
    /// admission: only the fresh `windows` (a bitmask over cuboid
    /// positions) are tested and offered the results. Every other window
    /// strictly dominates a recorded row's image by construction — windows
    /// only ever improve — so none of them can want its results.
    Recorded {
        rows: &'a [(RegionId, u32)],
        windows: u64,
    },
}

impl<S: TraceSink> Run<'_, S> {
    /// Joins `rows` of region `rid` of group `gi`, projects, and inserts
    /// the results into the shared skyline plan. Returns, per member query
    /// (local order), the handles (into the group's point store) of tuples
    /// newly admitted to that query's skyline by [`Rows::Region`].
    ///
    /// Each batch has two phases: the probe projects every candidate
    /// straight into the group's arena and point store, then the whole
    /// batch — the store's tail — goes into the plan. A genuine mid-probe
    /// panic therefore leaves rows the plan never saw, which
    /// [`Run::execute`] truncates away, so the region stays retryable; a
    /// panic in a plan write leaves the unit dirty. The seed is the retry's
    /// commit point: once it is in the plan and registered, a panic in the
    /// rest's probe rolls back to it, and the retry joins only the rest.
    /// The virtual clock is never *read* inside the region, so charging
    /// all probes ahead of all inserts leaves every observable — final
    /// ticks, stats, plan state, emission timestamps — bit-identical to
    /// interleaving them tuple by tuple.
    ///
    /// With [`EngineConfig::row_lookahead`](crate::config::EngineConfig) a
    /// row is tested at its best image before its partners are probed: if
    /// the image is strictly dominated in every tested window, so is each
    /// result, and the row is skipped — no partner probes, no projection,
    /// no arena row; session mode records it for a later admission. The
    /// test examines at most `partners × tested windows` members, the
    /// fewest its inserts could have been charged had the row been joined.
    /// Without the look-ahead, rows are joined in cell order in one batch.
    pub(super) fn join_rows(
        &mut self,
        gi: usize,
        rid: RegionId,
        rows: Rows<'_>,
    ) -> Vec<Vec<PointId>> {
        let (r, t) = (self.r, self.t);
        let progressive = self.engine.progressive_emission;
        let lookahead = self.engine.row_lookahead;
        // Session mode keeps even serving-nobody tuples, and records the
        // rows the look-ahead skipped: arena and record together are the
        // join history a later admission backfills its fresh subspaces
        // from. A serving-nobody tuple is dominated in every query
        // subspace, so it never reaches a skyline — the result sets are
        // unchanged, only the history is.
        let session = self.session_mode;
        let Run {
            clock,
            stats,
            tuples: scratch,
            groups,
            part_r,
            part_t,
            ..
        } = self;
        let GroupState {
            g, pending, seeded, ..
        } = &mut groups[gi];
        let JoinGroup {
            regions,
            plan,
            arena,
            points,
            skipped,
            mapping,
            members,
            join_col,
            ..
        } = g;
        let join_col = *join_col;
        let mut new_by_query: Vec<Vec<PointId>> = vec![Vec::new(); members.len()];
        let reg = regions.region(rid);
        let serving = reg.serving;
        let (region, windows) = match rows {
            Rows::Region => (true, plan.all_windows()),
            Rows::Recorded { windows, .. } => (false, windows),
        };
        if region && serving.is_empty() {
            return new_by_query;
        }
        let (t_cell, index) = join_index(part_t, t, reg, join_col);
        let stride = mapping.output_dims();
        let out_dims = stride as u64;
        let tested = u64::from(windows.count_ones());
        #[cfg(test)]
        let (results_before, skipped_before) = (stats.join_results, stats.rows_skipped);
        #[cfg(test)]
        let mut writes = 0;

        // Every row is probed once; those with partners are ordered.
        scratch.order.clear();
        scratch.images.clear();
        // Sized once for the region's rows: growing push by push would hold
        // the old and the doubled buffer at once.
        let count = match rows {
            Rows::Region => part_r.cell(reg.r_cell).rows.len(),
            Rows::Recorded { rows, .. } => rows.len(),
        };
        scratch.order.reserve(count);
        if lookahead {
            scratch.images.reserve(count * stride);
        }
        let mut probe = |ri: usize| {
            clock.charge_join_probes(1);
            stats.join_probes += 1;
            let rrec = r.record(ri);
            let partners = index.range(rrec.key(join_col));
            if partners.is_empty() {
                return;
            }
            let slot = scratch.order.len() as u32;
            let mut sum = 0.0;
            if lookahead {
                let at = scratch.images.len();
                mapping.apply_into(&rrec.vals, t_cell.bounds.lo(), &mut scratch.images);
                sum = scratch.images[at..].iter().sum();
            }
            scratch.order.push(Row {
                sum,
                ri: ri as u32,
                slot,
                partners: (partners.start as u32, partners.end as u32),
            });
        };
        match rows {
            Rows::Region => part_r
                .cell(reg.r_cell)
                .rows
                .iter()
                .for_each(|&ri| probe(ri)),
            Rows::Recorded { rows, .. } => rows.iter().for_each(|&(_, ri)| probe(ri as usize)),
        }
        let order = &mut scratch.order;
        let cut = if lookahead {
            order.sort_unstable_by(|a, b| a.sum.total_cmp(&b.sum).then(a.ri.cmp(&b.ri)));
            align_images(order, &mut scratch.images, stride);
            SEED_ROWS.min(order.len())
        } else {
            order.len()
        };

        // A kept row's partial projection, finished once per partner.
        let mut partial = Vec::with_capacity(stride);
        // A retry whose seed is already in the plan resumes after it.
        let mut pos = if region && seeded[rid.index()] {
            cut
        } else {
            0
        };
        while pos < order.len() {
            let end = if pos < cut { cut } else { order.len() };
            let probe_t0 = clock.ticks();
            let first_tag = arena.len();
            scratch.lineage.clear();
            let tests = &mut scratch.tests;
            if lookahead {
                // Nothing enters the plan before the batch's inserts, so
                // every row of the batch meets the same plan.
                tests.clear();
                for row in &order[pos..end] {
                    tests.push(row.partners().len() as u64 * tested);
                }
                let images = &scratch.images[pos * stride..end * stride];
                plan.dominated_rows(windows, images, stride, tests, clock, stats);
            }
            for (k, row) in order[pos..end].iter().enumerate() {
                let rrec = r.record(row.ri as usize);
                let partners = row.partners();
                if lookahead && tests.dominated(k) {
                    stats.rows_skipped += 1;
                    stats.skipped_join_results += partners.len() as u64;
                    if session {
                        skipped.push((rid, row.ri));
                    }
                    #[cfg(test)]
                    if region {
                        let n = stats.rows_skipped - skipped_before;
                        crash::point(gi, rid, crash::At::Skipped(n));
                    }
                    continue;
                }
                partial.clear();
                mapping.partial_into(&rrec.vals, &mut partial);
                for mi in index.rows(partners) {
                    let trec = t.record(t_cell.rows[mi]);
                    clock.charge_join_probes(1);
                    stats.join_probes += 1;
                    clock.charge_map_evals(out_dims);
                    stats.map_evals += out_dims;
                    stats.join_results += 1;
                    // Project into the point store's tail; pop the row again
                    // if the tuple turns out to serve nobody.
                    let id = points.push_with(|out| mapping.finish_into(&partial, &trec.vals, out));
                    // Cell-level lineage: which queries can this tuple still
                    // serve? (A re-joined tuple is offered to fresh windows
                    // only and registered by the admission, so it needs none.)
                    let lineage = match region.then(|| reg.locate(points.get(id))) {
                        None => QuerySet::EMPTY,
                        Some(Some(c)) => reg.cell_lineage(c).intersect(serving),
                        Some(None) => serving,
                    };
                    if lineage.is_empty() && !session {
                        stats.tuples_discarded += 1;
                        points.pop();
                    } else {
                        arena.push(ArenaTuple {
                            rid: rrec.id,
                            tid: trec.id,
                            origin: rid,
                        });
                        scratch.lineage.push(lineage);
                    }
                    #[cfg(test)]
                    if region {
                        let n = stats.join_results - results_before;
                        crash::point(gi, rid, crash::At::JoinResult(n));
                    }
                }
            }
            stats.probe_ticks += clock.ticks() - probe_t0;
            debug_assert_eq!(points.len(), arena.len(), "arena/point-store desync");
            pos = end;

            // The batch is the point store's tail, tags dense in candidate
            // order; the plan takes it in place.
            if !scratch.lineage.is_empty() {
                scratch.plan_written = true;
                stats.arena_tuples += scratch.lineage.len() as u64;
                let insert_t0 = clock.ticks();
                let insert_d0 = stats.dom_comparisons;
                let batch = &points.as_flat()[first_tag * stride..];
                let first_tag = first_tag as u64;
                if region {
                    let outcome = &mut scratch.outcome;
                    plan.insert_batch_into(first_tag, batch, stride, clock, stats, outcome);
                } else {
                    plan.backfill(windows, first_tag, batch, stride, clock, stats);
                }
                stats.insert_ticks += clock.ticks() - insert_t0;
                stats.insert_dom_cmps += stats.dom_comparisons - insert_d0;
                #[cfg(test)]
                if region {
                    writes += 1;
                    crash::point(gi, rid, crash::At::AfterInsert(writes));
                }
            }
            if region && !scratch.lineage.is_empty() {
                // The per-candidate emission/eviction bookkeeping never
                // touches the clock, so replaying it after the batch leaves
                // every observable unchanged.
                let outcome = &scratch.outcome;
                debug_assert_eq!(outcome.added.len(), scratch.lineage.len());
                debug_assert_eq!(members.len(), plan.num_queries());
                let query_bit = |local: usize| plan.query_bit(QueryId(local as u16));
                let mut evictions = outcome.evictions.iter().peekable();
                for (c, (&added, lineage)) in outcome.added.iter().zip(&scratch.lineage).enumerate()
                {
                    let tag = (first_tag + c) as u64;

                    // Register newly admitted skyline tuples as pending
                    // emissions.
                    let mut entries: Vec<(QueryId, Option<RegionId>)> = Vec::new();
                    for (local, &global) in members.iter().enumerate() {
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
                    // eviction belongs to every query whose subspace it
                    // happened in.
                    while let Some(ev) = evictions.next_if(|e| e.candidate == c) {
                        let owners =
                            (0..members.len()).filter(|&l| query_bit(l) == 1u64 << ev.subspace);
                        for local in owners {
                            let global = members[local];
                            for &etag in &ev.tags {
                                let origin = arena[etag as usize].origin;
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
            }
            if region && end == cut && end < order.len() {
                // The seed is in the plan and registered: a panic from here
                // on that spares the plan rolls back to this point.
                seeded[rid.index()] = true;
                scratch.commit = (arena.len(), skipped.len());
                scratch.plan_written = false;
                #[cfg(test)]
                crash::point(gi, rid, crash::At::Seeded);
            }
        }
        new_by_query
    }
}

/// Lays the images out in `order`'s order, in place: the image at
/// `order[k].slot` moves to slot `k`, and each row's `slot` becomes its
/// place in `order`. Each cycle of the permutation is walked once, the
/// image of its first slot riding along to the slot that takes it.
fn align_images(order: &mut [Row], images: &mut [Value], stride: usize) {
    for start in 0..order.len() {
        let mut k = start;
        loop {
            let from = order[k].slot as usize;
            order[k].slot = k as u32;
            if from == start {
                break;
            }
            let (head, tail) = images.split_at_mut(from.max(k) * stride);
            head[from.min(k) * stride..][..stride].swap_with_slice(&mut tail[..stride]);
            k = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{four_queries, result_sets, spec, World};
    use super::*;
    use crate::config::EngineConfig;
    use caqe_data::{Distribution, TableGenerator};
    use caqe_types::{DimMask, Stats};
    use std::collections::BTreeSet;
    use std::time::Instant;

    #[test]
    fn images_follow_their_rows_into_join_order() {
        // The image of probe slot s is [s, 10 s]. Join order takes the slots
        // as a fixed point, a 2-cycle and a 3-cycle of the permutation.
        let slots = [0u32, 2, 1, 4, 5, 3];
        let mut order: Vec<Row> = slots
            .iter()
            .map(|&slot| Row {
                sum: 0.0,
                ri: slot,
                slot,
                partners: (0, 0),
            })
            .collect();
        let mut images: Vec<Value> = (0..6)
            .flat_map(|s| [s as Value, 10.0 * s as Value])
            .collect();
        align_images(&mut order, &mut images, 2);
        for (k, row) in order.iter().enumerate() {
            let s = row.ri as Value;
            assert_eq!(row.slot as usize, k);
            assert_eq!(images[2 * k..2 * k + 2], [s, 10.0 * s], "slot {k}");
        }
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
    fn the_first_region_row_tests_its_rest_against_its_seed() {
        // Correlated rows: the best few dominate most of the rest, and the
        // first region starts against an empty plan, so only its own seed
        // can skip anything.
        let gen =
            TableGenerator::new(400, 2, Distribution::Correlated).with_selectivities(&[0.05, 0.05]);
        let specs = || vec![spec(0, DimMask::full(4))];
        let mut world = World::generated(EngineConfig::caqe(), &gen, 2);
        let mut run = world.start(specs(), false);
        let pick = run.select().expect("the join is not empty");
        assert!(run.groups[pick.gi].g.arena.is_empty());
        run.step(pick);
        let skipped = run.stats.rows_skipped;
        assert!(skipped > 0, "the seed skipped nothing");
        // The seed is the best rows: its first SEED_ROWS rows by image sum.
        let g = &run.groups[pick.gi].g;
        let mut seed_rows: Vec<u64> = g.arena.iter().map(|a| a.rid).collect();
        seed_rows.dedup();
        assert!(seed_rows.len() > SEED_ROWS);
        let t_lo = run
            .part_t
            .cell(g.regions.region(pick.rid).t_cell)
            .bounds
            .lo();
        let image_sum = |rid: u64| -> Value {
            let mut image = Vec::new();
            g.mapping
                .apply_into(&run.r.record(rid as usize).vals, t_lo, &mut image);
            image.iter().sum()
        };
        let seed_worst = seed_rows[..SEED_ROWS].iter().map(|&r| image_sum(r));
        let rest_best = seed_rows[SEED_ROWS..].iter().map(|&r| image_sum(r));
        assert!(seed_worst.fold(Value::MIN, Value::max) <= rest_best.fold(Value::MAX, Value::min));
        run.drive(&[]).expect("runs");
        let best_first = run.finish("best-first", Instant::now());

        // Joining every row in cell order gives the same answers.
        let mut world = World::generated(
            EngineConfig {
                row_lookahead: false,
                ..EngineConfig::caqe()
            },
            &gen,
            2,
        );
        let mut run = world.start(specs(), false);
        run.drive(&[]).expect("runs");
        let every_row = run.finish("every row", Instant::now());
        assert_eq!(every_row.stats.rows_skipped, 0);
        assert!(every_row.stats.join_results > best_first.stats.join_results);
        assert_eq!(result_sets(&every_row), result_sets(&best_first));
    }

    #[test]
    fn a_row_the_fresh_windows_still_dominate_stays_on_the_record() {
        // Two queries over dimensions 0–2 run to the end; two arrivals
        // then read dimension 3, each in its own subspace. The first
        // re-joins only what its fresh windows can use; the rest stays on
        // record, and the second re-joins some of that.
        let initial = || vec![spec(0, DimMask(0b0011)), spec(0, DimMask(0b0110))];
        let arrivals = [spec(0, DimMask(0b1100)), spec(0, DimMask(0b1010))];
        let record = |run: &Run<'_, _>| -> BTreeSet<(RegionId, u32)> {
            run.groups[0].g.skipped.iter().copied().collect()
        };
        let mut world = World::roomy();
        let mut run = world.start(initial(), true);
        run.drive(&[]).expect("runs");
        let at_end = record(&run);
        run.admit(&arrivals[0], 0).expect("admits");
        let after_first = record(&run);
        run.admit(&arrivals[1], 1).expect("admits");
        let after_second = record(&run);
        run.drive(&[]).expect("runs");
        let session = run.finish("session", Instant::now());
        assert!(
            after_first.len() < at_end.len(),
            "the first re-joined nothing"
        );
        assert!(after_first.is_subset(&at_end));
        assert!(
            after_second.len() < after_first.len(),
            "the second re-joined nothing"
        );
        assert!(after_second.is_subset(&after_first));

        // The same answers as a batch run of all four joining every row.
        let mut world = World::roomy();
        world.engine.row_lookahead = false;
        let everyone = initial().into_iter().chain(arrivals).collect();
        let mut run = world.start(everyone, false);
        run.drive(&[]).expect("runs");
        let batch = run.finish("batch", Instant::now());
        assert_eq!(result_sets(&session), result_sets(&batch));
    }
}
