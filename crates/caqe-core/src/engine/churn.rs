//! The query table — one row per query slot ever seen, with its Equation 11
//! weight — and the session events that grow and shrink the live query set
//! mid-run (see the module doc of [`crate::session`]).

use super::emit::PendingTuple;
use super::execute::Peers;
use super::recover::{backoff_ticks, MAX_ATTEMPTS};
use super::rows::Rows;
use super::{GroupState, Run};
use crate::group::open_group;
use crate::outcome::QueryOutcome;
use crate::workload::QuerySpec;
use caqe_contract::{update_weights_masked, QueryScore};
use caqe_regions::buchta_estimate;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{EngineError, PointId, QueryId, VirtualSeconds};

/// Per-query run state, one row per global query id. Rows are only ever
/// appended ([`QueryTable::admit`]): a departure flips its row inactive and
/// the slot is never reused, so global ids stay stable.
#[derive(Default)]
pub(super) struct QueryTable {
    /// Contract trackers (utilities, emission times, running satisfaction).
    pub(super) scores: Vec<QueryScore>,
    /// The optimizer's Equation 11 weights, seeded with the priorities.
    pub(super) weights: Vec<f64>,
    /// Liveness: admitted and not yet departed.
    pub(super) active: Vec<bool>,
    /// Provenance `(rid, tid)` of every reported result, in report order.
    pub(super) results: Vec<Vec<(u64, u64)>>,
}

impl QueryTable {
    /// Number of query slots (active or not).
    pub(super) fn len(&self) -> usize {
        self.scores.len()
    }

    /// Appends the row of the next global query id — the only place the
    /// table grows. Its contract is judged on time since `start`, against a
    /// result cardinality estimated by Buchta over the expected join size of
    /// the regions now serving the query, scaled by `est_factor` (an
    /// injected estimator fault; 1.0 otherwise).
    pub(super) fn admit(
        &mut self,
        spec: &QuerySpec,
        groups: &[GroupState],
        est_factor: f64,
        start: VirtualSeconds,
    ) {
        let q = QueryId(self.len() as u16);
        let join_est: f64 = groups
            .iter()
            .flat_map(|gs| gs.g.regions.regions())
            .filter(|reg| reg.serving.contains(q))
            .map(|reg| reg.est_join)
            .sum();
        let est = buchta_estimate(join_est.max(1.0), spec.pref.len()) * est_factor;
        self.scores
            .push(QueryScore::new_at(spec.contract.clone(), est, start));
        self.weights.push(spec.priority);
        self.active.push(true);
        self.results.push(Vec::new());
    }

    /// Satisfaction feedback (Equation 11), over the active query set. With
    /// every slot active this is exactly `update_weights`, bit-for-bit.
    pub(super) fn feed_back(&mut self) {
        let sats: Vec<f64> = self
            .scores
            .iter()
            .map(QueryScore::runtime_satisfaction)
            .collect();
        update_weights_masked(&mut self.weights, &sats, &self.active);
    }

    /// The per-query half of the run outcome.
    pub(super) fn into_outcomes(self) -> Vec<QueryOutcome> {
        let rows = self.scores.into_iter().zip(self.results);
        rows.enumerate()
            .map(|(qi, (score, results))| QueryOutcome {
                query: QueryId(qi as u16),
                emissions: score.emissions().to_vec(),
                results,
                p_score: score.p_score(),
                satisfaction: score.final_satisfaction(),
            })
            .collect()
    }
}

impl<S: TraceSink> Run<'_, S> {
    /// Applies the admission event `ev_idx`: assigns the next global query
    /// slot, patches the owning group's shared state (or opens a new group),
    /// backfills the arrival's fresh windows from the arena and then from
    /// the rows the row-level look-ahead skipped, discards what that
    /// skyline dominates in the regions the admission revived, and
    /// registers the backfilled results for progressive emission.
    pub(super) fn admit(&mut self, spec: &QuerySpec, ev_idx: u64) -> Result<(), EngineError> {
        let exec = self.exec;
        let faults = &exec.faults;
        // Injected admission panics fire *before* any state mutation, so
        // every failed attempt is a clean retry after a deterministic
        // virtual backoff.
        let mut attempt = 1u32;
        while attempt <= MAX_ATTEMPTS && faults.admit_panics(ev_idx, attempt) {
            self.trace_fault("admit_panic", u32::MAX, u32::MAX, 1.0);
            self.clock.advance(backoff_ticks(attempt));
            attempt += 1;
        }

        if self.queries.len() >= 64 {
            return Err(EngineError::BadEventSpec {
                fragment: format!("admit event #{ev_idx}"),
                reason: "session exceeds the 64-query capacity".to_string(),
            });
        }
        let q = QueryId(self.queries.len() as u16);

        let slot = self
            .groups
            .iter()
            .position(|gs| gs.g.join_col == spec.join_col && gs.g.mapping == spec.mapping);
        let (clock, stats) = (&mut self.clock, &mut self.stats);
        // Admission-time plan patching / group building is build-phase work.
        let build_t0 = clock.ticks();
        let build_d0 = stats.dom_comparisons + stats.region_comparisons;
        let needs_dg = self.engine.needs_dependency_graph();
        let (mut fresh, mut revived) = (0, Vec::new());
        match slot {
            Some(gi) => {
                // Patch the existing group in place: Def. 7 admission is
                // purely additive on the lattice, Def. 9 edges gain the new
                // query's bits, and unprocessed husks are revived with every
                // cell alive (conservative lineage — dominated extras never
                // reach a final skyline).
                let gs = &mut self.groups[gi];
                let g = &mut gs.g;
                g.members.push(q);
                let husks = g.regions.regions().iter();
                revived = husks
                    .filter(|reg| !reg.processed && reg.serving.is_empty())
                    .map(|reg| reg.id)
                    .collect();
                g.regions.admit_query(q, spec.pref);
                if needs_dg {
                    g.dg.admit_query(&g.regions, q, clock, stats);
                }
                fresh = g.plan.admit_query(spec.pref, &g.points, clock, stats);
                // Serving sets changed everywhere: the FIFO liveness cursor
                // is stale (revived husks break its monotone-death
                // assumption).
                gs.fifo_cursor = 0;
            }
            None => {
                // The arrival opens a brand-new join group, the way the
                // batch start opens its groups.
                let group = open_group(
                    &self.part_r,
                    &self.part_t,
                    self.engine.coarse_pruning,
                    needs_dg,
                    true,
                    &[],
                    self.groups.len() as u32,
                    spec.join_col,
                    spec.mapping.clone(),
                    vec![(q, spec.pref)],
                    clock,
                    stats,
                    self.sink,
                );
                self.groups.push(GroupState::new(group));
            }
        }
        stats.build_ticks += clock.ticks() - build_t0;
        stats.build_dom_cmps += stats.dom_comparisons + stats.region_comparisons - build_d0;
        let (gi, group_label) = match slot {
            Some(gi) => (gi, gi as u32),
            None => (self.groups.len() - 1, u32::MAX),
        };
        if slot.is_some() {
            // The backfill read the arena; the skip record holds the rest of
            // the join history.
            self.rejoin_skipped(gi, fresh);
            let discard = self.engine.dominance_discard && self.engine.row_lookahead;
            if discard && !revived.is_empty() {
                // The revived husks came back with every cell alive for the
                // arrival: its backfilled skyline is the first §6 discard
                // they meet. It rides with the best-first re-join, so an
                // engine without the row look-ahead admits as it always
                // did.
                let g = &self.groups[gi].g;
                let local = g.members.len() - 1;
                let skyline = g.plan.query_skyline_tags(QueryId(local as u16));
                let mut news = vec![Vec::new(); g.members.len()];
                news[local] = skyline.into_iter().map(|tag| PointId(tag as u32)).collect();
                self.discard_dominated(gi, Peers::Revived(&revived, q), &news);
            }
        }

        let est_factor = faults.admit_est_factor(ev_idx);
        if est_factor != 1.0 {
            self.trace_fault("admit_est", group_label, u32::MAX, est_factor);
        }
        // Contracts judge the arrival on time since *its* admission, never
        // against deadlines that expired before it existed.
        let now = self.clock.now();
        self.queries.admit(spec, &self.groups, est_factor, now);
        self.stats.ensure_queries(self.queries.len());
        if S::ENABLED {
            self.sink.record(TraceEvent::Admit {
                tick: self.clock.ticks(),
                query: q.0,
                contract: spec.contract.label().to_string(),
                group: group_label,
                incremental: true,
            });
        }

        // Results already in the arrival's (backfilled) skyline become
        // pending emissions immediately; any with no alive threat are
        // emitted now.
        if self.engine.progressive_emission {
            let gs = &mut self.groups[gi];
            let local = gs.g.members.len() - 1;
            for tag in gs.g.plan.query_skyline_tags(QueryId(local as u16)) {
                let origin = gs.g.arena[tag as usize].origin;
                gs.pending[origin.index()].push(PendingTuple {
                    tag,
                    entries: vec![(q, None)],
                });
                gs.recheck.insert(origin);
            }
            self.emit_safe(gi);
        }
        Ok(())
    }

    /// Re-joins the rows of group `gi`'s skip record that the fresh
    /// `windows` (a bitmask over cuboid positions) can use: each region's
    /// recorded rows, best-first, row-tested against those windows alone
    /// ([`Rows::Recorded`]). What is joined goes into the arena and those
    /// windows; what they still all dominate stays on the record, in every
    /// kept window dominated, for the next admission. Charged as the join
    /// it is (the row's probe, one per partner, the mapping per result, the
    /// row tests and the inserts) and counted in `join_results`.
    pub(super) fn rejoin_skipped(&mut self, gi: usize, windows: u64) {
        if windows == 0 {
            return;
        }
        let record = std::mem::take(&mut self.groups[gi].g.skipped);
        // A region's rows are one run of the record, or two when a retry
        // resumed after its seed while other regions ran.
        let mut rest = &record[..];
        while let Some(&(rid, _)) = rest.first() {
            let (run, after) = rest.split_at(rest.iter().take_while(|e| e.0 == rid).count());
            self.join_rows(gi, rid, Rows::Recorded { rows: run, windows });
            rest = after;
        }
    }

    /// Applies one departure event: drops the query from every pending
    /// tuple, retires its sole-provider regions the way shedding does,
    /// strips its bits from the dependency graph and prunes its lattice slot
    /// (Def. 7 departure is purely subtractive).
    pub(super) fn depart(&mut self, q: QueryId) -> Result<(), EngineError> {
        let bad = |reason: &str| EngineError::BadEventSpec {
            fragment: format!("depart={}", q.0),
            reason: reason.to_string(),
        };
        if !self.queries.active.get(q.index()).copied().unwrap_or(false) {
            return Err(bad("query is not active"));
        }
        let owner = self
            .groups
            .iter()
            .enumerate()
            .find_map(|(gi, gs)| gs.g.local_of(q).map(|local| (gi, local)));
        let Some((gi, local)) = owner else {
            return Err(bad("query belongs to no join group"));
        };
        self.queries.active[q.index()] = false;
        let gs = &mut self.groups[gi];

        // The departing query's provisional results must stop at this tick:
        // purge its entries from every pending tuple first.
        for list in gs.pending.iter_mut() {
            for p in list.iter_mut() {
                p.entries.retain(|(qq, _)| *qq != q);
            }
            list.retain(|p| !p.entries.is_empty());
        }

        // Regions whose serving set empties are retired exactly the way
        // shedding retires regions; survivors merely lose the query's bit.
        let newly_dead = gs.g.regions.depart_query(q);
        for &rid in &newly_dead {
            gs.retire_region(rid);
        }
        gs.g.dg.depart_query(q);
        gs.g.plan.depart_query(QueryId(local as u16));

        if S::ENABLED {
            self.sink.record(TraceEvent::Depart {
                tick: self.clock.ticks(),
                query: q.0,
                regions_retired: newly_dead.len() as u32,
            });
        }
        // Retired regions can no longer dominate anything: other queries'
        // pending tuples they threatened may be safe now.
        self.emit_safe(gi);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{spec, World};
    use crate::config::EngineConfig;
    use caqe_types::{DimMask, EngineError, QueryId};

    #[test]
    fn an_admission_appends_exactly_one_row_per_table() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.start(vec![spec(0, DimMask::full(4))], true);
        assert_eq!((run.groups.len(), run.queries.len()), (1, 1));
        // A new join condition opens a group: one row in each table.
        run.admit(&spec(1, DimMask(0b0011)), 0).expect("admits");
        assert_eq!((run.groups.len(), run.queries.len()), (2, 2));
        // A known join condition joins its group: a query row only.
        run.admit(&spec(0, DimMask(0b0110)), 1).expect("admits");
        assert_eq!((run.groups.len(), run.queries.len()), (2, 3));
        assert_eq!(run.groups[0].g.members, vec![QueryId(0), QueryId(2)]);

        let q = &run.queries;
        let rows = [q.weights.len(), q.active.len(), q.results.len()];
        assert_eq!(rows, [3; 3]);
        assert_eq!(run.stats.per_query.len(), 3);
        let opened = &run.groups[1];
        let per_region = [
            opened.pending.len(),
            opened.attempts.len(),
            opened.not_before.len(),
        ];
        assert_eq!(per_region, [opened.g.regions.len(); 3]);
    }

    #[test]
    fn departing_an_inactive_query_is_a_typed_error() {
        let mut world = World::new(EngineConfig::caqe());
        let specs = vec![spec(0, DimMask::full(4)), spec(0, DimMask(0b0011))];
        let mut run = world.start(specs, true);
        run.depart(QueryId(1)).expect("query 1 is active");
        assert!(!run.queries.active[1]);
        // Already departed, and never admitted.
        for q in [QueryId(1), QueryId(7)] {
            let err = run.depart(q).expect_err("not active");
            assert!(matches!(err, EngineError::BadEventSpec { .. }), "{err}");
        }
    }
}
