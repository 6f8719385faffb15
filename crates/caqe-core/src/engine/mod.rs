//! The contract-aware execution engine (§5.3–§6, Algorithm 1).
//!
//! One parametric engine implements CAQE and, through
//! [`EngineConfig`](crate::config::EngineConfig) presets, the shared-plan
//! S-JFSL baseline and the count-driven core of ProgXe+:
//!
//! 1. build quad-tree partitionings and per-join-group shared state
//!    (regions, dependency graph, min-max-cuboid skyline plan);
//! 2. loop: pick the next region per the scheduling policy; join its cell
//!    pair; insert surviving join tuples into the shared skyline plan;
//!    discard output cells/regions dominated by the new tuples; emit every
//!    pending result that is now guaranteed final; update the run-time
//!    satisfaction weights (Equation 11);
//! 3. stop when every region is processed or discarded; by then every
//!    query's final skyline has been emitted.
//!
//! All loop state lives in one private [`Run`]; the steps of the loop are
//! its methods, filed by the paper section they implement (DESIGN.md §21):
//!
//! | module      | paper            | step                                       |
//! |-------------|------------------|--------------------------------------------|
//! | [`select`]  | §5.3, Alg. 1     | root ranking, witness credit, shed victim  |
//! | [`execute`] | §6 tuple level   | probe → project → insert, dominance discard|
//! | [`emit`]    | §6, Ex. 19       | safe emission, the blocking S-JFSL tail    |
//! | [`churn`]   | sessions, Eq. 11 | the query table, admit / depart            |
//! | [`recover`] | DESIGN.md §13    | retry, quarantine, backoff, shedding       |
//!
//! This file holds the doors ([`RunRequest`] and the two benchmark-pinned
//! wrappers) and the loop.

mod churn;
mod emit;
mod execute;
mod recover;
mod select;

use crate::config::{EngineConfig, ExecConfig};
use crate::group::{build_groups_with_memos, JoinGroup};
use crate::ingest::prepare_inputs;
use crate::outcome::RunOutcome;
use crate::plan::PreparedPlan;
use crate::session::{EventStream, SessionEvent};
use crate::workload::Workload;
use caqe_data::Table;
use caqe_partition::Partitioning;
use caqe_trace::{NoopSink, SpanKind, TraceEvent, TraceSink};
use caqe_types::{EngineError, SimClock, Stats};
use churn::QueryTable;
use emit::{PendingTuple, RecheckSet};
use execute::TupleScratch;
use std::time::Instant;

/// One engine run, described by the ten things the engine has ever been
/// parameterised by: the six required ones go to [`RunRequest::new`], the
/// trace sink goes to [`RunRequest::try_run`], and the other three default
/// to the batch cold-start profile (no session events, no warm-start plan,
/// virtual clock starting at tick 0).
#[derive(Clone, Copy)]
pub struct RunRequest<'a> {
    name: &'a str,
    r: &'a Table,
    t: &'a Table,
    workload: &'a Workload,
    exec: &'a ExecConfig,
    engine: &'a EngineConfig,
    events: Option<&'a EventStream>,
    plan: Option<&'a PreparedPlan>,
    start_ticks: u64,
}

impl<'a> RunRequest<'a> {
    /// A batch, cold-start run of `workload` over `r ⋈ t`, labelled `name`
    /// in the outcome and the trace.
    pub fn new(
        name: &'a str,
        r: &'a Table,
        t: &'a Table,
        workload: &'a Workload,
        exec: &'a ExecConfig,
        engine: &'a EngineConfig,
    ) -> Self {
        RunRequest {
            name,
            r,
            t,
            workload,
            exec,
            engine,
            events: None,
            plan: None,
            start_ticks: 0,
        }
    }

    /// Adds a deterministic stream of admissions and departures (see the
    /// module doc of [`crate::session`]). An empty stream is exactly the
    /// batch run, byte-for-byte (including the recorded trace).
    ///
    /// A non-empty stream switches the engine into *session mode*: every
    /// join tuple is materialized into the group arena (so a later admission
    /// can backfill its subspace from the complete history), fully pruned
    /// regions are kept as revivable husks, and events are applied in
    /// stream order at the first loop iteration whose virtual clock has
    /// reached their scheduled tick — the trace stays a pure function of
    /// (workload, events, config).
    pub fn events(mut self, events: &'a EventStream) -> Self {
        self.events = Some(events);
        self
    }

    /// Offers a warm-start [`PreparedPlan`]. A plan is only consumed when it
    /// provably describes this exact run — matching table and config
    /// fingerprints *and* a strict no-op ingestion (fault plans or
    /// validation rewrites disqualify it); otherwise the engine silently
    /// takes the cold path. Either way the run is observationally
    /// bit-identical: partitionings clone instead of rebuild, memoized
    /// groups replay their exact tick/counter/trace deltas.
    pub fn plan(mut self, plan: Option<&'a PreparedPlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Offsets the virtual clock, letting sequential per-query baselines
    /// (ProgXe+) continue a shared timeline across invocations.
    pub fn start_ticks(mut self, start_ticks: u64) -> Self {
        self.start_ticks = start_ticks;
        self
    }

    /// Runs the engine, with `sink` observing every scheduler decision,
    /// emission, estimator audit and phase span. Corrupt input under the
    /// `Reject` validation policy surfaces as
    /// [`EngineError::CorruptInput`].
    ///
    /// Tracing is strictly passive: every recording site (including the
    /// recomputation feeding it) sits under `if S::ENABLED`, reads the clock
    /// but never charges it, and with [`NoopSink`] monomorphizes away
    /// entirely — the outcome (stats, ticks, results) is bit-identical with
    /// tracing on, off, or compiled out.
    pub fn try_run<S: TraceSink>(self, sink: &mut S) -> Result<RunOutcome, EngineError> {
        let wall_start = Instant::now();
        let no_events = EventStream::empty();
        let events = self.events.unwrap_or(&no_events);
        // Reject streams whose tie-break semantics are unsatisfiable (a
        // departure applying before its query's admission) before any work.
        events.validate(self.workload.len())?;
        if S::ENABLED {
            sink.record(TraceEvent::Meta {
                strategy: self.name.to_string(),
                queries: self.workload.len(),
                ticks_per_second: self.exec.cost_model.ticks_per_second,
                start_tick: self.start_ticks,
            });
        }

        // Ingestion: fault-plan corruption (if any) followed by validation.
        // A strict no-op — no copy, no tick, no event — on clean no-fault
        // input.
        let prep = prepare_inputs(self.r, self.t, self.exec, self.start_ticks, sink)?;
        // Warm-start gate: the plan is consumed only when ingestion was a
        // strict no-op (the tables the plan fingerprints are the tables the
        // run will see) and every fingerprint matches. Fingerprinting scans
        // the tables once — far cheaper than the quad-tree + region builds
        // it saves — and a `false` here silently selects the cold path.
        let warm = self.plan.filter(|p| {
            prep.r.is_none() && prep.t.is_none() && p.matches_inputs(self.r, self.t, self.exec)
        });
        let ingested = RunRequest {
            r: prep.r_table(self.r),
            t: prep.t_table(self.t),
            ..self
        };
        let mut run = Run::start(&ingested, warm, !events.is_empty(), sink);
        run.stats.ingest_quarantined += prep.quarantined();
        run.stats.ingest_clamped += prep.clamped();
        run.drive(events.events())?;
        Ok(run.finish(self.name, wall_start))
    }
}

/// Benchmark-pinned door (`benchmark/src` compiles against this name and
/// signature): the untraced batch [`RunRequest`]. Nothing else should call
/// it — it stays only until a `[benchmark]` PR re-points the benchmark.
pub fn try_run_engine(
    name: &str,
    r: &Table,
    t: &Table,
    workload: &Workload,
    exec: &ExecConfig,
    engine: &EngineConfig,
    start_ticks: u64,
) -> Result<RunOutcome, EngineError> {
    RunRequest::new(name, r, t, workload, exec, engine)
        .start_ticks(start_ticks)
        .try_run(&mut NoopSink)
}

/// Benchmark-pinned door (`benchmark/src` compiles against this name and
/// signature): a [`RunRequest`] with every optional part spelled out.
/// Nothing else should call it — it stays only until a `[benchmark]` PR
/// re-points the benchmark.
#[allow(clippy::too_many_arguments)]
pub fn try_run_engine_online_prepared<S: TraceSink>(
    name: &str,
    r: &Table,
    t: &Table,
    workload: &Workload,
    events: &EventStream,
    exec: &ExecConfig,
    engine: &EngineConfig,
    start_ticks: u64,
    plan: Option<&PreparedPlan>,
    sink: &mut S,
) -> Result<RunOutcome, EngineError> {
    RunRequest::new(name, r, t, workload, exec, engine)
        .events(events)
        .plan(plan)
        .start_ticks(start_ticks)
        .try_run(sink)
}

/// One join group plus everything the loop tracks per group. The vectors
/// are indexed densely by region id rather than through a hash map: traced
/// code paths iterate this state, and iteration-ordered maps are banned
/// there (see clippy.toml) — dense vectors make the order a pure function
/// of the input for free, and drop the hashing from the hot path.
struct GroupState {
    g: JoinGroup,
    /// Tuples awaiting their safety guarantee, per origin region.
    pending: Vec<Vec<PendingTuple>>,
    /// The origins the next [`Run::emit_safe`] re-examines.
    recheck: RecheckSet,
    /// FIFO scan cursor: first region index that may still be alive.
    /// Liveness is monotone (processed/discarded regions never revive), so
    /// the skipped prefix never needs rescanning. (Backoff is temporary and
    /// handled by a forward scan from the cursor, never by the cursor.)
    fifo_cursor: usize,
    /// Failed processing attempts per region (0 = never failed).
    attempts: Vec<u32>,
    /// Earliest virtual tick each region may be rescheduled at.
    not_before: Vec<u64>,
}

impl GroupState {
    fn new(g: JoinGroup) -> Self {
        let n = g.regions.len();
        GroupState {
            g,
            pending: vec![Vec::new(); n],
            recheck: RecheckSet::new(n),
            fifo_cursor: 0,
            attempts: vec![0; n],
            not_before: vec![0; n],
        }
    }
}

/// The whole state of one engine run. Nothing outside it survives a loop
/// iteration, so every step is a method taking at most the group index,
/// the region and what the previous step handed over.
struct Run<'a, S: TraceSink> {
    /// The base tables as ingested (validated, possibly rewritten).
    r: &'a Table,
    t: &'a Table,
    part_r: Partitioning,
    part_t: Partitioning,
    exec: &'a ExecConfig,
    engine: &'a EngineConfig,
    /// Whether the run has session events (see [`RunRequest::events`]).
    session_mode: bool,
    clock: SimClock,
    stats: Stats,
    sink: &'a mut S,
    /// Per-group state; an admission that opens a join group appends here.
    groups: Vec<GroupState>,
    /// Per-query state; every admission appends here.
    queries: QueryTable,
    /// Degradation: the earliest tick the satisfaction floor is enforced
    /// (and, after each shed, re-enforced) at.
    next_shed_check: u64,
    /// Scratch for [`Run::select`]'s per-decision witness table.
    witness_counts: Vec<u32>,
    /// Scratch for [`Run::process_region_tuples`].
    tuples: TupleScratch,
}

impl<'a, S: TraceSink> Run<'a, S> {
    /// Builds partitionings, join groups and the query table for `req`
    /// (whose tables are the ingested ones) — cold, or from `warm`.
    fn start(
        req: &RunRequest<'a>,
        warm: Option<&PreparedPlan>,
        session_mode: bool,
        sink: &'a mut S,
    ) -> Self {
        let (exec, engine) = (req.exec, req.engine);
        let mut clock = SimClock::new(exec.cost_model);
        clock.advance(req.start_ticks);
        let mut stats = Stats::new();
        stats.ensure_queries(req.workload.len());

        // The quad-tree build is not charged to the virtual clock. A warm
        // start clones the memoized partitionings instead —
        // `Partitioning::build` is deterministic, so the clone is the value
        // the build would produce.
        let (part_r, part_t) = match warm {
            Some(p) => (p.part_r.clone(), p.part_t.clone()),
            None => (
                Partitioning::build(req.r, exec.quadtree),
                Partitioning::build(req.t, exec.quadtree),
            ),
        };
        if S::ENABLED {
            // Degenerate span by design: the quad-tree build charges no ticks.
            sink.record(TraceEvent::Span {
                kind: SpanKind::PartitionBuild,
                group: None,
                region: None,
                start_tick: req.start_ticks,
                end_tick: clock.ticks(),
            });
        }

        // Phase accounting: the breakdown is read off the clock at the
        // phase boundaries, so it is identical for any sink.
        let build_t0 = clock.ticks();
        let build_d0 = stats.dom_comparisons + stats.region_comparisons;
        let groups = build_groups_with_memos(
            req.workload,
            &part_r,
            &part_t,
            exec,
            engine.coarse_pruning,
            engine.needs_dependency_graph(),
            session_mode,
            warm.map_or(&[][..], |p| p.memos.as_slice()),
            &mut clock,
            &mut stats,
            sink,
        );
        stats.build_ticks += clock.ticks() - build_t0;
        stats.build_dom_cmps += stats.dom_comparisons + stats.region_comparisons - build_d0;

        let groups: Vec<GroupState> = groups.into_iter().map(GroupState::new).collect();
        let mut queries = QueryTable::default();
        for spec in req.workload.queries() {
            queries.admit(spec, &groups, 1.0, 0.0);
        }
        Run {
            r: req.r,
            t: req.t,
            part_r,
            part_t,
            exec,
            engine,
            session_mode,
            clock,
            stats,
            sink,
            groups,
            queries,
            next_shed_check: req.start_ticks.saturating_add(exec.degradation.grace_ticks),
            witness_counts: Vec::new(),
            tuples: TupleScratch::default(),
        }
    }

    /// The loop of Algorithm 1. `events` are applied in stream order, each
    /// at the first iteration whose clock has reached its scheduled tick.
    fn drive(&mut self, events: &[SessionEvent]) -> Result<(), EngineError> {
        let mut next_ev = 0usize;
        loop {
            // Session events apply in stream order, between two regions.
            while let Some(ev) = events
                .get(next_ev)
                .filter(|ev| ev.at() <= self.clock.ticks())
            {
                match ev {
                    SessionEvent::Admit { spec, .. } => self.admit(spec, next_ev as u64)?,
                    SessionEvent::Depart { query, .. } => self.depart(*query)?,
                }
                next_ev += 1;
            }
            self.shed_if_starving();

            let Some(pick) = self.select() else {
                // Nothing schedulable right now: either all alive regions
                // are backing off after failed attempts, or the engine is
                // idle waiting for a future session event. Advance the
                // virtual clock to the earliest of the two wake-ups and
                // rescan; exit only when neither exists.
                let next_event = events.get(next_ev).map(SessionEvent::at);
                match self.earliest_wakeup().into_iter().chain(next_event).min() {
                    Some(tick) => {
                        self.clock.advance(tick.saturating_sub(self.clock.ticks()));
                        continue;
                    }
                    None => break,
                }
            };
            // Debug builds audit the incremental counts against Definition 11
            // from scratch for every scheduled region, under every policy.
            debug_assert!(
                {
                    let g = self.groups[pick.gi].g.counted();
                    g.matches_oracle(g.regions.region(pick.rid))
                },
                "threat counts of {pick:?} diverged from Definition 11"
            );
            let audit = self.trace_decision(pick);
            // Tuple-level processing (§6); a failed unit has already been
            // routed to retry or quarantine.
            let Some(new_by_query) = self.execute(pick, audit) else {
                continue;
            };
            let (gi, rid) = (pick.gi, pick.rid);

            // Origins whose pending tuples must be re-examined this round.
            self.groups[gi].recheck_seed(rid);
            if self.engine.dominance_discard {
                self.discard_dominated(gi, rid, &new_by_query);
            }
            // Scheduling-graph maintenance (Algorithm 1).
            self.groups[gi].g.dg.remove(rid);
            // Progressive result reporting (§6, Example 19).
            self.emit_safe(gi);
            if self.engine.feedback {
                self.queries.feed_back();
            }
        }
        Ok(())
    }

    /// Closes the run: by now every region is processed or dead.
    fn finish(mut self, name: &str, wall_start: Instant) -> RunOutcome {
        if self.engine.progressive_emission {
            // All pending tuples must have been emitted by the final
            // recheck cascade.
            debug_assert!(self
                .groups
                .iter()
                .all(|gs| gs.pending.iter().all(Vec::is_empty)));
        } else {
            self.emit_blocking_tail();
        }
        RunOutcome {
            strategy: name.to_string(),
            per_query: self.queries.into_outcomes(),
            stats: self.stats,
            virtual_seconds: self.clock.now(),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        }
    }
}

/// Hand-built runs for the step modules' unit tests.
#[cfg(test)]
mod testkit;
