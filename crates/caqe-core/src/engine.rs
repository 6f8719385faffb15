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

use crate::config::{EngineConfig, ExecConfig, SchedulingPolicy};
use crate::group::{build_groups_with_memos, build_one_group, ArenaTuple, Counted, JoinGroup};
use crate::ingest::prepare_inputs;
use crate::outcome::{QueryOutcome, RunOutcome};
use crate::plan::PreparedPlan;
use crate::session::{EventStream, SessionEvent};
use crate::workload::{QuerySpec, Workload};
use caqe_contract::{update_weights_masked, QueryScore};
use caqe_data::Table;
use caqe_faults::{FaultPlan, InjectedPanic};
use caqe_operators::SortedJoinIndex;
use caqe_parallel::Threads;
use caqe_partition::Partitioning;
use caqe_regions::depgraph::Edge;
use caqe_regions::{buchta_estimate, estimate_ticks, ReconciledEstimate};
use caqe_trace::{NoopSink, SpanKind, TraceBuffer, TraceEvent, TraceSink};
use caqe_types::ids::QuerySet;
use caqe_types::{EngineError, PointId, QueryId, RegionId, SimClock, Stats, Value};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::time::Instant;

/// Minimum R-rows per chunk in the parallel probe phase: below this the
/// per-worker thread-spawn cost outweighs the probe work, so small cells run
/// on fewer workers (or entirely inline). Affects only the chunk split,
/// never the result.
const PAR_MIN_ROWS: usize = 256;

/// A tuple waiting for its safety guarantee before progressive emission.
#[derive(Debug, Clone)]
struct PendingTuple {
    tag: u64,
    /// Per query the tuple is still pending for: an optional cached
    /// *witness* — an alive region known to threaten the tuple. While the
    /// witness stays alive (and serving the query), re-checking safety costs
    /// nothing; only when it dies is the threat list re-scanned.
    entries: Vec<(QueryId, Option<RegionId>)>,
}

/// Per-group mutable emission state.
///
/// Indexed densely by region id rather than through a hash map: traced code
/// paths iterate this state, and iteration-ordered maps are banned there
/// (see clippy.toml) — dense vectors make the order a pure function of the
/// input for free, and drop the hashing from the hot path.
struct PendingState {
    /// Pending tuples per origin region (one slot per region id).
    by_origin: Vec<Vec<PendingTuple>>,
}

/// Runs the engine over a workload. Corrupt input under the `Reject`
/// validation policy surfaces as [`EngineError::CorruptInput`].
///
/// `start_ticks` offsets the virtual clock, letting sequential per-query
/// baselines (ProgXe+) continue a shared timeline across invocations.
pub fn try_run_engine(
    name: &str,
    r: &Table,
    t: &Table,
    workload: &Workload,
    exec: &ExecConfig,
    engine: &EngineConfig,
    start_ticks: u64,
) -> Result<RunOutcome, EngineError> {
    try_run_engine_traced(
        name,
        r,
        t,
        workload,
        exec,
        engine,
        start_ticks,
        &mut NoopSink,
    )
}

/// The stable lowercase policy label used in trace decision events.
fn policy_label(policy: SchedulingPolicy) -> &'static str {
    match policy {
        SchedulingPolicy::ContractDriven => "contract",
        SchedulingPolicy::CountDriven => "count",
        SchedulingPolicy::Fifo => "fifo",
    }
}

/// [`try_run_engine`] with a trace sink observing every scheduler decision,
/// emission, estimator audit and phase span.
///
/// Tracing is strictly passive: every recording site (including the
/// recomputation feeding it) sits under `if S::ENABLED`, reads the clock
/// but never charges it, and with [`NoopSink`] monomorphizes away entirely —
/// the outcome (stats, ticks, results) is bit-identical with tracing on,
/// off, or compiled out, at every `parallelism` setting.
#[allow(clippy::too_many_arguments)]
pub fn try_run_engine_traced<S: TraceSink>(
    name: &str,
    r: &Table,
    t: &Table,
    workload: &Workload,
    exec: &ExecConfig,
    engine: &EngineConfig,
    start_ticks: u64,
    sink: &mut S,
) -> Result<RunOutcome, EngineError> {
    try_run_engine_online_traced(
        name,
        r,
        t,
        workload,
        &EventStream::empty(),
        exec,
        engine,
        start_ticks,
        sink,
    )
}

/// The event-aware engine core (see the module doc of [`crate::session`]):
/// the initial `workload` plus a deterministic [`EventStream`] of
/// admissions and departures. With an empty stream this is exactly
/// [`try_run_engine_traced`], byte-for-byte (including the recorded trace).
///
/// A non-empty stream switches the engine into *session mode*: every join
/// tuple is materialized into the group arena (so a later admission can
/// backfill its subspace from the complete history), fully pruned regions
/// are kept as revivable husks, and events are applied sequentially on the
/// main scheduling thread at the first loop iteration whose virtual clock
/// has reached their scheduled tick — the trace therefore stays
/// bit-identical at every `parallelism` setting.
#[allow(clippy::too_many_arguments)]
pub fn try_run_engine_online_traced<S: TraceSink>(
    name: &str,
    r: &Table,
    t: &Table,
    workload: &Workload,
    events: &EventStream,
    exec: &ExecConfig,
    engine: &EngineConfig,
    start_ticks: u64,
    sink: &mut S,
) -> Result<RunOutcome, EngineError> {
    try_run_engine_online_prepared(
        name,
        r,
        t,
        workload,
        events,
        exec,
        engine,
        start_ticks,
        None,
        sink,
    )
}

/// [`try_run_engine_online_traced`] with an optional warm-start
/// [`PreparedPlan`]. A plan is only consumed when it provably describes
/// this exact run — matching table and config fingerprints *and* a strict
/// no-op ingestion (fault plans or validation rewrites disqualify it);
/// otherwise the engine silently takes the cold path. Either way the run
/// is observationally bit-identical: partitionings clone instead of
/// rebuild, memoized groups replay their exact tick/counter/trace deltas.
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
    let wall_start = Instant::now();
    // Reject streams whose tie-break semantics are unsatisfiable (a
    // departure applying before its query's admission) before any work.
    events.validate(workload.len())?;
    let session_mode = !events.is_empty();
    let threads = Threads::from_config(exec.parallelism);
    let mut clock = SimClock::new(exec.cost_model);
    clock.advance(start_ticks);
    let mut stats = Stats::new();
    stats.ensure_queries(workload.len());
    if S::ENABLED {
        sink.record(TraceEvent::Meta {
            strategy: name.to_string(),
            queries: workload.len(),
            ticks_per_second: exec.cost_model.ticks_per_second,
            start_tick: start_ticks,
        });
    }

    // Ingestion: fault-plan corruption (if any) followed by validation.
    // A strict no-op — no copy, no tick, no event — on clean no-fault input.
    let raw_r: *const Table = r;
    let raw_t: *const Table = t;
    let prep = prepare_inputs(r, t, exec, start_ticks, sink)?;
    stats.ingest_quarantined += prep.quarantined();
    stats.ingest_clamped += prep.clamped();
    let r = prep.r_table(r);
    let t = prep.t_table(t);

    // Warm-start gate: the plan is consumed only when ingestion was a
    // strict no-op (the tables the plan fingerprints are the tables the
    // run will see) and every fingerprint matches. Fingerprinting scans
    // the tables once — far cheaper than the quad-tree + region builds it
    // saves — and a `false` here silently selects the cold path.
    let warm = plan.filter(|p| {
        std::ptr::eq(r as *const Table, raw_r)
            && std::ptr::eq(t as *const Table, raw_t)
            && p.matches_inputs(r, t, exec)
    });

    // The two partitionings are independent; the quad-tree build is not
    // charged to the virtual clock, so running them concurrently is free of
    // determinism concerns. A warm start clones the memoized partitionings
    // instead — `Partitioning::build` is deterministic, so the clone is the
    // value the build would produce.
    let (part_r, part_t) = match warm {
        Some(p) => (p.part_r.clone(), p.part_t.clone()),
        None => caqe_parallel::join2(
            threads,
            || Partitioning::build(r, exec.quadtree),
            || Partitioning::build(t, exec.quadtree),
        ),
    };
    if S::ENABLED {
        // Degenerate span by design: the quad-tree build charges no ticks.
        sink.record(TraceEvent::Span {
            kind: SpanKind::PartitionBuild,
            group: None,
            region: None,
            start_tick: start_ticks,
            end_tick: clock.ticks(),
        });
    }

    // Blind blocking pipelines never consult the dependency graph; everyone
    // else needs it for scheduling, discarding or emission safety.
    let needs_dg = engine.progressive_emission
        || engine.dominance_discard
        || engine.policy != SchedulingPolicy::Fifo;
    // Phase accounting: the breakdown is charged at the main-thread phase
    // boundaries (worker deltas are merged inside), so it is identical for
    // any sink and any thread count.
    let build_t0 = clock.ticks();
    let build_d0 = stats.dom_comparisons + stats.region_comparisons;
    let mut groups = build_groups_with_memos(
        workload,
        &part_r,
        &part_t,
        exec,
        engine.coarse_pruning,
        needs_dg,
        session_mode,
        warm.map_or(&[][..], |p| p.memos.as_slice()),
        threads,
        &mut clock,
        &mut stats,
        sink,
    );
    stats.build_ticks += clock.ticks() - build_t0;
    stats.build_dom_cmps += stats.dom_comparisons + stats.region_comparisons - build_d0;

    let nq = workload.len();
    let mut scores: Vec<QueryScore> = Vec::with_capacity(nq);
    for (qi, spec) in workload.queries().iter().enumerate() {
        let qid = QueryId(qi as u16);
        // Initial cardinality estimate: Buchta over the expected join size
        // of the regions serving the query.
        let join_est: f64 = groups
            .iter()
            .flat_map(|g| g.regions.regions())
            .filter(|reg| reg.serving.contains(qid))
            .map(|reg| reg.est_join)
            .sum();
        let est = buchta_estimate(join_est.max(1.0), spec.pref.len());
        scores.push(QueryScore::new(spec.contract.clone(), est));
    }
    let mut weights = workload.initial_weights();
    // Liveness of every query slot ever seen: initial queries start active,
    // admitted ones are appended active, departures flip their slot off
    // (slots are never reused — global ids stay stable).
    let mut active: Vec<bool> = vec![true; nq];

    let mut pendings: Vec<PendingState> = groups
        .iter()
        .map(|g| PendingState {
            by_origin: vec![Vec::new(); g.regions.len()],
        })
        .collect();
    let mut emissions: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nq];
    let mut results: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nq];
    // FIFO scan cursors: first index per group that may still be alive.
    // Liveness is monotone (processed/discarded regions never revive), so
    // the skipped prefix never needs rescanning. (Backoff is temporary and
    // handled by a forward scan from the cursor, never by the cursor.)
    let mut fifo_cursors: Vec<usize> = vec![0; groups.len()];
    // Per-region recovery state: failed attempts and virtual-tick backoff.
    let mut health: Vec<RegionHealth> = groups
        .iter()
        .map(|g| RegionHealth::new(g.regions.len()))
        .collect();
    // Degradation: the earliest tick the satisfaction floor is enforced
    // (and, after each shed, re-enforced) at.
    let mut next_shed_check = start_ticks.saturating_add(exec.degradation.grace_ticks);
    // Online session cursor: events are applied in stream order, each at
    // the first loop iteration whose clock has reached its scheduled tick.
    let event_list = events.events();
    let mut next_ev = 0usize;
    // Scratch for `select_region`'s per-decision witness table.
    let mut witness_counts: Vec<u32> = Vec::new();

    loop {
        // --- Online session events (admission / departure). Processed
        // sequentially on the main scheduling thread, so application ticks
        // are thread-invariant. ---
        while next_ev < event_list.len() && event_list[next_ev].at() <= clock.ticks() {
            let ev_idx = next_ev as u64;
            match event_list[next_ev].clone() {
                SessionEvent::Admit { spec, .. } => apply_admit(
                    spec,
                    ev_idx,
                    &part_r,
                    &part_t,
                    exec,
                    engine,
                    needs_dg,
                    &mut groups,
                    &mut pendings,
                    &mut fifo_cursors,
                    &mut health,
                    &mut scores,
                    &mut weights,
                    &mut active,
                    &mut emissions,
                    &mut results,
                    &mut clock,
                    &mut stats,
                    sink,
                )?,
                SessionEvent::Depart { query, .. } => apply_depart(
                    query,
                    engine,
                    &mut groups,
                    &mut pendings,
                    &mut scores,
                    &mut active,
                    &mut emissions,
                    &mut results,
                    &mut clock,
                    &mut stats,
                    sink,
                )?,
            }
            next_ev += 1;
        }

        // --- Contract-aware degradation (DESIGN.md §13): when the mean
        // running satisfaction slips below the configured floor, shed the
        // lowest-CSM root region (Alg. 1 ranking, live Eq. 11 weights)
        // instead of letting every query stall behind it. ---
        if engine.progressive_emission
            && exec.degradation.enabled()
            && clock.ticks() >= next_shed_check
        {
            // Restricted to active *unfinished* queries: a query whose every
            // serving region is processed or dead is as satisfied as it will
            // ever be, and its (typically high) score must not mask a
            // starving peer. `None` — nothing unfinished — skips the check.
            let mean_sat = shed_mean_satisfaction(&groups, &scores, &active);
            if let Some(mean_sat) = mean_sat.filter(|m| *m < exec.degradation.sat_floor) {
                if let Some((sgi, srid)) = pick_shed_victim(&mut groups, &scores, &weights, &clock)
                {
                    stats.regions_shed += 1;
                    if S::ENABLED {
                        sink.record(TraceEvent::RegionShed {
                            tick: clock.ticks(),
                            group: sgi as u32,
                            region: srid.0,
                            satisfaction: mean_sat,
                        });
                    }
                    let mut recheck = retire_region(&mut groups[sgi], srid);
                    recheck.sort_unstable();
                    recheck.dedup();
                    emit_safe(
                        &mut groups[sgi],
                        &mut pendings[sgi],
                        &recheck,
                        &mut scores,
                        &mut emissions,
                        &mut results,
                        &mut clock,
                        &mut stats,
                        sink,
                    );
                    next_shed_check = clock.ticks().saturating_add(exec.degradation.grace_ticks);
                }
            }
        }

        let picked = select_region(
            &mut groups,
            &pendings,
            engine.policy,
            &scores,
            &weights,
            &clock,
            &mut fifo_cursors,
            &health,
            &exec.faults,
            &mut witness_counts,
        );
        let (gi, rid, score) = match picked {
            Some(pick) => pick,
            None => {
                // Nothing schedulable right now: either all alive regions
                // are backing off after failed attempts, or the engine is
                // idle waiting for a future session event. Advance the
                // virtual clock to the earliest of the two wake-ups and
                // rescan; exit only when neither exists.
                let wake = earliest_wakeup(&groups, &health, clock.ticks());
                let next_event = event_list.get(next_ev).map(|e| e.at());
                let target = match (wake, next_event) {
                    (Some(w), Some(e)) => Some(w.min(e)),
                    (Some(w), None) => Some(w),
                    (None, other) => other,
                };
                match target {
                    Some(tick) => {
                        clock.advance(tick.saturating_sub(clock.ticks()));
                        continue;
                    }
                    None => break,
                }
            }
        };
        // Debug builds audit the incremental counts against Definition 11
        // from scratch for every scheduled region, under every policy.
        debug_assert!(
            {
                let g = groups[gi].counted();
                g.matches_oracle(g.regions.region(rid))
            },
            "threat counts of group {gi} region {rid} diverged from Definition 11"
        );
        // Trace the decision and capture the schedule-time estimates for the
        // completion-side audit. Everything here is a pure read of engine
        // state: the clock is consulted, never charged.
        let sched_tick = clock.ticks();
        let join_results_before = stats.join_results;
        let mut audit = ReconciledEstimate::default();
        if S::ENABLED {
            // FIFO never ranks, so this may be the first look at the counts.
            let g = groups[gi].counted();
            let reg = g.regions.region(rid);
            let out_dims = g.mapping.output_dims();
            audit.est_join = reg.est_join;
            audit.est_skyline = g
                .members
                .iter()
                .filter(|&&q| reg.serving.contains(q))
                .map(|&q| buchta_estimate(reg.est_join.max(1.0), g.regions.pref(q).len()))
                .sum();
            let base_ticks = estimate_ticks(reg, clock.model(), out_dims);
            audit.est_ticks = perturbed_est_ticks(&exec.faults, gi as u32, rid, base_ticks);
            let prog = g.prog_est(reg);
            let csm = g.csm(reg, &scores, &weights, &clock, base_ticks);
            sink.record(TraceEvent::Decision {
                tick: sched_tick,
                group: gi as u32,
                region: rid.0,
                policy: policy_label(engine.policy),
                root: g.dg.is_root(rid),
                score,
                csm,
                prog_est: prog,
                est_ticks: audit.est_ticks,
                weights: weights.clone(),
            });
            // One estimator-fault record per *scheduled* region (never per
            // scored candidate — that would flood the trace).
            let est_factor = exec.faults.estimator_factor(gi as u32, rid.0);
            if est_factor != 1.0 {
                sink.record(TraceEvent::FaultInjected {
                    tick: sched_tick,
                    group: gi as u32,
                    region: rid.0,
                    kind: "estimator",
                    factor: est_factor,
                });
            }
        }

        // --- Tuple-level processing of the chosen region (§6), isolated
        // against worker panics — injected by the fault plan or genuine. ---
        clock.charge_region_overhead();
        let attempt = health[gi].attempts[rid.index()] + 1;
        let arena_before = groups[gi].arena.len();
        let inject = exec.faults.panics(gi as u32, rid.0, attempt);
        if inject && S::ENABLED {
            sink.record(TraceEvent::FaultInjected {
                tick: clock.ticks(),
                group: gi as u32,
                region: rid.0,
                kind: "panic",
                factor: 1.0,
            });
        }
        let unit = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic_any(InjectedPanic {
                    group: gi as u32,
                    region: rid.0,
                    attempt,
                });
            }
            process_region_tuples(
                &mut groups[gi],
                r,
                t,
                &part_r,
                &part_t,
                rid,
                &mut pendings[gi],
                engine.progressive_emission,
                session_mode,
                threads,
                &mut clock,
                &mut stats,
            )
        }));
        let new_by_query = match unit {
            Ok(out) => out,
            Err(payload) => {
                drop(payload);
                health[gi].attempts[rid.index()] = attempt;
                // A unit that mutated shared state before dying cannot be
                // re-run (its tuples would double-insert), so it skips the
                // retry budget and is quarantined at once. Injected panics
                // fire at unit entry and therefore always retry cleanly.
                let dirty = groups[gi].arena.len() != arena_before;
                if dirty || attempt >= exec.recovery.max_attempts {
                    stats.regions_quarantined += 1;
                    if S::ENABLED {
                        sink.record(TraceEvent::RegionQuarantined {
                            tick: clock.ticks(),
                            group: gi as u32,
                            region: rid.0,
                            attempts: attempt,
                        });
                    }
                    let mut recheck = retire_region(&mut groups[gi], rid);
                    if engine.progressive_emission {
                        recheck.sort_unstable();
                        recheck.dedup();
                        emit_safe(
                            &mut groups[gi],
                            &mut pendings[gi],
                            &recheck,
                            &mut scores,
                            &mut emissions,
                            &mut results,
                            &mut clock,
                            &mut stats,
                            sink,
                        );
                    }
                } else {
                    stats.region_retries += 1;
                    let backoff = exec.recovery.backoff_ticks(attempt);
                    health[gi].not_before[rid.index()] = clock.ticks() + backoff;
                    if S::ENABLED {
                        sink.record(TraceEvent::RegionRetry {
                            tick: clock.ticks(),
                            group: gi as u32,
                            region: rid.0,
                            attempt,
                            backoff_ticks: backoff,
                        });
                    }
                }
                continue;
            }
        };
        stats.regions_processed += 1;
        groups[gi].regions.region_mut(rid).processed = true;

        // --- Injected cost spike: actual ticks blow past the estimate. ---
        if let Some(factor) = exec.faults.cost_spike(gi as u32, rid.0) {
            let elapsed = clock.ticks() - sched_tick;
            let extra = (elapsed as f64 * (factor - 1.0)).max(0.0).round() as u64;
            clock.advance(extra);
            if S::ENABLED {
                sink.record(TraceEvent::FaultInjected {
                    tick: clock.ticks(),
                    group: gi as u32,
                    region: rid.0,
                    kind: "cost_spike",
                    factor,
                });
            }
        }

        if S::ENABLED {
            let completed_tick = clock.ticks();
            audit.actual_join = stats.join_results - join_results_before;
            audit.actual_skyline = new_by_query.iter().map(|v| v.len() as u64).sum();
            audit.actual_ticks = completed_tick - sched_tick;
            sink.record(TraceEvent::Span {
                kind: SpanKind::Region,
                group: Some(gi as u32),
                region: Some(rid.0),
                start_tick: sched_tick,
                end_tick: completed_tick,
            });
            sink.record(TraceEvent::EstimateAudit {
                scheduled_tick: sched_tick,
                completed_tick,
                group: gi as u32,
                region: rid.0,
                estimate: audit,
            });
        }

        // Origins whose pending tuples must be re-examined this round.
        let mut recheck: Vec<u32> = vec![rid.0];
        recheck.extend(
            groups[gi].static_threats_out[rid.index()]
                .iter()
                .map(|e| e.peer.0),
        );

        // --- Discard regions / cells dominated by the new tuples. ---
        if engine.dominance_discard {
            discard_dominated(
                &mut groups[gi],
                rid,
                &new_by_query,
                &mut recheck,
                &mut clock,
                &mut stats,
            );
        }

        // --- Scheduling-graph maintenance (Algorithm 1). ---
        groups[gi].dg.remove(rid);

        // --- Progressive result reporting (§6, Example 19). ---
        if engine.progressive_emission {
            recheck.sort_unstable();
            recheck.dedup();
            emit_safe(
                &mut groups[gi],
                &mut pendings[gi],
                &recheck,
                &mut scores,
                &mut emissions,
                &mut results,
                &mut clock,
                &mut stats,
                sink,
            );
        }

        // --- Satisfaction feedback (Equation 11), over the active query
        // set. With every slot active this is exactly the historical
        // `update_weights`, bit-for-bit. ---
        if engine.feedback {
            let sats: Vec<f64> = scores.iter().map(|s| s.runtime_satisfaction()).collect();
            update_weights_masked(&mut weights, &sats, &active);
        }
    }

    if engine.progressive_emission {
        // Every region is processed or dead; all pending tuples must have
        // been emitted by the final recheck cascade.
        debug_assert!(pendings
            .iter()
            .all(|p| p.by_origin.iter().all(|v| v.is_empty())));
    } else {
        // Blocking profile (S-JFSL): report every query's final skyline
        // only now that all processing has finished.
        let emit_t0 = clock.ticks();
        for g in &groups {
            for (local, &global) in g.members.iter().enumerate() {
                let mut entries: Vec<(u64, u32, u64, u64)> = g
                    .plan
                    .query_skyline_tags(caqe_types::QueryId(local as u16))
                    .iter()
                    .map(|&tag| {
                        let tu = &g.arena[tag as usize];
                        (tag, tu.origin.0, tu.rid, tu.tid)
                    })
                    .collect();
                entries.sort_unstable();
                for (tag, origin, rid, tid) in entries {
                    clock.charge_emits(1);
                    let ts = clock.now();
                    let u = scores[global.index()].record(ts);
                    stats.record_emission(global.index(), u);
                    emissions[global.index()].push((ts, u));
                    results[global.index()].push((rid, tid));
                    if S::ENABLED {
                        sink.record(TraceEvent::Emission {
                            tick: clock.ticks(),
                            query: global.0,
                            seq: results[global.index()].len() as u64,
                            rid: origin,
                            tid: tag,
                            utility: u,
                            satisfaction: scores[global.index()].runtime_satisfaction(),
                        });
                    }
                }
            }
        }
        stats.emit_ticks += clock.ticks() - emit_t0;
    }

    let per_query = (0..scores.len())
        .map(|qi| {
            let qid = QueryId(qi as u16);
            let score = &scores[qi];
            QueryOutcome {
                query: qid,
                emissions: std::mem::take(&mut emissions[qi]),
                results: std::mem::take(&mut results[qi]),
                p_score: score.p_score(),
                satisfaction: score.final_satisfaction(),
            }
        })
        .collect();

    Ok(RunOutcome {
        strategy: name.to_string(),
        per_query,
        stats,
        virtual_seconds: clock.now(),
        wall_seconds: wall_start.elapsed().as_secs_f64(),
    })
}

/// Per-region recovery bookkeeping for one join group.
struct RegionHealth {
    /// Failed processing attempts so far (0 = never failed).
    attempts: Vec<u32>,
    /// Earliest virtual tick the region may be rescheduled at.
    not_before: Vec<u64>,
}

impl RegionHealth {
    fn new(n: usize) -> Self {
        RegionHealth {
            attempts: vec![0; n],
            not_before: vec![0; n],
        }
    }

    /// Whether the region is serving a backoff penalty at `now`.
    fn blocked(&self, rid: RegionId, now: u64) -> bool {
        self.not_before[rid.index()] > now
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

/// The earliest backoff expiry among alive-but-blocked regions, if any
/// region is still alive and every alive region is blocked at `now`.
fn earliest_wakeup(groups: &[JoinGroup], health: &[RegionHealth], now: u64) -> Option<u64> {
    let mut wake: Option<u64> = None;
    for (gi, g) in groups.iter().enumerate() {
        for reg in g.regions.regions() {
            if !reg.is_alive() {
                continue;
            }
            let nb = health[gi].not_before[reg.id.index()];
            if nb > now && wake.map_or(true, |w| nb < w) {
                wake = Some(nb);
            }
        }
    }
    wake
}

/// Mean running satisfaction over the active queries that are still
/// *unfinished* — served by at least one alive region. Returns `None` when
/// no such query exists, which disables the shed check entirely: a finished
/// query's (typically high) satisfaction must never mask a starving peer,
/// and with nothing unfinished there is nothing shedding could help.
fn shed_mean_satisfaction(
    groups: &[JoinGroup],
    scores: &[QueryScore],
    active: &[bool],
) -> Option<f64> {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    for (qi, score) in scores.iter().enumerate() {
        if !active.get(qi).copied().unwrap_or(false) {
            continue;
        }
        let qid = QueryId(qi as u16);
        let unfinished = groups.iter().any(|g| {
            g.regions
                .regions()
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

/// Inserts `q` into the static-snapshot edge toward `peer`, creating the
/// edge if absent (the snapshot twin of the dependency graph's patch rule).
fn add_query_to_static_edge(edges: &mut Vec<Edge>, peer: RegionId, q: QueryId) {
    match edges.iter_mut().find(|e| e.peer == peer) {
        Some(e) => {
            e.queries.insert(q);
        }
        None => edges.push(Edge {
            peer,
            queries: QuerySet::singleton(q),
        }),
    }
}

/// Extends the immutable threat snapshots for a newly admitted query: the
/// same geometric rule as `DependencyGraph::build`, evaluated over *all*
/// ordered region pairs regardless of liveness — a husk that is dead today
/// may be revived by a later admission, and the emission-safety test reads
/// these snapshots long after the scheduling graph has shed its nodes.
fn patch_static_threats(g: &mut JoinGroup, q: QueryId, clock: &mut SimClock, stats: &mut Stats) {
    let m = g.regions.pref(q).0;
    let n = g.regions.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            clock.charge_dom_cmps(1);
            stats.region_comparisons += 1;
            let (ri, rj) = (&g.regions.regions()[i], &g.regions.regions()[j]);
            let d = ri.bounds.dims();
            let (mut weak, mut strict) = (0u32, 0u32);
            for k in 0..d {
                let (a, b) = (ri.bounds.lo()[k], rj.bounds.hi()[k]);
                if a <= b {
                    weak |= 1 << k;
                }
                if a < b {
                    strict |= 1 << k;
                }
            }
            if weak & m == m && strict & m != 0 {
                add_query_to_static_edge(&mut g.static_threats_out[i], RegionId(j as u32), q);
                add_query_to_static_edge(&mut g.static_threats_in[j], RegionId(i as u32), q);
            }
        }
    }
}

/// Applies one admission event: assigns the next global query slot,
/// patches the owning group's shared state, backfills the arrival's skyline from the materialized history, and
/// registers the backfilled results for progressive emission.
#[allow(clippy::too_many_arguments)]
fn apply_admit<S: TraceSink>(
    spec: QuerySpec,
    ev_idx: u64,
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    engine: &EngineConfig,
    needs_dg: bool,
    groups: &mut Vec<JoinGroup>,
    pendings: &mut Vec<PendingState>,
    fifo_cursors: &mut Vec<usize>,
    health: &mut Vec<RegionHealth>,
    scores: &mut Vec<QueryScore>,
    weights: &mut Vec<f64>,
    active: &mut Vec<bool>,
    emissions: &mut Vec<Vec<(f64, f64)>>,
    results: &mut Vec<Vec<(u64, u64)>>,
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> Result<(), EngineError> {
    // Injected admission panics fire *before* any state mutation, so every
    // failed attempt is a clean retry after a deterministic virtual backoff.
    let mut attempt = 1u32;
    while attempt <= exec.recovery.max_attempts && exec.faults.admit_panics(ev_idx, attempt) {
        if S::ENABLED {
            sink.record(TraceEvent::FaultInjected {
                tick: clock.ticks(),
                group: u32::MAX,
                region: u32::MAX,
                kind: "admit_panic",
                factor: 1.0,
            });
        }
        clock.advance(exec.recovery.backoff_ticks(attempt));
        attempt += 1;
    }

    if scores.len() >= 64 {
        return Err(EngineError::BadEventSpec {
            fragment: format!("admit event #{ev_idx}"),
            reason: "session exceeds the 64-query capacity".to_string(),
        });
    }
    let q = QueryId(scores.len() as u16);

    let slot = groups
        .iter()
        .position(|g| g.join_col == spec.join_col && g.mapping == spec.mapping);
    // Admission-time plan patching / group building is build-phase work.
    let build_t0 = clock.ticks();
    let build_d0 = stats.dom_comparisons + stats.region_comparisons;
    match slot {
        Some(gi) => {
            // Patch the existing group in place: Def. 7 admission is purely
            // additive on the lattice, Def. 9 edges gain the new query's
            // bits, and unprocessed husks are revived with every cell alive
            // (conservative lineage — dominated extras never reach a final
            // skyline).
            let g = &mut groups[gi];
            g.members.push(q);
            g.regions.admit_query(q, spec.pref);
            if needs_dg {
                g.dg.admit_query(&g.regions, q, clock, stats);
                patch_static_threats(g, q, clock, stats);
            }
            g.plan.admit_query(spec.pref, &g.points, clock, stats);
            // Serving sets changed everywhere: the FIFO liveness cursor is
            // stale (revived husks break its monotone-death assumption).
            fifo_cursors[gi] = 0;
        }
        None => {
            // The arrival opens a brand-new join group, built sequentially
            // on the main scheduling thread against the shared clock.
            let gi = groups.len() as u32;
            let mut wclock = SimClock::new(*clock.model());
            let mut wstats = Stats::new();
            let mut buf = TraceBuffer::new(S::ENABLED);
            let group = build_one_group(
                part_r,
                part_t,
                exec,
                engine.coarse_pruning,
                needs_dg,
                true,
                gi,
                spec.join_col,
                spec.mapping.clone(),
                vec![(q, spec.pref)],
                &mut wclock,
                &mut wstats,
                &mut buf,
            );
            buf.record(TraceEvent::Span {
                kind: SpanKind::GroupBuild,
                group: Some(gi),
                region: None,
                start_tick: 0,
                end_tick: wclock.ticks(),
            });
            buf.merge_into(sink, clock.ticks());
            clock.advance(wclock.ticks());
            *stats += wstats;
            pendings.push(PendingState {
                by_origin: vec![Vec::new(); group.regions.len()],
            });
            fifo_cursors.push(0);
            health.push(RegionHealth::new(group.regions.len()));
            groups.push(group);
        }
    }
    stats.build_ticks += clock.ticks() - build_t0;
    stats.build_dom_cmps += stats.dom_comparisons + stats.region_comparisons - build_d0;
    let (gi, group_label) = match slot {
        Some(gi) => (gi, gi as u32),
        None => (groups.len() - 1, u32::MAX),
    };

    // Cardinality estimate over the regions now serving the arrival, with
    // any injected estimator perturbation applied on top.
    let join_est: f64 = groups
        .iter()
        .flat_map(|g| g.regions.regions())
        .filter(|reg| reg.serving.contains(q))
        .map(|reg| reg.est_join)
        .sum();
    let mut est = buchta_estimate(join_est.max(1.0), spec.pref.len());
    let est_factor = exec.faults.admit_est_factor(ev_idx);
    if est_factor != 1.0 {
        est *= est_factor;
        if S::ENABLED {
            sink.record(TraceEvent::FaultInjected {
                tick: clock.ticks(),
                group: group_label,
                region: u32::MAX,
                kind: "admit_est",
                factor: est_factor,
            });
        }
    }
    // Contracts judge the arrival on time since *its* admission, never
    // against deadlines that expired before it existed.
    scores.push(QueryScore::new_at(spec.contract.clone(), est, clock.now()));
    weights.push(spec.priority);
    active.push(true);
    emissions.push(Vec::new());
    results.push(Vec::new());
    stats.ensure_queries(scores.len());

    if S::ENABLED {
        sink.record(TraceEvent::Admit {
            tick: clock.ticks(),
            query: q.0,
            contract: spec.contract.label().to_string(),
            group: group_label,
            incremental: true,
        });
    }

    // Results already in the arrival's (backfilled) skyline become pending
    // emissions immediately; any with no alive threat are emitted now.
    if engine.progressive_emission {
        let local = groups[gi].members.len() - 1;
        let tags = groups[gi].plan.query_skyline_tags(QueryId(local as u16));
        let mut recheck: Vec<u32> = Vec::new();
        for tag in tags {
            let origin = groups[gi].arena[tag as usize].origin;
            pendings[gi].by_origin[origin.index()].push(PendingTuple {
                tag,
                entries: vec![(q, None)],
            });
            recheck.push(origin.0);
        }
        recheck.sort_unstable();
        recheck.dedup();
        if !recheck.is_empty() {
            emit_safe(
                &mut groups[gi],
                &mut pendings[gi],
                &recheck,
                scores,
                emissions,
                results,
                clock,
                stats,
                sink,
            );
        }
    }
    Ok(())
}

/// Applies one departure event: drops the query from every pending tuple,
/// retires its sole-provider regions the way shedding does, strips its bits
/// from the dependency graph and prunes its lattice slot (Def. 7 departure
/// is purely subtractive).
#[allow(clippy::too_many_arguments)]
fn apply_depart<S: TraceSink>(
    q: QueryId,
    engine: &EngineConfig,
    groups: &mut [JoinGroup],
    pendings: &mut [PendingState],
    scores: &mut [QueryScore],
    active: &mut [bool],
    emissions: &mut [Vec<(f64, f64)>],
    results: &mut [Vec<(u64, u64)>],
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> Result<(), EngineError> {
    if !active.get(q.index()).copied().unwrap_or(false) {
        return Err(EngineError::BadEventSpec {
            fragment: format!("depart={}", q.0),
            reason: "query is not active".to_string(),
        });
    }
    let Some((gi, local)) = groups
        .iter()
        .enumerate()
        .find_map(|(gi, g)| g.local_of(q).map(|l| (gi, l)))
    else {
        return Err(EngineError::BadEventSpec {
            fragment: format!("depart={}", q.0),
            reason: "query belongs to no join group".to_string(),
        });
    };
    active[q.index()] = false;

    // The departing query's provisional results must stop at this tick:
    // purge its entries from every pending tuple first.
    for list in pendings[gi].by_origin.iter_mut() {
        for p in list.iter_mut() {
            p.entries.retain(|(qq, _)| *qq != q);
        }
        list.retain(|p| !p.entries.is_empty());
    }

    // Regions whose serving set empties are retired exactly the way
    // shedding retires regions; survivors merely lose the query's bit.
    let newly_dead = groups[gi].regions.depart_query(q);
    let mut recheck: Vec<u32> = Vec::new();
    for &rid in &newly_dead {
        recheck.extend(retire_region(&mut groups[gi], rid));
    }
    groups[gi].dg.depart_query(q);
    groups[gi].plan.depart_query(QueryId(local as u16));

    if S::ENABLED {
        sink.record(TraceEvent::Depart {
            tick: clock.ticks(),
            query: q.0,
            regions_retired: newly_dead.len() as u32,
        });
    }

    // Retired regions can no longer dominate anything: other queries'
    // pending tuples they threatened may be safe now.
    if engine.progressive_emission && !recheck.is_empty() {
        recheck.sort_unstable();
        recheck.dedup();
        emit_safe(
            &mut groups[gi],
            &mut pendings[gi],
            &recheck,
            scores,
            emissions,
            results,
            clock,
            stats,
            sink,
        );
    }
    Ok(())
}

/// Picks the load-shedding victim: the alive dependency-graph root with the
/// lowest CSM (the Alg. 1 ranking inverted, under the live Eq. 11 weights),
/// skipping any region that is the *sole* remaining provider for some query
/// it serves — shedding it would silently zero that query's result.
fn pick_shed_victim(
    groups: &mut [JoinGroup],
    scores: &[QueryScore],
    weights: &[f64],
    clock: &SimClock,
) -> Option<(usize, RegionId)> {
    let mut victim: Option<(usize, RegionId, f64)> = None;
    for (gi, g) in groups.iter_mut().enumerate() {
        let g = g.counted();
        let out_dims = g.mapping.output_dims();
        for reg in g.regions.regions() {
            if !reg.is_alive() || !g.dg.is_root(reg.id) {
                continue;
            }
            // Sole-provider guard: every query this region serves must have
            // at least one other alive region serving it.
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
            let t_c = estimate_ticks(reg, clock.model(), out_dims);
            let csm = g.csm(reg, scores, weights, clock, t_c);
            if victim.map_or(true, |(_, _, best)| csm < best) {
                victim = Some((gi, reg.id, csm));
            }
        }
    }
    victim.map(|(gi, rid, _)| (gi, rid))
}

/// Retires a region that will never produce tuples (quarantined after
/// repeated failures, or shed under degradation): empties its serving set
/// and removes it from the dependency graph. Returns the origins whose
/// pending tuples must be rechecked — the retired region itself plus
/// everything it statically threatened (a retired region never materializes
/// tuples, so its targets may now be safe).
fn retire_region(g: &mut JoinGroup, rid: RegionId) -> Vec<u32> {
    let serving = g.regions.region(rid).serving;
    {
        let reg = g.regions.region_mut(rid);
        for q in serving.iter() {
            reg.kill_query(q);
        }
    }
    g.dg.remove(rid);
    let mut recheck: Vec<u32> = vec![rid.0];
    recheck.extend(g.static_threats_out[rid.index()].iter().map(|e| e.peer.0));
    recheck
}

/// Picks the next region per the scheduling policy: among dependency-graph
/// roots when any exist (falling back to all alive regions on cycles), the
/// one with the highest score. Regions serving a backoff penalty are
/// skipped; the caller advances the clock to the earliest wake-up when
/// nothing else is schedulable. Returns the winner and its score.
///
/// Each group is ranked through its [`JoinGroup::counted`] view, which is why
/// the groups are taken mutably; `witness_counts` is scratch reused across
/// decisions.
#[allow(clippy::too_many_arguments)]
fn select_region(
    groups: &mut [JoinGroup],
    pendings: &[PendingState],
    policy: SchedulingPolicy,
    scores: &[QueryScore],
    weights: &[f64],
    clock: &SimClock,
    fifo_cursors: &mut [usize],
    health: &[RegionHealth],
    faults: &FaultPlan,
    witness_counts: &mut Vec<u32>,
) -> Option<(usize, RegionId, f64)> {
    let now = clock.ticks();
    if policy == SchedulingPolicy::Fifo {
        // Amortized O(1): advance each group's cursor past the dead prefix
        // once instead of rescanning every region on every pick. Backoff is
        // temporary, so blocked regions are handled by the forward scan and
        // never absorbed into the cursor.
        for (gi, g) in groups.iter().enumerate() {
            let regions = g.regions.regions();
            let mut cursor = fifo_cursors[gi];
            while cursor < regions.len() && !regions[cursor].is_alive() {
                cursor += 1;
            }
            fifo_cursors[gi] = cursor;
            for reg in &regions[cursor..] {
                if reg.is_alive() && !health[gi].blocked(reg.id, now) {
                    return Some((gi, reg.id, 0.0));
                }
            }
        }
        return None;
    }

    // Per (group, region, query): how many pending tuples cite the region as
    // their emission blocker (witness). Processing a heavily-cited blocker
    // unblocks those tuples — or moves their witness one step down the
    // blocker clique — so candidates are credited for it below. One flat
    // table, `nq` counts per region, groups back to back; no
    // iteration-ordered map on this traced path.
    let nq = scores.len();
    witness_counts.clear();
    if policy == SchedulingPolicy::ContractDriven {
        let regions: usize = groups.iter().map(|g| g.regions.len()).sum();
        witness_counts.resize(regions * nq, 0);
        let mut first = 0;
        for (g, pending) in groups.iter().zip(pendings) {
            for p in pending.by_origin.iter().flatten() {
                for (q, witness) in &p.entries {
                    if let Some(w) = witness {
                        witness_counts[(first + w.index()) * nq + q.index()] += 1;
                    }
                }
            }
            first += g.regions.len();
        }
    }

    let mut best: Option<(usize, RegionId, f64)> = None;
    let mut any_alive = false;
    for roots_only in [true, false] {
        let mut first = 0;
        for (gi, g) in groups.iter_mut().enumerate() {
            let g = g.counted();
            for reg in g.regions.regions() {
                if !reg.is_alive() {
                    continue;
                }
                any_alive = true;
                if health[gi].blocked(reg.id, now) {
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
                let score = candidate_score(
                    &g, gi as u32, reg.id, policy, scores, weights, clock, witnessed, faults,
                );
                if best.map_or(true, |(_, _, s)| score > s) {
                    best = Some((gi, reg.id, score));
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

/// Scores one candidate region under the active policy.
///
/// `witnessed` — per query, the number of pending tuples currently naming
/// this region as their emission blocker (empty unless contract-driven).
#[allow(clippy::too_many_arguments)]
fn candidate_score(
    g: &Counted<'_>,
    gi: u32,
    rid: RegionId,
    policy: SchedulingPolicy,
    scores: &[QueryScore],
    weights: &[f64],
    clock: &SimClock,
    witnessed: &[u32],
    faults: &FaultPlan,
) -> f64 {
    let reg = g.regions.region(rid);
    // Dominance-potential tiebreaker: heavily overlapping regions can drive
    // every progressiveness estimate to zero at once. Preferring the region
    // whose *worst* corner sorts best breaks the tie productively — its
    // tuples dominate the most output space, triggering the discard cascade
    // that unblocks safe emission everywhere else.
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
    let base_ticks = estimate_ticks(reg, clock.model(), g.mapping.output_dims());
    let ticks = perturbed_est_ticks(faults, gi, rid, base_ticks);
    match policy {
        SchedulingPolicy::ContractDriven => {
            // Equation 8 scores the expected utility of the region's
            // progressive output at its projected completion time. We rank
            // by *raw* expected benefit rather than benefit per tick: under
            // heavy subspace overlap the regions that matter most are the
            // dense minimal-corner ones whose output dominates (and thereby
            // discards or unblocks) the bulk of the landscape, and dividing
            // by their — systematically underestimated — cost starves
            // exactly those regions in favour of cheap peripheral ones.
            let t_done = clock.projected(ticks);
            // Unblocking benefit: tuples already materialized and waiting on
            // exactly this region earn their utility the moment it completes
            // (or move their witness one blocker down the clique). Without
            // this term the optimizer spreads effort across cliques and
            // every emission arrives late.
            let mut unblock = 0.0;
            for (qi, &n) in witnessed.iter().enumerate() {
                if n > 0 {
                    unblock += weights[qi] * n as f64 * scores[qi].hypothetical_utility(t_done, 1);
                }
            }
            let csm = g.csm(reg, scores, weights, clock, base_ticks);
            csm + unblock + 1e-3 * potential
        }
        SchedulingPolicy::CountDriven => {
            // ProgXe+: estimated progressive output per tick, contract-blind.
            g.prog_est(reg) / ticks.max(1) as f64 + 1e-3 * potential
        }
        SchedulingPolicy::Fifo => 0.0,
    }
}

/// The surviving join candidates of one probe chunk, in flat layout: one
/// provenance/lineage row per candidate, with the projected points packed
/// contiguously (`vals[i*stride..(i+1)*stride]` belongs to `meta[i]`).
struct CandidateBatch {
    /// `(r_row, t_row, lineage)` per candidate, in probe order.
    meta: Vec<(usize, usize, QuerySet)>,
    /// Flat projected output-space points, stride = mapping output dims.
    vals: Vec<Value>,
}

/// Joins the region's cell pair, projects, and inserts surviving tuples into
/// the shared skyline plan. Returns, per member query (local order), the
/// handles (into the group's point store) of tuples newly admitted to that
/// query's skyline.
///
/// The hash-probe/projection phase is data-parallel over contiguous R-row
/// chunks: workers only read shared state and accumulate private tick/stat
/// deltas, which are merged in chunk order before the (inherently
/// sequential) plan insertion runs over the candidates in original row
/// order. The virtual clock is never *read* inside the region, so moving
/// the probe charges ahead of the insert charges leaves every observable —
/// final ticks, stats, plan state, emission timestamps — bit-identical to
/// the serial interleaving.
#[allow(clippy::too_many_arguments)]
fn process_region_tuples(
    g: &mut JoinGroup,
    r: &Table,
    t: &Table,
    part_r: &Partitioning,
    part_t: &Partitioning,
    rid: RegionId,
    pending: &mut PendingState,
    progressive: bool,
    materialize_all: bool,
    threads: Threads,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<Vec<PointId>> {
    let n_local = g.members.len();
    let mut new_by_query: Vec<Vec<PointId>> = vec![Vec::new(); n_local];

    let (r_cell, t_cell, serving) = {
        let reg = g.regions.region(rid);
        (reg.r_cell, reg.t_cell, reg.serving)
    };
    if serving.is_empty() {
        return new_by_query;
    }

    // Join index within the cell pair (build on T side): stable-sorted
    // `(key, row)` runs — matches per key come back in cell-row order, the
    // same order an append-built hash index would yield.
    let t_rows: &[usize] = &part_t.cell(t_cell).rows;
    let join_col = g.join_col;
    let index = SortedJoinIndex::build(t_rows.len(), |i| t.record(t_rows[i]).key(join_col));

    let out_dims = g.mapping.output_dims() as u64;
    let stride = g.mapping.output_dims();
    let r_rows: &[usize] = &part_r.cell(r_cell).rows;

    // --- Phase 1: probe + project, parallel over R-row chunks. ---
    let (cand_meta, cand_vals) = {
        let reg = g.regions.region(rid);
        let mapping = &g.mapping;
        let model = *clock.model();
        let ranges = caqe_parallel::chunk_ranges(threads, r_rows.len(), PAR_MIN_ROWS);
        let per_chunk = caqe_parallel::map_indexed(threads, ranges.len(), |ci| {
            let (start, end) = ranges[ci];
            let mut wclock = SimClock::new(model);
            let mut wstats = Stats::new();
            let mut found = CandidateBatch {
                meta: Vec::new(),
                vals: Vec::new(),
            };
            for &ri in &r_rows[start..end] {
                wclock.charge_join_probes(1);
                wstats.join_probes += 1;
                let rrec = r.record(ri);
                for mi in index.matches(rrec.key(join_col)) {
                    let ti = t_rows[mi];
                    wclock.charge_join_probes(1);
                    wstats.join_probes += 1;
                    let trec = t.record(ti);
                    wclock.charge_map_evals(out_dims);
                    wstats.map_evals += out_dims;
                    wstats.join_results += 1;
                    // Project straight into the chunk's flat buffer; roll
                    // back if the tuple turns out to serve nobody.
                    let vstart = found.vals.len();
                    mapping.apply_into(&rrec.vals, &trec.vals, &mut found.vals);
                    let vals = &found.vals[vstart..];

                    // Cell-level lineage: which queries can this tuple
                    // still serve?
                    let lineage = match reg.locate(vals) {
                        Some(c) => reg.cell_lineage(c).intersect(serving),
                        None => serving,
                    };
                    // Session mode keeps even serving-nobody tuples: the
                    // group arena must be the *complete* tag-ordered join
                    // history so a later admission can backfill its fresh
                    // subspaces from it. Such tuples are dominated in every
                    // query subspace, so they never reach a skyline — the
                    // result sets are unchanged, only the history is.
                    if lineage.is_empty() && !materialize_all {
                        wstats.tuples_discarded += 1;
                        found.vals.truncate(vstart);
                        continue;
                    }
                    found.meta.push((ri, ti, lineage));
                }
            }
            (found, wclock.ticks(), wstats)
        });
        // Merge chunk deltas in chunk order; concatenation restores the
        // exact serial candidate order because chunks are contiguous.
        let mut cand_meta: Vec<(usize, usize, QuerySet)> = Vec::new();
        let mut cand_vals: Vec<Value> = Vec::new();
        for (found, ticks, wstats) in per_chunk {
            clock.advance(ticks);
            stats.probe_ticks += ticks;
            *stats += wstats;
            cand_meta.extend(found.meta);
            cand_vals.extend(found.vals);
        }
        (cand_meta, cand_vals)
    };

    // --- Phase 2: shared-plan insertion, deterministically sharded. ---
    // The arena/point-store rows are appended first (tags stay dense, in
    // candidate order), then the whole candidate batch goes through
    // `SharedSkylinePlan::insert_batch`, which shards the per-subspace
    // skyline maintenance across `threads` and merges in fixed subspace
    // order — bit-identical to inserting the candidates one at a time.
    // The per-candidate emission/eviction bookkeeping below never touches
    // the clock, so replaying it after the batch leaves every observable
    // unchanged from the serial interleaving.
    if cand_meta.is_empty() {
        return new_by_query;
    }
    let first_tag = g.arena.len() as u64;
    stats.arena_tuples += cand_meta.len() as u64;
    let mut pids: Vec<PointId> = Vec::with_capacity(cand_meta.len());
    for (ci, (r_row, t_row, _)) in cand_meta.iter().enumerate() {
        let vals = &cand_vals[ci * stride..(ci + 1) * stride];
        g.arena.push(ArenaTuple {
            rid: r.record(*r_row).id,
            tid: t.record(*t_row).id,
            origin: rid,
        });
        let pid = g.points.push(vals);
        debug_assert_eq!(
            pid.index() as u64,
            first_tag + ci as u64,
            "arena/point-store desync"
        );
        pids.push(pid);
    }
    let insert_t0 = clock.ticks();
    let insert_d0 = stats.dom_comparisons;
    let inserts = g
        .plan
        .insert_batch(first_tag, &cand_vals, stride, threads, clock, stats);
    stats.insert_ticks += clock.ticks() - insert_t0;
    stats.insert_dom_cmps += stats.dom_comparisons - insert_d0;
    debug_assert_eq!(inserts.len(), cand_meta.len());
    for (ci, ((_, _, lineage), ins)) in cand_meta.into_iter().zip(inserts).enumerate() {
        let tag = first_tag + ci as u64;
        let pid = pids[ci];

        // Register newly admitted skyline tuples as pending emissions.
        let mut pend_entries: Vec<(QueryId, Option<RegionId>)> = Vec::new();
        for (local, &in_sky) in ins.in_query_sky.iter().enumerate() {
            let global = g.members[local];
            if in_sky && serving.contains(global) && lineage.contains(global) {
                pend_entries.push((global, None));
                new_by_query[local].push(pid);
            }
        }
        if progressive && !pend_entries.is_empty() {
            pending.by_origin[rid.index()].push(PendingTuple {
                tag,
                entries: pend_entries,
            });
        }

        // Handle evictions: invalidated provisional results.
        if progressive {
            for (local_q, evicted) in &ins.query_evictions {
                let global = g.members[local_q.index()];
                for &etag in evicted {
                    let origin = g.arena[etag as usize].origin;
                    let list = &mut pending.by_origin[origin.index()];
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

/// Discards output cells (and whole regions) of threatened neighbors that
/// are dominated by newly materialized skyline tuples (§6).
fn discard_dominated(
    g: &mut JoinGroup,
    rid: RegionId,
    new_by_query: &[Vec<PointId>],
    recheck: &mut Vec<u32>,
    clock: &mut SimClock,
    stats: &mut Stats,
) {
    let edges: Vec<(RegionId, QuerySet)> =
        g.dg.threats_out(rid)
            .iter()
            .map(|e| (e.peer, e.queries))
            .collect();

    for (peer, w) in edges {
        let mut shrunk = false;
        let mut died = false;
        {
            let prefs: Vec<(usize, QueryId)> =
                g.members.iter().enumerate().map(|(l, &q)| (l, q)).collect();
            for (local, global) in prefs {
                if !w.contains(global) {
                    continue;
                }
                let mask = g.regions.pref(global);
                let news = &new_by_query[local];
                if news.is_empty() {
                    continue;
                }
                let reg = g.regions.region(peer);
                if reg.processed || !reg.serving.contains(global) {
                    continue;
                }
                // Find cells fully dominated by some new tuple.
                let mut kills: Vec<usize> = Vec::new();
                for (c, cell) in reg.grid().iter().enumerate() {
                    if !reg.cell_lineage(c).contains(global) {
                        continue;
                    }
                    for &pid in news {
                        clock.charge_dom_cmps(1);
                        stats.region_comparisons += 1;
                        if point_dominates_rect(g.points.get(pid), cell.lo(), mask) {
                            kills.push(c);
                            break;
                        }
                    }
                }
                if kills.is_empty() {
                    continue;
                }
                let reg = g.regions.region_mut(peer);
                let single = QuerySet::singleton(global);
                for c in kills {
                    let dead = reg.kill_cell(c, single);
                    if !dead.is_empty() {
                        shrunk = true;
                    }
                }
                if reg.serving.is_empty() {
                    died = true;
                }
            }
        }
        if shrunk || died {
            // The peer threatens fewer things now; its own targets may have
            // become safe.
            recheck.extend(g.static_threats_out[peer.index()].iter().map(|e| e.peer.0));
        }
        if died {
            stats.regions_pruned += 1;
            g.dg.remove(peer);
            // A dead region never produces tuples: anything it threatened
            // must be rechecked.
            recheck.push(peer.0);
        }
    }
}

/// `p ≺_V` every point of the box whose lower corner is `lo`.
fn point_dominates_rect(p: &[Value], lo: &[Value], mask: caqe_types::DimMask) -> bool {
    let mut strict = false;
    for k in mask.iter() {
        if p[k] > lo[k] {
            return false;
        }
        if p[k] < lo[k] {
            strict = true;
        }
    }
    strict
}

/// Emits every pending tuple (of the given origin regions) that can no
/// longer be dominated by any alive region (§6, Example 19).
#[allow(clippy::too_many_arguments)]
fn emit_safe<S: TraceSink>(
    g: &mut JoinGroup,
    pending: &mut PendingState,
    origins: &[u32],
    scores: &mut [QueryScore],
    emissions: &mut [Vec<(f64, f64)>],
    results: &mut [Vec<(u64, u64)>],
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) {
    let emit_t0 = clock.ticks();
    let emit_d0 = stats.region_comparisons;
    for &origin in origins {
        let mut list = std::mem::take(&mut pending.by_origin[origin as usize]);
        if list.is_empty() {
            continue;
        }
        let threats = &g.static_threats_in[origin as usize];
        let regions = &g.regions;
        let arena = &g.arena;
        let points = &g.points;
        list.retain_mut(|p| {
            let tuple = &arena[p.tag as usize];
            let vals = points.at(p.tag as usize);
            p.entries.retain_mut(|(q, witness)| {
                // Fast path: the cached witness still blocks this tuple —
                // region bounds are immutable, so alive + serving is enough.
                if let Some(w) = witness {
                    let reg = regions.region(*w);
                    if !reg.processed && reg.serving.contains(*q) {
                        return true;
                    }
                }
                let mask = regions.pref(*q);
                let mut blocker: Option<RegionId> = None;
                for e in threats {
                    if !e.queries.contains(*q) {
                        continue;
                    }
                    let reg = regions.region(e.peer);
                    if reg.processed || !reg.serving.contains(*q) {
                        continue;
                    }
                    clock.charge_dom_cmps(1);
                    stats.region_comparisons += 1;
                    if reg.bounds.may_dominate_point(vals, mask) {
                        blocker = Some(e.peer);
                        break;
                    }
                }
                match blocker {
                    Some(b) => {
                        *witness = Some(b);
                        true
                    }
                    None => {
                        clock.charge_emits(1);
                        let ts = clock.now();
                        let u = scores[q.index()].record(ts);
                        stats.record_emission(q.index(), u);
                        emissions[q.index()].push((ts, u));
                        results[q.index()].push((tuple.rid, tuple.tid));
                        if S::ENABLED {
                            sink.record(TraceEvent::Emission {
                                tick: clock.ticks(),
                                query: q.0,
                                seq: results[q.index()].len() as u64,
                                rid: tuple.origin.0,
                                tid: p.tag,
                                utility: u,
                                satisfaction: scores[q.index()].runtime_satisfaction(),
                            });
                        }
                        false
                    }
                }
            });
            !p.entries.is_empty()
        });
        if !list.is_empty() {
            pending.by_origin[origin as usize] = list;
        }
    }
    stats.emit_ticks += clock.ticks() - emit_t0;
    stats.emit_region_cmps += stats.region_comparisons - emit_d0;
}
