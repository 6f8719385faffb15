//! Trace-to-metrics collection: the one fold over a trace's events.
//!
//! An [`ObsCollector`] folds [`TraceEvent`]s and end-of-run [`Stats`] into
//! a [`MetricsRegistry`] after the run, from the events a
//! [`RecordingSink`](caqe_trace::RecordingSink) kept. The same pass keeps a
//! [`Fold`]: the facts the `report` binary's summary prints and the state
//! of its check rules. So one `match` per event serves the metrics, the
//! summary and the checks, and the only thing left to reconcile a snapshot
//! with is what the engine counted itself, its `Stats`.
//!
//! The pass is serial: the check rules and the SLO monitor's per-query
//! at-risk latch carry state from one event to the next.

use crate::registry::{key, MetricsRegistry};
use caqe_contract::Contract;
use caqe_trace::{SpanKind, TraceEvent};
use caqe_types::Stats;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Stable metric names, shared by the collector, `report` and tests so
/// reconciliation never drifts from emission.
pub mod names {
    /// Counter: runs observed (one `meta` event each).
    pub const RUNS: &str = "caqe_runs_total";
    /// Gauge: virtual-clock calibration from the run header.
    pub const TICKS_PER_SECOND: &str = "caqe_ticks_per_second";
    /// Counter family: spans, labelled by `kind`.
    pub const SPANS: &str = "caqe_spans_total";
    /// Histogram family: span durations in ticks, labelled by `kind`.
    pub const SPAN_TICKS: &str = "caqe_span_ticks";
    /// Counter: scheduler decisions.
    pub const DECISIONS: &str = "caqe_decisions_total";
    /// Histogram: projected region cost at decision time.
    pub const DECISION_EST_TICKS: &str = "caqe_decision_est_ticks";
    /// Gauge: progressiveness estimate (Eq. 10) at the last decision.
    pub const PROG_EST: &str = "caqe_prog_est";
    /// Gauge: cumulative satisfaction metric (Eq. 8) at the last decision.
    pub const CSM: &str = "caqe_csm";
    /// Counter: emissions (total, plus a per-`query` family).
    pub const EMISSIONS: &str = "caqe_emissions_total";
    /// Histogram family: emission ticks per `query` (the satisfaction
    /// timeline's time axis).
    pub const EMISSION_TICK: &str = "caqe_emission_tick";
    /// Histogram family: running satisfaction per mille per `query` (the
    /// satisfaction timeline's value axis, log2-bucketed).
    pub const SATISFACTION_MILLI: &str = "caqe_satisfaction_milli";
    /// Gauge family: running satisfaction `v(Q_i, t)` per `query`.
    pub const SATISFACTION: &str = "caqe_satisfaction";
    /// Gauge family: 1.0 while the SLO monitor projects the query to miss
    /// its contract budget, else 0.0.
    pub const SLO_AT_RISK: &str = "caqe_slo_at_risk";
    /// Counter: not-at-risk → at-risk transitions (total + per `query`).
    pub const SLO_TRANSITIONS: &str = "caqe_slo_at_risk_transitions_total";
    /// Counter: estimate audits reconciled.
    pub const ESTIMATE_AUDITS: &str = "caqe_estimate_audits_total";
    /// Histogram: `|est_ticks − actual_ticks|` per audited region.
    pub const ESTIMATE_TICK_ERROR: &str = "caqe_estimate_tick_abs_error";
    /// Counter: injected faults (total, plus a per-`kind` family).
    pub const FAULTS: &str = "caqe_faults_total";
    /// Counter: region retry requeues.
    pub const RETRIES: &str = "caqe_region_retries_total";
    /// Counter: regions quarantined.
    pub const QUARANTINES: &str = "caqe_regions_quarantined_total";
    /// Counter: regions shed by the degradation policy.
    pub const SHEDS: &str = "caqe_regions_shed_total";
    /// Counter: session admissions (total, plus a per-`contract` family).
    pub const ADMITS: &str = "caqe_admits_total";
    /// Counter: session departures.
    pub const DEPARTS: &str = "caqe_departs_total";
    /// Counter: regions retired by departures.
    pub const DEPART_REGIONS_RETIRED: &str = "caqe_depart_regions_retired_total";
    /// Counter: ingestion validation audits.
    pub const INGEST_AUDITS: &str = "caqe_ingest_audits_total";
    /// Counter: records quarantined by ingestion validation.
    pub const INGEST_QUARANTINED: &str = "caqe_ingest_quarantined_total";
    /// Counter: non-finite values clamped by ingestion validation.
    pub const INGEST_CLAMPED: &str = "caqe_ingest_clamped_total";
    /// Gauge: tuples resident in group arenas (join-history occupancy).
    pub const ARENA_OCCUPANCY: &str = "caqe_arena_occupancy";
    /// Gauge: points interned into shared-plan stores.
    pub const PLAN_INTERNED_OCCUPANCY: &str = "caqe_plan_interned_occupancy";
    /// Prefix for raw end-of-run `Stats` counters
    /// (`caqe_stats_<field>`; per-query emissions carry a `query` label).
    pub const STATS_PREFIX: &str = "caqe_stats_";
    /// Counter: submissions accepted by the serving layer.
    pub const SERVE_SUBMITS: &str = "caqe_serve_submits_total";
    /// Counter: submissions rejected (total, plus a per-`reason` family).
    pub const SERVE_REJECTS: &str = "caqe_serve_rejects_total";
    /// Gauge: current admission-queue depth.
    pub const SERVE_QUEUE_DEPTH: &str = "caqe_serve_queue_depth";
    /// Gauge: high-water admission-queue depth.
    pub const SERVE_QUEUE_DEPTH_PEAK: &str = "caqe_serve_queue_depth_peak";
    /// Counter: serving epochs (deterministic engine runs) completed.
    pub const SERVE_EPOCHS: &str = "caqe_serve_epochs_total";
    /// Counter: epoch retries after transient failures or caught panics.
    pub const SERVE_EPOCH_RETRIES: &str = "caqe_serve_epoch_retries_total";
    /// Counter: snapshots written on graceful shutdown.
    pub const SERVE_SNAPSHOTS: &str = "caqe_serve_snapshots_total";
    /// Counter: restores from a snapshot.
    pub const SERVE_RESTORES: &str = "caqe_serve_restores_total";
    /// Counter: graceful shutdowns drained.
    pub const SERVE_SHUTDOWNS: &str = "caqe_serve_shutdowns_total";
    /// Counter: sessions expired by the wall-clock deadline watchdog.
    pub const SERVE_DEADLINE_EXPIRED: &str = "caqe_serve_deadline_expired_total";
    /// Counter family: sessions by terminal `state`
    /// (`done`/`failed`/`cancelled`/`expired`).
    pub const SERVE_SESSIONS: &str = "caqe_serve_sessions_total";
    /// Gauge: mean final satisfaction over completed sessions.
    pub const SERVE_MEAN_SATISFACTION: &str = "caqe_serve_mean_satisfaction";
}

/// What the SLO monitor knows about one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryObs {
    /// Contract budget in virtual ticks, when the contract class implies
    /// one ([`ObsConfig::contract_budget_ticks`]); `None` disables the
    /// at-risk projection for the query.
    pub budget_ticks: Option<u64>,
    /// Running-satisfaction level the query is expected to hold.
    pub sat_target: f64,
}

/// Static configuration of the SLO monitor: one entry per query slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Per-query monitoring specs, indexed by query id.
    pub queries: Vec<QueryObs>,
}

impl ObsConfig {
    /// Derives monitor specs from the workload's contracts.
    ///
    /// `ticks_per_second` calibrates time budgets (use the engine's
    /// `CostModel` value); `sat_target` is the satisfaction floor to hold
    /// every query to (the degradation policy's floor is the natural
    /// choice).
    #[must_use]
    pub fn from_contracts(contracts: &[Contract], ticks_per_second: f64, sat_target: f64) -> Self {
        ObsConfig {
            queries: contracts
                .iter()
                .map(|c| QueryObs {
                    budget_ticks: Self::contract_budget_ticks(c, ticks_per_second),
                    sat_target,
                })
                .collect(),
        }
    }

    /// The virtual-tick budget a contract implies, if any.
    ///
    /// Time contracts convert their deadline; quota contracts convert the
    /// time by which the full result set is due (`interval / frac`);
    /// parameter-free decay contracts (C2) have no budget. [`Contract::Product`]
    /// takes the tighter of its factors.
    #[must_use]
    pub fn contract_budget_ticks(contract: &Contract, ticks_per_second: f64) -> Option<u64> {
        let secs_to_ticks = |s: f64| {
            let t = s * ticks_per_second;
            if t.is_finite() && t >= 0.0 {
                Some(t.ceil() as u64)
            } else {
                None
            }
        };
        match contract {
            Contract::Deadline { t_hard } => secs_to_ticks(*t_hard),
            Contract::SoftDeadline { t_soft } => secs_to_ticks(*t_soft),
            Contract::Quota { frac, interval } | Contract::Hybrid { frac, interval } => {
                secs_to_ticks(interval * (1.0 / frac.max(1e-9)).ceil())
            }
            Contract::Piecewise { steps, .. } => {
                steps.last().and_then(|(end, _)| secs_to_ticks(*end))
            }
            Contract::Product(a, b) => {
                let ba = Self::contract_budget_ticks(a, ticks_per_second);
                let bb = Self::contract_budget_ticks(b, ticks_per_second);
                match (ba, bb) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                }
            }
            Contract::LogDecay => None,
        }
    }
}

/// What one trace's events amount to, beside the metrics: the facts the
/// `report` summary prints, the event counts its reconcile compares with
/// `Stats`, and the check rules' state and findings.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Strategy named by the first `meta` event.
    pub strategy: String,
    /// `ev` tag -> events.
    pub events: BTreeMap<&'static str, u64>,
    /// Spans of kind `region`.
    pub region_spans: u64,
    /// Query -> (emissions, satisfaction after its last one).
    pub queries: BTreeMap<u16, (u64, f64)>,
    /// (duration ticks, kind, group) of the three longest spans, longest
    /// first; of equal ones, the earliest.
    pub longest: Vec<(u64, SpanKind, Option<u32>)>,
    /// The sum and max of the estimate audits' ticks errors.
    pub estimator: (f64, f64),
    /// Non-finite floats, each written as `null` by the JSON exporter.
    pub non_finite: u64,
    /// Rules broken so far, each as `line N: what`.
    broken: Vec<String>,
    /// Events folded, so the next one is on line `lines + 1`.
    lines: usize,
    /// Queries the last `meta` event started with; higher ids are admitted.
    initial: usize,
    last_emit: u64,
    /// The line of the shutdown event, once there is one.
    shutdown: Option<usize>,
    retried: BTreeSet<(u32, u32)>,
    admitted: BTreeSet<u16>,
    /// (group, region) -> the tick it was shed at.
    shed: BTreeMap<(u32, u32), u64>,
    /// Query -> the tick it departed at.
    departed: BTreeMap<u16, u64>,
}

impl Fold {
    /// How many events of `ev` kind the trace holds.
    #[must_use]
    pub fn count(&self, ev: &str) -> u64 {
        self.events.get(ev).copied().unwrap_or(0)
    }

    /// Every broken check rule. Line by line: emission ticks never run
    /// backwards, each query's `seq` is gapless from 1, a query emits only
    /// between its admission and departure, admissions take fresh slots
    /// and departures are of live queries, a quarantine follows a retry, a
    /// shed region is never scheduled again, a queue-full reject happens
    /// at the bound, and a server shuts down once, after which nothing
    /// runs, and restores before anything runs. Over the whole trace, when
    /// it schedules regions: every decision ends in a region span, a retry
    /// or a quarantine.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut problems = self.broken.clone();
        let [decisions, retries, quarantines] =
            ["decision", "retry", "quarantine"].map(|ev| self.count(ev));
        let spans = self.region_spans;
        if decisions > 0 && decisions != spans + retries + quarantines {
            problems.push(format!(
                "decisions = region spans + retries + quarantines: \
                 {decisions} != {spans} + {retries} + {quarantines}"
            ));
        }
        problems
    }
}

/// Folds trace events and run stats into a [`MetricsRegistry`] and a
/// [`Fold`].
#[derive(Debug, Clone, Default)]
pub struct ObsCollector {
    cfg: ObsConfig,
    reg: MetricsRegistry,
    fold: Fold,
    /// The queries the SLO monitor holds at risk.
    at_risk: BTreeSet<u16>,
}

impl ObsCollector {
    /// A collector with the given SLO configuration.
    #[must_use]
    pub fn new(cfg: ObsConfig) -> Self {
        ObsCollector {
            cfg,
            ..Self::default()
        }
    }

    /// The accumulated registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Consumes the collector, returning the registry.
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        self.reg
    }

    /// The events' fold so far.
    #[must_use]
    pub fn fold(&self) -> &Fold {
        &self.fold
    }

    /// Ingests a recorded event stream serially; a later call continues
    /// the same stream.
    pub fn ingest_events(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.step(ev);
        }
    }

    /// Ingests end-of-run [`Stats`]: every counter under
    /// `caqe_stats_<field>` (the phase ticks and dominance charges among
    /// them), the occupancy gauges and per-query emissions.
    pub fn ingest_stats(&mut self, stats: &Stats) {
        for (name, v) in stats.counters() {
            self.reg.inc(&format!("{}{name}", names::STATS_PREFIX), v);
        }
        self.reg
            .set_gauge(names::ARENA_OCCUPANCY, stats.arena_tuples as f64);
        self.reg.set_gauge(
            names::PLAN_INTERNED_OCCUPANCY,
            stats.plan_points_interned as f64,
        );
        for (q, pq) in stats.per_query.iter().enumerate() {
            let per_query = key("caqe_stats_tuples_emitted", &[("query", &q.to_string())]);
            self.reg.inc(&per_query, pq.tuples_emitted);
        }
    }

    /// The one pass over one event: its metrics, its part of the fold and
    /// the check rules it can break.
    fn step(&mut self, ev: &TraceEvent) {
        use TraceEvent as E;
        let (reg, f) = (&mut self.reg, &mut self.fold);
        f.lines += 1;
        let (line, tick) = (f.lines, ev.tick());
        let mut problem = |what: String| f.broken.push(format!("line {line}: {what}"));
        *f.events.entry(ev.name()).or_insert(0) += 1;
        if matches!(ev, E::Emission { .. } | E::Decision { .. }) {
            if let Some(at) = f.shutdown {
                problem(format!("{} after the shutdown at line {at}", ev.name()));
            }
        }
        match ev {
            E::Meta {
                strategy,
                queries,
                ticks_per_second,
                ..
            } => {
                f.non_finite += nulls(&[*ticks_per_second]);
                if f.strategy.is_empty() {
                    f.strategy = strategy.clone();
                }
                f.initial = *queries;
                reg.inc(names::RUNS, 1);
                reg.set_gauge(names::TICKS_PER_SECOND, *ticks_per_second);
            }
            E::Span {
                kind,
                group,
                end_tick,
                ..
            } => {
                let (labels, ticks) = ([("kind", kind.name())], end_tick.saturating_sub(tick));
                reg.inc(&key(names::SPANS, &labels), 1);
                reg.observe(&key(names::SPAN_TICKS, &labels), ticks);
                f.region_spans += u64::from(*kind == SpanKind::Region);
                f.longest.push((ticks, *kind, *group));
                f.longest.sort_by_key(|s| Reverse(s.0));
                f.longest.truncate(3);
            }
            E::Decision {
                group,
                region,
                score,
                csm,
                prog_est,
                est_ticks,
                weights,
                ..
            } => {
                f.non_finite += nulls(&[*score, *csm, *prog_est]) + nulls(weights);
                reg.inc(names::DECISIONS, 1);
                reg.observe(names::DECISION_EST_TICKS, *est_ticks);
                reg.set_gauge(names::PROG_EST, *prog_est);
                reg.set_gauge(names::CSM, *csm);
                if let Some(at) = f.shed.get(&(*group, *region)).filter(|&&at| tick >= at) {
                    problem(format!(
                        "region {group}/{region} scheduled at tick {tick} after its shed at {at}"
                    ));
                }
            }
            E::Emission {
                query: q,
                seq,
                utility,
                satisfaction: sat,
                ..
            } => {
                f.non_finite += nulls(&[*utility, *sat]);
                let label = q.to_string();
                let labels = [("query", label.as_str())];
                reg.inc(names::EMISSIONS, 1);
                reg.inc(&key(names::EMISSIONS, &labels), 1);
                reg.observe(&key(names::EMISSION_TICK, &labels), tick);
                reg.observe(
                    &key(names::SATISFACTION_MILLI, &labels),
                    (sat.clamp(0.0, 1.0) * 1000.0).round() as u64,
                );
                reg.set_gauge(&key(names::SATISFACTION, &labels), *sat);
                // The deadline-at-risk detector: below its target, a query
                // is at risk when the tick at which it would reach the
                // target at its average slope so far (`tick · target /
                // sat`) overshoots its contract's budget. The latch counts
                // rising edges so flapping queries are visible.
                if let Some(QueryObs {
                    budget_ticks: Some(budget),
                    sat_target: target,
                    ..
                }) = self.cfg.queries.get(usize::from(*q))
                {
                    let risk = if sat >= target {
                        false
                    } else {
                        (tick as f64) * (target / sat.max(1e-9)) > *budget as f64
                    };
                    reg.set_gauge(&key(names::SLO_AT_RISK, &labels), f64::from(u8::from(risk)));
                    if !risk {
                        self.at_risk.remove(q);
                    } else if self.at_risk.insert(*q) {
                        reg.inc(names::SLO_TRANSITIONS, 1);
                        reg.inc(&key(names::SLO_TRANSITIONS, &labels), 1);
                    }
                }
                if tick < f.last_emit {
                    problem(format!("emission tick {tick} precedes {}", f.last_emit));
                }
                f.last_emit = tick;
                if usize::from(*q) >= f.initial && !f.admitted.contains(q) {
                    problem(format!("emission for query {q} before its admission"));
                }
                if let Some(gone) = f.departed.get(q).filter(|&&gone| tick > gone) {
                    problem(format!(
                        "query {q} emitted at tick {tick} after departing at tick {gone}"
                    ));
                }
                let (n, last_sat) = f.queries.entry(*q).or_insert((0, 0.0));
                (*n, *last_sat) = (*n + 1, *sat);
                if *seq != *n {
                    problem(format!("query {q} emission seq {seq}, expected {n}"));
                }
            }
            E::EstimateAudit { estimate: e, .. } => {
                let errors = [
                    e.join_rel_error(),
                    e.skyline_rel_error(),
                    e.ticks_rel_error(),
                ];
                f.non_finite += nulls(&[e.est_join, e.est_skyline]) + nulls(&errors);
                reg.inc(names::ESTIMATE_AUDITS, 1);
                let tick_error = e.est_ticks.abs_diff(e.actual_ticks);
                reg.observe(names::ESTIMATE_TICK_ERROR, tick_error);
                let (sum, max) = &mut f.estimator;
                (*sum, *max) = (*sum + errors[2], max.max(errors[2]));
            }
            E::FaultInjected { kind, factor, .. } => {
                f.non_finite += nulls(&[*factor]);
                reg.inc(names::FAULTS, 1);
                reg.inc(&key(names::FAULTS, &[("kind", kind)]), 1);
            }
            E::RegionRetry { group, region, .. } => {
                reg.inc(names::RETRIES, 1);
                f.retried.insert((*group, *region));
            }
            E::RegionQuarantined { group, region, .. } => {
                reg.inc(names::QUARANTINES, 1);
                if !f.retried.contains(&(*group, *region)) {
                    problem(format!(
                        "region {group}/{region} quarantined, never retried"
                    ));
                }
            }
            E::RegionShed {
                group,
                region,
                satisfaction,
                ..
            } => {
                f.non_finite += nulls(&[*satisfaction]);
                reg.inc(names::SHEDS, 1);
                f.shed.insert((*group, *region), tick);
            }
            E::Admit {
                query: q, contract, ..
            } => {
                reg.inc(names::ADMITS, 1);
                reg.inc(&key(names::ADMITS, &[("contract", contract)]), 1);
                let fresh = usize::from(*q) >= f.initial && f.admitted.insert(*q);
                if !fresh {
                    problem(format!("admission reuses query slot {q}"));
                }
            }
            E::Depart {
                query: q,
                regions_retired,
                ..
            } => {
                reg.inc(names::DEPARTS, 1);
                reg.inc(names::DEPART_REGIONS_RETIRED, u64::from(*regions_retired));
                if usize::from(*q) >= f.initial && !f.admitted.contains(q) {
                    problem(format!("departure of never-admitted query {q}"));
                }
                if f.departed.insert(*q, tick).is_some() {
                    problem(format!("query {q} departed twice"));
                }
            }
            E::AdmissionReject {
                reason,
                depth,
                bound,
                ..
            } => {
                reg.inc(names::SERVE_REJECTS, 1);
                reg.inc(&key(names::SERVE_REJECTS, &[("reason", reason)]), 1);
                reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*depth));
                if *reason == "full" && depth < bound {
                    problem(format!(
                        "queue-full reject at depth {depth} below bound {bound}"
                    ));
                }
            }
            E::ServerShutdown { queued, .. } => {
                reg.inc(names::SERVE_SHUTDOWNS, 1);
                reg.inc(names::SERVE_SNAPSHOTS, 1);
                reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*queued));
                if f.shutdown.replace(line).is_some() {
                    problem("second shutdown event".into());
                }
            }
            E::ServerRestore { queued, .. } => {
                reg.inc(names::SERVE_RESTORES, 1);
                reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*queued));
                if ["decision", "emit"]
                    .iter()
                    .any(|ev| f.events.contains_key(ev))
                {
                    problem("restore after decision/emission activity".into());
                }
            }
            E::IngestAudit {
                quarantined,
                clamped,
                ..
            } => {
                reg.inc(names::INGEST_AUDITS, 1);
                reg.inc(names::INGEST_QUARANTINED, *quarantined);
                reg.inc(names::INGEST_CLAMPED, *clamped);
            }
        }
    }
}

/// How many of `floats` the JSON exporter writes as `null`.
fn nulls(floats: &[f64]) -> u64 {
    floats.iter().filter(|v| !v.is_finite()).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_trace::SpanKind;

    fn sample_events() -> Vec<TraceEvent> {
        let mut evs = vec![TraceEvent::Meta {
            strategy: "caqe".into(),
            queries: 2,
            ticks_per_second: 1.0e6,
            start_tick: 0,
        }];
        for i in 0..600u64 {
            evs.push(TraceEvent::Span {
                kind: SpanKind::Region,
                group: Some(0),
                region: Some(i as u32),
                start_tick: i * 10,
                end_tick: i * 10 + 7,
            });
            evs.push(TraceEvent::Emission {
                tick: i * 10 + 7,
                query: (i % 2) as u16,
                seq: i / 2 + 1,
                rid: i as u32,
                tid: i,
                utility: 0.5,
                satisfaction: 0.5 + 0.4 * ((i % 3) as f64 - 1.0) / 10.0,
            });
        }
        evs.push(TraceEvent::RegionShed {
            tick: 6000,
            group: 0,
            region: 99,
            satisfaction: 0.4,
        });
        evs
    }

    fn monitor_cfg() -> ObsConfig {
        ObsConfig::from_contracts(
            &[Contract::Deadline { t_hard: 0.001 }, Contract::LogDecay],
            1.0e6,
            0.9,
        )
    }

    #[test]
    fn serving_events_count_into_serve_metrics() {
        let mut c = ObsCollector::new(ObsConfig::default());
        c.ingest_events(&[
            TraceEvent::AdmissionReject {
                tick: 1,
                session: 4,
                reason: "full",
                depth: 8,
                bound: 8,
            },
            TraceEvent::AdmissionReject {
                tick: 2,
                session: 5,
                reason: "shed",
                depth: 3,
                bound: 8,
            },
            TraceEvent::ServerShutdown {
                tick: 9,
                queued: 2,
                drained: 6,
                snapshot_version: 1,
            },
            TraceEvent::ServerRestore {
                tick: 0,
                snapshot_version: 1,
                queued: 2,
                completed: 6,
            },
        ]);
        let reg = c.registry();
        assert_eq!(reg.counter(names::SERVE_REJECTS), Some(2));
        assert_eq!(
            reg.counter(&key(names::SERVE_REJECTS, &[("reason", "full")])),
            Some(1)
        );
        assert_eq!(
            reg.counter(&key(names::SERVE_REJECTS, &[("reason", "shed")])),
            Some(1)
        );
        assert_eq!(reg.counter(names::SERVE_SHUTDOWNS), Some(1));
        assert_eq!(reg.counter(names::SERVE_SNAPSHOTS), Some(1));
        assert_eq!(reg.counter(names::SERVE_RESTORES), Some(1));
        assert_eq!(reg.gauge(names::SERVE_QUEUE_DEPTH), Some(2.0));
    }

    #[test]
    fn event_counters_match_event_counts() {
        let evs = sample_events();
        let mut c = ObsCollector::new(monitor_cfg());
        c.ingest_events(&evs);
        let reg = c.registry();
        assert_eq!(reg.counter(names::RUNS), Some(1));
        assert_eq!(reg.counter(names::EMISSIONS), Some(600));
        assert_eq!(
            reg.counter(&key(names::EMISSIONS, &[("query", "0")])),
            Some(300)
        );
        assert_eq!(
            reg.counter(&key(names::SPANS, &[("kind", "region")])),
            Some(600)
        );
        assert_eq!(reg.counter(names::SHEDS), Some(1));
        assert_eq!(reg.gauge(names::TICKS_PER_SECOND), Some(1.0e6));
    }

    #[test]
    fn at_risk_latch_counts_rising_edges() {
        // Query 0: 1 ms budget = 1000 ticks at 1e6 ticks/s; target 0.9.
        let cfg = monitor_cfg();
        assert_eq!(cfg.queries[0].budget_ticks, Some(1000));
        assert_eq!(cfg.queries[1].budget_ticks, None);
        let mut c = ObsCollector::new(cfg);
        let emit = |tick: u64, sat: f64| TraceEvent::Emission {
            tick,
            query: 0,
            seq: 1,
            rid: 0,
            tid: 0,
            utility: sat,
            satisfaction: sat,
        };
        // Healthy: satisfied, or early enough that the projection fits.
        c.ingest_events(&[emit(100, 0.95)]);
        c.ingest_events(&[emit(200, 0.45)]); // projects 200·2 = 400 ≤ 1000
        assert_eq!(
            c.registry()
                .gauge(&key(names::SLO_AT_RISK, &[("query", "0")])),
            Some(0.0)
        );
        // Slipping: at tick 800 with v = 0.45 the projection (1600) busts
        // the 1000-tick budget.
        c.ingest_events(&[emit(800, 0.45)]);
        assert_eq!(
            c.registry()
                .gauge(&key(names::SLO_AT_RISK, &[("query", "0")])),
            Some(1.0)
        );
        // Recovery clears the gauge; a second slip is a second edge.
        c.ingest_events(&[emit(900, 0.95)]);
        c.ingest_events(&[emit(950, 0.1)]);
        assert_eq!(c.registry().counter(names::SLO_TRANSITIONS), Some(2));
        // The budget-less LogDecay query never trips the detector.
        c.ingest_events(&[TraceEvent::Emission {
            tick: 5000,
            query: 1,
            seq: 1,
            rid: 0,
            tid: 0,
            utility: 0.0,
            satisfaction: 0.0,
        }]);
        assert_eq!(
            c.registry()
                .gauge(&key(names::SLO_AT_RISK, &[("query", "1")])),
            None
        );
    }

    #[test]
    fn stats_ingest_exposes_phase_profile() {
        let mut stats = Stats::new();
        stats.build_ticks = 10;
        stats.probe_ticks = 20;
        stats.insert_ticks = 30;
        stats.emit_ticks = 40;
        stats.build_dom_cmps = 5;
        stats.insert_dom_cmps = 6;
        stats.emit_region_cmps = 7;
        stats.sig_builds = 13;
        stats.presort_cache_hits = 14;
        stats.presort_cache_misses = 15;
        stats.arena_tuples = 1000;
        stats.plan_points_interned = 50;
        stats.ensure_queries(2);
        stats.per_query[1].tuples_emitted = 4;
        let mut c = ObsCollector::new(ObsConfig::default());
        c.ingest_stats(&stats);
        let reg = c.registry();
        assert_eq!(reg.counter("caqe_stats_insert_ticks"), Some(30));
        assert_eq!(reg.counter("caqe_stats_emit_region_cmps"), Some(7));
        assert_eq!(reg.counter("caqe_stats_presort_cache_hits"), Some(14));
        assert_eq!(reg.counter("caqe_stats_presort_cache_misses"), Some(15));
        assert_eq!(reg.gauge(names::ARENA_OCCUPANCY), Some(1000.0));
        assert_eq!(reg.counter("caqe_stats_sig_builds"), Some(13));
        assert_eq!(reg.counter("caqe_stats_probe_ticks"), Some(20));
        assert_eq!(
            reg.counter(&key("caqe_stats_tuples_emitted", &[("query", "1")])),
            Some(4)
        );
        // Zero-valued fields still materialize for reconciliation.
        assert_eq!(reg.counter("caqe_stats_regions_shed"), Some(0));
    }

    #[test]
    fn contract_budgets() {
        let tps = 1.0e6;
        assert_eq!(
            ObsConfig::contract_budget_ticks(&Contract::Deadline { t_hard: 2.0 }, tps),
            Some(2_000_000)
        );
        assert_eq!(
            ObsConfig::contract_budget_ticks(&Contract::LogDecay, tps),
            None
        );
        assert_eq!(
            ObsConfig::contract_budget_ticks(
                &Contract::Quota {
                    frac: 0.1,
                    interval: 0.5
                },
                tps
            ),
            Some(5_000_000)
        );
        assert_eq!(
            ObsConfig::contract_budget_ticks(
                &Contract::Product(
                    Box::new(Contract::Deadline { t_hard: 1.0 }),
                    Box::new(Contract::SoftDeadline { t_soft: 0.25 })
                ),
                tps
            ),
            Some(250_000)
        );
    }
}
