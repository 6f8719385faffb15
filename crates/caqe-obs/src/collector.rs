//! Trace-to-metrics collection: the contract-SLO monitor and phase
//! profiler.
//!
//! An [`ObsCollector`] folds [`TraceEvent`]s and end-of-run [`Stats`] into
//! a [`MetricsRegistry`]. Every registry update is a pure function of the
//! event stream, so the collector can either observe live (wrapped around
//! any sink via [`ObserverSink`]) or ingest a recorded trace after the
//! fact — both paths produce byte-identical snapshots, which is what lets
//! `obs_report --reconcile` cross-validate metrics against trace files.
//!
//! The SLO monitor keeps one piece of cross-event state (the per-query
//! at-risk latch used to count transitions); it is always advanced in
//! serial event order.

use crate::registry::{key, MetricsRegistry};
use caqe_contract::Contract;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::Stats;

/// Stable metric names, shared by the collector, `obs_report` and tests so
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
    /// Counter family: phase virtual ticks, labelled by `phase`
    /// (`build`/`probe`/`insert`/`emit`), from end-of-run `Stats`.
    pub const PHASE_TICKS: &str = "caqe_phase_ticks";
    /// Counter family: phase dominance-charge breakdown, labelled by
    /// `phase` (`build`/`insert`/`emit`).
    pub const PHASE_DOM_CMPS: &str = "caqe_phase_dom_cmps";
    /// Counter family: signature-screening events, labelled by `kind`
    /// (`sig_builds`/`cache_hits`/`cache_misses`), from end-of-run `Stats`.
    pub const PRUNE_EVENTS: &str = "caqe_prune_events_total";
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
    /// Gauge: wall-clock milliseconds of the last snapshot restore.
    pub const SERVE_RECOVERY_MS: &str = "caqe_serve_recovery_ms";
    /// Gauge: mean final satisfaction over completed sessions.
    pub const SERVE_MEAN_SATISFACTION: &str = "caqe_serve_mean_satisfaction";
}

/// What the SLO monitor knows about one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryObs {
    /// Display label (contract class, e.g. `"C1"`).
    pub label: String,
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
                    label: c.label().to_string(),
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

/// Folds trace events and run stats into a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct ObsCollector {
    cfg: ObsConfig,
    reg: MetricsRegistry,
    /// Per-query at-risk latch (serial SLO state; see module docs).
    at_risk: Vec<bool>,
}

impl ObsCollector {
    /// A collector with the given SLO configuration.
    #[must_use]
    pub fn new(cfg: ObsConfig) -> Self {
        ObsCollector {
            cfg,
            reg: MetricsRegistry::new(),
            at_risk: Vec::new(),
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

    /// Observes one event (the live-streaming path).
    pub fn on_event(&mut self, ev: &TraceEvent) {
        registry_update(&mut self.reg, ev);
        self.slo_update(ev);
    }

    /// Ingests a recorded event stream serially.
    pub fn ingest_events(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.on_event(ev);
        }
    }

    /// Ingests end-of-run [`Stats`]: raw counters under
    /// `caqe_stats_<field>`, the phase-profile and screening families and
    /// occupancy gauges.
    pub fn ingest_stats(&mut self, stats: &Stats) {
        for (name, v) in stats.counters() {
            self.reg.inc(&format!("{}{name}", names::STATS_PREFIX), v);
        }
        for (phase, ticks) in [
            ("build", stats.build_ticks),
            ("probe", stats.probe_ticks),
            ("insert", stats.insert_ticks),
            ("emit", stats.emit_ticks),
        ] {
            self.reg
                .inc(&key(names::PHASE_TICKS, &[("phase", phase)]), ticks);
        }
        for (phase, cmps) in [
            ("build", stats.build_dom_cmps),
            ("insert", stats.insert_dom_cmps),
            ("emit", stats.emit_region_cmps),
        ] {
            self.reg
                .inc(&key(names::PHASE_DOM_CMPS, &[("phase", phase)]), cmps);
        }
        for (kind, n) in [
            ("sig_builds", stats.sig_builds),
            ("cache_hits", stats.presort_cache_hits),
            ("cache_misses", stats.presort_cache_misses),
        ] {
            self.reg
                .inc(&key(names::PRUNE_EVENTS, &[("kind", kind)]), n);
        }
        self.reg
            .set_gauge(names::ARENA_OCCUPANCY, stats.arena_tuples as f64);
        self.reg.set_gauge(
            names::PLAN_INTERNED_OCCUPANCY,
            stats.plan_points_interned as f64,
        );
        for (q, pq) in stats.per_query.iter().enumerate() {
            let label = q.to_string();
            self.reg.inc(
                &key("caqe_stats_tuples_emitted", &[("query", &label)]),
                pq.tuples_emitted,
            );
        }
    }

    /// The registry snapshot as deterministic JSON.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        self.reg.to_json()
    }

    /// The registry snapshot in Prometheus text format.
    #[must_use]
    pub fn snapshot_prometheus(&self) -> String {
        self.reg.to_prometheus()
    }

    /// The deadline-at-risk detector (serial state machine).
    ///
    /// At an emission for query `q` at tick `t` with running satisfaction
    /// `v < target`, the monitor projects the tick at which the
    /// satisfaction trajectory would reach the target if it kept its
    /// current average slope (`t · target / v`); the query is *at risk*
    /// when that projection overshoots the contract's tick budget. The
    /// latch counts rising edges so flapping queries are visible.
    fn slo_update(&mut self, ev: &TraceEvent) {
        let TraceEvent::Emission {
            tick,
            query,
            satisfaction,
            ..
        } = ev
        else {
            return;
        };
        let qi = *query as usize;
        let Some(spec) = self.cfg.queries.get(qi) else {
            return;
        };
        let Some(budget) = spec.budget_ticks else {
            return;
        };
        let risk = if *satisfaction >= spec.sat_target {
            false
        } else {
            let projected = (*tick as f64) * (spec.sat_target / satisfaction.max(1e-9));
            projected > budget as f64
        };
        if qi >= self.at_risk.len() {
            self.at_risk.resize(qi + 1, false);
        }
        let label = qi.to_string();
        self.reg.set_gauge(
            &key(names::SLO_AT_RISK, &[("query", &label)]),
            if risk { 1.0 } else { 0.0 },
        );
        if risk && !self.at_risk[qi] {
            self.reg.inc(names::SLO_TRANSITIONS, 1);
            self.reg
                .inc(&key(names::SLO_TRANSITIONS, &[("query", &label)]), 1);
        }
        self.at_risk[qi] = risk;
    }
}

/// The stateless per-event registry arithmetic (the SLO monitor's
/// cross-event state is kept apart in `slo_update`).
fn registry_update(reg: &mut MetricsRegistry, ev: &TraceEvent) {
    match ev {
        TraceEvent::Meta {
            ticks_per_second, ..
        } => {
            reg.inc(names::RUNS, 1);
            reg.set_gauge(names::TICKS_PER_SECOND, *ticks_per_second);
        }
        TraceEvent::Span {
            kind,
            start_tick,
            end_tick,
            ..
        } => {
            let labels = [("kind", kind.name())];
            reg.inc(&key(names::SPANS, &labels), 1);
            reg.observe(
                &key(names::SPAN_TICKS, &labels),
                end_tick.saturating_sub(*start_tick),
            );
        }
        TraceEvent::Decision {
            prog_est,
            csm,
            est_ticks,
            ..
        } => {
            reg.inc(names::DECISIONS, 1);
            reg.observe(names::DECISION_EST_TICKS, *est_ticks);
            reg.set_gauge(names::PROG_EST, *prog_est);
            reg.set_gauge(names::CSM, *csm);
        }
        TraceEvent::Emission {
            tick,
            query,
            satisfaction,
            ..
        } => {
            let label = (*query as usize).to_string();
            let labels = [("query", label.as_str())];
            reg.inc(names::EMISSIONS, 1);
            reg.inc(&key(names::EMISSIONS, &labels), 1);
            reg.observe(&key(names::EMISSION_TICK, &labels), *tick);
            reg.observe(
                &key(names::SATISFACTION_MILLI, &labels),
                (satisfaction.clamp(0.0, 1.0) * 1000.0).round() as u64,
            );
            reg.set_gauge(&key(names::SATISFACTION, &labels), *satisfaction);
        }
        TraceEvent::EstimateAudit { estimate, .. } => {
            reg.inc(names::ESTIMATE_AUDITS, 1);
            reg.observe(
                names::ESTIMATE_TICK_ERROR,
                estimate.est_ticks.abs_diff(estimate.actual_ticks),
            );
        }
        TraceEvent::FaultInjected { kind, .. } => {
            reg.inc(names::FAULTS, 1);
            reg.inc(&key(names::FAULTS, &[("kind", kind)]), 1);
        }
        TraceEvent::RegionRetry { .. } => reg.inc(names::RETRIES, 1),
        TraceEvent::RegionQuarantined { .. } => reg.inc(names::QUARANTINES, 1),
        TraceEvent::RegionShed { .. } => reg.inc(names::SHEDS, 1),
        TraceEvent::Admit { contract, .. } => {
            reg.inc(names::ADMITS, 1);
            reg.inc(&key(names::ADMITS, &[("contract", contract)]), 1);
        }
        TraceEvent::Depart {
            regions_retired, ..
        } => {
            reg.inc(names::DEPARTS, 1);
            reg.inc(names::DEPART_REGIONS_RETIRED, u64::from(*regions_retired));
        }
        TraceEvent::AdmissionReject { reason, depth, .. } => {
            reg.inc(names::SERVE_REJECTS, 1);
            reg.inc(&key(names::SERVE_REJECTS, &[("reason", reason)]), 1);
            reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*depth));
        }
        TraceEvent::ServerShutdown { queued, .. } => {
            reg.inc(names::SERVE_SHUTDOWNS, 1);
            reg.inc(names::SERVE_SNAPSHOTS, 1);
            reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*queued));
        }
        TraceEvent::ServerRestore { queued, .. } => {
            reg.inc(names::SERVE_RESTORES, 1);
            reg.set_gauge(names::SERVE_QUEUE_DEPTH, f64::from(*queued));
        }
        TraceEvent::IngestAudit {
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

/// A [`TraceSink`] adapter that feeds an [`ObsCollector`] and forwards
/// every event to the wrapped sink unchanged.
///
/// `ENABLED` is `true` so the engine emits events for the collector even
/// when the inner sink is a [`NoopSink`](caqe_trace::NoopSink); forwarding
/// is gated on the inner sink's own flag, so wrapping never changes what
/// the inner sink records. Metrics *off* means not constructing an
/// `ObserverSink` at all — the no-op path stays zero-overhead.
#[derive(Debug, Default)]
pub struct ObserverSink<S> {
    /// The wrapped sink (borrow after the run via [`Self::into_parts`]).
    pub inner: S,
    /// The live collector.
    pub collector: ObsCollector,
}

impl<S: TraceSink> ObserverSink<S> {
    /// Wraps `inner`, observing with a collector configured by `cfg`.
    pub fn new(cfg: ObsConfig, inner: S) -> Self {
        ObserverSink {
            inner,
            collector: ObsCollector::new(cfg),
        }
    }

    /// Splits back into the wrapped sink and the collector.
    pub fn into_parts(self) -> (S, ObsCollector) {
        (self.inner, self.collector)
    }
}

impl<S: TraceSink> TraceSink for ObserverSink<S> {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        self.collector.on_event(&ev);
        if S::ENABLED {
            self.inner.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_trace::{NoopSink, RecordingSink, SpanKind};

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
    fn observer_sink_is_transparent_to_the_inner_sink() {
        let evs = sample_events();
        let mut plain = RecordingSink::new();
        for ev in &evs {
            plain.record(ev.clone());
        }
        let mut observed = ObserverSink::new(monitor_cfg(), RecordingSink::new());
        for ev in &evs {
            observed.record(ev.clone());
        }
        let (inner, collector) = observed.into_parts();
        assert_eq!(inner.events(), plain.events());
        // And the live collector matches an after-the-fact ingest.
        let mut replay = ObsCollector::new(monitor_cfg());
        replay.ingest_events(&evs);
        assert_eq!(collector.snapshot_json(), replay.snapshot_json());
    }

    #[test]
    fn observer_over_noop_still_collects() {
        // The wrapper must stay enabled even over a disabled inner sink —
        // a compile-time fact, checked as one.
        const _: () = assert!(<ObserverSink<NoopSink> as TraceSink>::ENABLED);
        let mut observed = ObserverSink::new(monitor_cfg(), NoopSink);
        for ev in sample_events() {
            observed.record(ev);
        }
        let (_, collector) = observed.into_parts();
        assert_eq!(
            collector.registry().counter(names::EMISSIONS),
            Some(600),
            "collector must see events even when the inner sink is no-op"
        );
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
        c.on_event(&emit(100, 0.95));
        c.on_event(&emit(200, 0.45)); // projects 200·2 = 400 ≤ 1000
        assert_eq!(
            c.registry()
                .gauge(&key(names::SLO_AT_RISK, &[("query", "0")])),
            Some(0.0)
        );
        // Slipping: at tick 800 with v = 0.45 the projection (1600) busts
        // the 1000-tick budget.
        c.on_event(&emit(800, 0.45));
        assert_eq!(
            c.registry()
                .gauge(&key(names::SLO_AT_RISK, &[("query", "0")])),
            Some(1.0)
        );
        // Recovery clears the gauge; a second slip is a second edge.
        c.on_event(&emit(900, 0.95));
        c.on_event(&emit(950, 0.1));
        assert_eq!(c.registry().counter(names::SLO_TRANSITIONS), Some(2));
        // The budget-less LogDecay query never trips the detector.
        c.on_event(&TraceEvent::Emission {
            tick: 5000,
            query: 1,
            seq: 1,
            rid: 0,
            tid: 0,
            utility: 0.0,
            satisfaction: 0.0,
        });
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
        assert_eq!(
            reg.counter(&key(names::PHASE_TICKS, &[("phase", "insert")])),
            Some(30)
        );
        assert_eq!(
            reg.counter(&key(names::PHASE_DOM_CMPS, &[("phase", "emit")])),
            Some(7)
        );
        assert_eq!(reg.gauge(names::ARENA_OCCUPANCY), Some(1000.0));
        assert_eq!(
            reg.counter(&key(names::PRUNE_EVENTS, &[("kind", "cache_hits")])),
            Some(14)
        );
        assert_eq!(
            reg.counter(&key(names::PRUNE_EVENTS, &[("kind", "cache_misses")])),
            Some(15)
        );
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
