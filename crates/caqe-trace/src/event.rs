//! The trace event vocabulary.
//!
//! Every event carries virtual-clock ticks, never wall time: the trace is a
//! pure function of (workload, strategy, config-visible knobs), which is
//! what makes it diffable across runs.

use caqe_regions::ReconciledEstimate;
use caqe_types::Ticks;

/// Which engine phase a [`TraceEvent::Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Quad-tree partitioning of the base relations (§4).
    PartitionBuild,
    /// Building one join group: coarse join, coarse skyline, dependency
    /// graph (§5.1–§5.2). Carries the group index.
    GroupBuild,
    /// Multi-query look-ahead: region construction and pruning inside a
    /// group build.
    LookAhead,
    /// Fine-level execution of one scheduled region (§6).
    Region,
}

impl SpanKind {
    /// Stable lowercase name used in the JSONL and Chrome-trace output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PartitionBuild => "partition_build",
            SpanKind::GroupBuild => "group_build",
            SpanKind::LookAhead => "look_ahead",
            SpanKind::Region => "region",
        }
    }
}

/// One structured observation of engine behaviour.
///
/// Tick fields are absolute virtual-clock readings.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run header: identifies the strategy and clock calibration so a trace
    /// file is self-describing.
    Meta {
        strategy: String,
        queries: usize,
        ticks_per_second: f64,
        start_tick: Ticks,
    },
    /// A phase with tick-weighted duration `[start_tick, end_tick]`.
    Span {
        kind: SpanKind,
        /// Join-group index, when the phase belongs to one group.
        group: Option<u32>,
        /// Region id, for [`SpanKind::Region`] spans.
        region: Option<u32>,
        start_tick: Ticks,
        end_tick: Ticks,
    },
    /// The scheduler committed to a region: the full decision record.
    Decision {
        tick: Ticks,
        group: u32,
        region: u32,
        /// Policy branch taken: `"contract"`, `"count"` or `"fifo"`.
        policy: &'static str,
        /// Whether the region was a dependency-graph root at pick time.
        root: bool,
        /// The score the policy ranked candidates by.
        score: f64,
        /// Cumulative Satisfaction Metric, Equation 8.
        csm: f64,
        /// Progressiveness estimate, Equation 10.
        prog_est: f64,
        /// Projected fine-level cost of the region, in ticks.
        est_ticks: Ticks,
        /// Live per-query weights (Equation 11) at decision time.
        weights: Vec<f64>,
    },
    /// One result tuple crossed the emission boundary.
    Emission {
        tick: Ticks,
        /// Owning query index.
        query: u16,
        /// 1-based emission ordinal *within* the owning query.
        seq: u64,
        /// Region the tuple was produced in (`u32::MAX` when the strategy
        /// has no region notion, e.g. baselines).
        rid: u32,
        /// Join-result ordinal the tuple came from.
        tid: u64,
        /// Utility awarded by the contract's decay function.
        utility: f64,
        /// Running satisfaction `v(Q_i, t)` *after* this emission.
        satisfaction: f64,
    },
    /// Schedule-time estimates reconciled against region completion.
    EstimateAudit {
        scheduled_tick: Ticks,
        completed_tick: Ticks,
        group: u32,
        region: u32,
        estimate: ReconciledEstimate,
    },
    /// A deterministic fault fired at an injection point (DESIGN.md §13).
    /// Only emitted when a fault plan is active.
    FaultInjected {
        tick: Ticks,
        group: u32,
        region: u32,
        /// Which injection point fired: `"cost_spike"`, `"estimator"` or
        /// `"panic"` in a region, `"admit_panic"` or `"admit_est"` at an
        /// admission.
        kind: &'static str,
        /// Spike/perturbation factor where applicable, else 1.0.
        factor: f64,
    },
    /// A region's processing unit panicked and was requeued with backoff.
    RegionRetry {
        tick: Ticks,
        group: u32,
        region: u32,
        /// 1-based attempt number that just failed.
        attempt: u32,
        /// Virtual ticks the region must wait before becoming eligible again.
        backoff_ticks: Ticks,
    },
    /// A region exhausted its retry budget and was removed from the
    /// schedule; its dependents were unblocked as if it had been pruned.
    RegionQuarantined {
        tick: Ticks,
        group: u32,
        region: u32,
        /// Total processing attempts made (all failed).
        attempts: u32,
    },
    /// The degradation policy shed a low-CSM root region because running
    /// satisfaction slipped below the configured floor.
    RegionShed {
        tick: Ticks,
        group: u32,
        region: u32,
        /// Mean running satisfaction that triggered the shed.
        satisfaction: f64,
    },
    /// A query joined the running workload through the online session layer.
    Admit {
        tick: Ticks,
        /// Global query slot assigned to the arrival.
        query: u16,
        /// Contract class label (`Contract::label()`), for trace readers.
        contract: String,
        /// Join groups whose shared plan was patched for the arrival
        /// (`u32::MAX` when the arrival opened a brand-new group).
        group: u32,
        /// Whether the plan was patched incrementally (`true`) or rebuilt
        /// from scratch (`false`, the comparison path).
        incremental: bool,
    },
    /// A query left the running workload; its sole-provider regions were
    /// retired the same way shedding does.
    Depart {
        tick: Ticks,
        query: u16,
        /// Regions retired because the departing query was their only
        /// remaining consumer.
        regions_retired: u32,
    },
    /// The serving layer refused a submission: the admission queue was at
    /// its bound or the request was unservable. Emitted by the wall-clock
    /// driver (`caqe-serve`), never by the deterministic core.
    AdmissionReject {
        tick: Ticks,
        /// Server-assigned session identifier of the rejected submission.
        session: u64,
        /// Why it was refused: `"full"` (queue at bound) or `"invalid"` (a
        /// malformed request, or the server is shutting down).
        reason: &'static str,
        /// Queue depth observed at rejection time.
        depth: u32,
        /// Configured queue bound.
        bound: u32,
    },
    /// The serving layer drained its queue into a snapshot and stopped.
    ServerShutdown {
        tick: Ticks,
        /// Sessions still queued (captured into the snapshot).
        queued: u32,
        /// Sessions completed before the shutdown.
        drained: u32,
        /// Snapshot format version written.
        snapshot_version: u32,
    },
    /// The serving layer restored queued sessions from a snapshot.
    ServerRestore {
        tick: Ticks,
        /// Snapshot format version read.
        snapshot_version: u32,
        /// Sessions re-queued from the snapshot.
        queued: u32,
        /// Sessions already recorded complete at snapshot time.
        completed: u32,
    },
    /// Ingestion validation summary for one input table. Only emitted when
    /// a fault plan is active or violations were found.
    IngestAudit {
        tick: Ticks,
        /// Table name ("R"/"T").
        table: String,
        /// Validation policy applied: `"reject"`, `"quarantine"`, `"clamp"`.
        policy: &'static str,
        /// Records dropped or quarantined.
        quarantined: u64,
        /// Non-finite values clamped in place.
        clamped: u64,
    },
}

impl TraceEvent {
    /// The event's primary timestamp, for ordering checks.
    pub fn tick(&self) -> Ticks {
        match self {
            TraceEvent::Meta { start_tick, .. } => *start_tick,
            TraceEvent::Span { start_tick, .. } => *start_tick,
            TraceEvent::Decision { tick, .. } => *tick,
            TraceEvent::Emission { tick, .. } => *tick,
            TraceEvent::EstimateAudit { scheduled_tick, .. } => *scheduled_tick,
            TraceEvent::FaultInjected { tick, .. } => *tick,
            TraceEvent::RegionRetry { tick, .. } => *tick,
            TraceEvent::RegionQuarantined { tick, .. } => *tick,
            TraceEvent::RegionShed { tick, .. } => *tick,
            TraceEvent::Admit { tick, .. } => *tick,
            TraceEvent::Depart { tick, .. } => *tick,
            TraceEvent::AdmissionReject { tick, .. } => *tick,
            TraceEvent::ServerShutdown { tick, .. } => *tick,
            TraceEvent::ServerRestore { tick, .. } => *tick,
            TraceEvent::IngestAudit { tick, .. } => *tick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_events_offset_and_tick() {
        let ev = TraceEvent::AdmissionReject {
            tick: 15,
            session: 9,
            reason: "full",
            depth: 8,
            bound: 8,
        };
        assert_eq!(ev.tick(), 15);
        let ev = TraceEvent::ServerShutdown {
            tick: 101,
            queued: 3,
            drained: 7,
            snapshot_version: 1,
        };
        assert_eq!(ev.tick(), 101);
        let ev = TraceEvent::ServerRestore {
            tick: 0,
            snapshot_version: 1,
            queued: 3,
            completed: 7,
        };
        assert_eq!(ev.tick(), 0);
    }

    #[test]
    fn span_kind_names_are_stable() {
        assert_eq!(SpanKind::PartitionBuild.name(), "partition_build");
        assert_eq!(SpanKind::GroupBuild.name(), "group_build");
        assert_eq!(SpanKind::LookAhead.name(), "look_ahead");
        assert_eq!(SpanKind::Region.name(), "region");
    }
}
