//! Acceptance suite for the live observability layer (DESIGN.md §16).
//! Four properties gate the `caqe-obs` work:
//!
//! 1. **Accuracy** — under a chaos plan that sheds, retries and
//!    quarantines, the collector's lifecycle counters exactly equal both
//!    the trace-event counts and the engine's own `Stats` counters.
//! 2. **Determinism** — the metrics snapshot (JSON and Prometheus text)
//!    is byte-identical across worker-thread counts.
//! 3. **Inertness** — wrapping the recording sink in an [`ObserverSink`]
//!    changes neither the outcome nor a single recorded trace byte.
//! 4. **Equivalence** — collecting live during the run and ingesting the
//!    recorded events afterwards land on the same registry contents.

use caqe::contract::Contract;
use caqe::core::{
    DegradationPolicy, EngineConfig, ExecConfig, QuerySpec, RunOutcome, RunRequest, Workload,
};
use caqe::data::{Distribution, Table, TableGenerator, ValidationPolicy};
use caqe::faults::{silence_injected_panics, FaultPlan};
use caqe::obs::{names, ObsCollector, ObsConfig, ObserverSink};
use caqe::operators::MappingSet;
use caqe::trace::{RecordingSink, TraceEvent};
use caqe::types::{DimMask, SimClock};

fn tables(n: usize) -> (Table, Table) {
    let gen = TableGenerator::new(n, 2, Distribution::Independent)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(42);
    (gen.generate("R"), gen.generate("T"))
}

fn workload() -> Workload {
    let spec = |col: usize, pref: DimMask, priority: f64, contract: Contract| QuerySpec {
        join_col: col,
        mapping: MappingSet::mixed(2, 2, 4),
        pref,
        priority,
        contract,
    };
    Workload::new(vec![
        spec(
            0,
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 0.5 },
        ),
        spec(0, DimMask::from_dims([1, 2]), 0.6, Contract::LogDecay),
        spec(
            1,
            DimMask::from_dims([2, 3]),
            0.4,
            Contract::SoftDeadline { t_soft: 0.3 },
        ),
    ])
}

/// The chaos_engine "everything+shedding" configuration: every fault
/// domain active, quarantine validation, aggressive shedding floor.
fn chaos_exec(n: usize, threads: Option<usize>) -> ExecConfig {
    ExecConfig::default()
        .with_target_cells(n, 4)
        .with_faults(
            FaultPlan::seeded(7)
                .with_panics(0.15)
                .with_spikes(0.1, 8.0)
                .with_estimator_noise(0.2, 4.0)
                .with_corruption(0.02),
        )
        .with_validation(ValidationPolicy::Quarantine)
        .with_degradation(DegradationPolicy {
            sat_floor: 0.9,
            grace_ticks: 10_000,
        })
        .with_parallelism(threads)
}

fn obs_config(w: &Workload) -> ObsConfig {
    let contracts: Vec<Contract> = w.queries().iter().map(|q| q.contract.clone()).collect();
    ObsConfig::from_contracts(
        &contracts,
        SimClock::default().model().ticks_per_second,
        0.5,
    )
}

/// Runs the chaos scenario with a live collector over a recording sink.
fn observed_run(
    r: &Table,
    t: &Table,
    w: &Workload,
    exec: &ExecConfig,
) -> (RunOutcome, RecordingSink, ObsCollector) {
    let mut sink = ObserverSink::new(obs_config(w), RecordingSink::new());
    let out = RunRequest::new("CAQE", r, t, w, exec, &EngineConfig::caqe())
        .try_run(&mut sink)
        .expect("chaos run under quarantine never rejects");
    let (recording, collector) = sink.into_parts();
    (out, recording, collector)
}

fn event_count(events: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

/// Gate 1: shed/retry/quarantine/emission counters equal the trace-event
/// counts *and* the engine's `Stats`, at one and at four threads.
#[test]
fn lifecycle_counters_match_trace_and_stats() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800);
    for threads in [None, Some(4)] {
        let exec = chaos_exec(800, threads);
        let (out, recording, collector) = observed_run(&r, &t, &w, &exec);
        let events = recording.events();
        let reg = collector.registry();
        let counter = |name: &str| reg.counter(name).unwrap_or(0);

        let sheds = event_count(events, |e| matches!(e, TraceEvent::RegionShed { .. }));
        let retries = event_count(events, |e| matches!(e, TraceEvent::RegionRetry { .. }));
        let quarantines = event_count(events, |e| {
            matches!(e, TraceEvent::RegionQuarantined { .. })
        });
        let emissions = event_count(events, |e| matches!(e, TraceEvent::Emission { .. }));
        let faults = event_count(events, |e| matches!(e, TraceEvent::FaultInjected { .. }));
        assert!(
            sheds > 0 && retries > 0,
            "scenario too tame to exercise the lifecycle counters"
        );

        assert_eq!(counter(names::SHEDS), sheds, "shed counter vs trace");
        assert_eq!(counter(names::RETRIES), retries, "retry counter vs trace");
        assert_eq!(
            counter(names::QUARANTINES),
            quarantines,
            "quarantine counter vs trace"
        );
        assert_eq!(
            counter(names::EMISSIONS),
            emissions,
            "emission counter vs trace"
        );
        assert_eq!(counter(names::FAULTS), faults, "fault counter vs trace");

        assert_eq!(
            counter(names::SHEDS),
            out.stats.regions_shed,
            "shed vs stats"
        );
        assert_eq!(
            counter(names::RETRIES),
            out.stats.region_retries,
            "retry vs stats"
        );
        assert_eq!(
            counter(names::QUARANTINES),
            out.stats.regions_quarantined,
            "quarantine vs stats"
        );
        assert_eq!(
            counter(names::EMISSIONS),
            out.stats.tuples_emitted,
            "emission vs stats"
        );
    }
}

/// Gate 2: the full snapshot — both export formats — is a pure function
/// of the workload, byte-identical at every worker-thread count.
#[test]
fn snapshots_bit_identical_across_threads() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800);
    let snapshot = |threads: Option<usize>| {
        let exec = chaos_exec(800, threads);
        let (out, _, mut collector) = observed_run(&r, &t, &w, &exec);
        collector.ingest_stats(&out.stats);
        (collector.snapshot_json(), collector.snapshot_prometheus())
    };
    let (base_json, base_prom) = snapshot(None);
    for threads in [1usize, 2, 4, 8] {
        let (json, prom) = snapshot(Some(threads));
        assert_eq!(
            base_json, json,
            "JSON snapshot diverged at threads={threads}"
        );
        assert_eq!(
            base_prom, prom,
            "Prometheus snapshot diverged at threads={threads}"
        );
    }
}

/// Gate 3: the observer is invisible — same outcome, same trace bytes as
/// an unwrapped recording sink.
#[test]
fn observer_sink_changes_nothing() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800);
    let exec = chaos_exec(800, Some(2));
    let mut plain = RecordingSink::new();
    let bare = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .try_run(&mut plain)
        .expect("chaos run under quarantine never rejects");
    let (observed, recording, _) = observed_run(&r, &t, &w, &exec);

    assert_eq!(bare.stats, observed.stats, "observer changed stats");
    assert_eq!(
        bare.virtual_seconds.to_bits(),
        observed.virtual_seconds.to_bits(),
        "observer moved the virtual clock"
    );
    for (a, b) in bare.per_query.iter().zip(&observed.per_query) {
        assert_eq!(a.results, b.results, "observer changed results");
        assert_eq!(a.emissions, b.emissions, "observer changed emissions");
    }
    assert_eq!(
        caqe::trace::to_jsonl(plain.events()),
        caqe::trace::to_jsonl(recording.events()),
        "observer perturbed the forwarded trace"
    );
}

/// Gate 4: live collection and post-hoc ingestion produce the same
/// registry.
#[test]
fn live_posthoc_and_sharded_ingestion_agree() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800);
    let exec = chaos_exec(800, Some(2));
    let (_, recording, live) = observed_run(&r, &t, &w, &exec);
    let live_json = live.snapshot_json();

    let mut posthoc = ObsCollector::new(obs_config(&w));
    posthoc.ingest_events(recording.events());
    assert_eq!(
        live_json,
        posthoc.snapshot_json(),
        "post-hoc ingestion diverged from live collection"
    );
}
