//! Acceptance suite for the observability layer (DESIGN.md §16): under a
//! chaos plan that sheds, retries and quarantines, the collector's
//! lifecycle counters — folded after the run from the recorded trace, the
//! one ingestion path — exactly equal the engine's own `Stats` counters,
//! which the engine keeps apart from the trace.

use caqe::contract::Contract;
use caqe::core::{
    DegradationPolicy, EngineConfig, ExecConfig, QuerySpec, RunOutcome, RunRequest, Workload,
};
use caqe::data::{Distribution, Table, TableGenerator, ValidationPolicy};
use caqe::faults::{silence_injected_panics, FaultPlan};
use caqe::obs::{names, ObsCollector, ObsConfig};
use caqe::operators::MappingSet;
use caqe::trace::RecordingSink;
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
fn chaos_exec(n: usize) -> ExecConfig {
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
}

fn obs_config(w: &Workload) -> ObsConfig {
    let contracts: Vec<Contract> = w.queries().iter().map(|q| q.contract.clone()).collect();
    ObsConfig::from_contracts(
        &contracts,
        SimClock::default().model().ticks_per_second,
        0.5,
    )
}

/// Runs the chaos scenario into a recording sink and folds the recorded
/// events into a collector afterwards.
fn observed_run(
    r: &Table,
    t: &Table,
    w: &Workload,
    exec: &ExecConfig,
) -> (RunOutcome, ObsCollector) {
    let mut recording = RecordingSink::new();
    let out = RunRequest::new("CAQE", r, t, w, exec, &EngineConfig::caqe())
        .try_run(&mut recording)
        .expect("chaos run under quarantine never rejects");
    let mut collector = ObsCollector::new(obs_config(w));
    collector.ingest_events(recording.events());
    (out, collector)
}

/// Shed/retry/quarantine/emission counters folded from the trace equal
/// the engine's `Stats`.
#[test]
fn lifecycle_counters_match_trace_and_stats() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800);
    let (out, collector) = observed_run(&r, &t, &w, &chaos_exec(800));
    let reg = collector.registry();
    let counter = |name: &str| reg.counter(name).unwrap_or(0);
    assert!(
        counter(names::SHEDS) > 0 && counter(names::RETRIES) > 0,
        "scenario too tame to exercise the lifecycle counters"
    );

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
