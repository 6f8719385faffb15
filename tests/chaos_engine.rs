//! Chaos acceptance suite for the deterministic fault-injection subsystem
//! (DESIGN.md §13). Four properties gate the robustness work:
//!
//! 1. **Containment** — no injected fault ever escapes as a process panic;
//!    every chaos run completes with `Ok` (or a *typed* error under the
//!    `Reject` validation policy).
//! 2. **Correctness under degradation** — whatever subset of results a
//!    degraded run emits, no emitted tuple is dominated by another emitted
//!    tuple for its query, and every emitted tuple is a genuine join result
//!    of the validated inputs.
//! 3. **Determinism** — for a fixed `(fault plan, seed)`, the outcome is
//!    the same whether or not the run records its trace: faults draw from
//!    the plan's own seeded stream, never from what observation does.
//! 4. **Inertness** — with `FaultPlan::none()` and default policies, the
//!    engine reproduces the committed golden trace byte-for-byte: every
//!    fault hook is a strict no-op when disabled.

use caqe::contract::Contract;
use caqe::core::{
    CaqeStrategy, DegradationPolicy, ExecConfig, ExecutionStrategy, QuerySpec, RunOutcome, Workload,
};
use caqe::data::{validate_table, Distribution, Table, TableGenerator, ValidationPolicy};
use caqe::faults::{silence_injected_panics, FaultPlan};
use caqe::operators::{skyline_reference, MappingSet};
use caqe::types::{DimMask, EngineError};
use common::{assert_golden, definitional_join};
use std::collections::BTreeMap;

mod common;

fn tables(n: usize, dist: Distribution, seed: u64) -> (Table, Table) {
    let gen = TableGenerator::new(n, 2, dist)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(seed);
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

/// One chaos scenario: a fault plan plus the policies it runs under.
struct Scenario {
    label: &'static str,
    plan: FaultPlan,
    validation: ValidationPolicy,
    degradation: DegradationPolicy,
}

fn scenarios() -> Vec<Scenario> {
    let sc = |label, plan, validation| Scenario {
        label,
        plan,
        validation,
        degradation: DegradationPolicy::default(),
    };
    vec![
        sc(
            "panics",
            FaultPlan::seeded(3).with_panics(0.6),
            ValidationPolicy::Reject,
        ),
        sc(
            "panic-storm",
            FaultPlan::seeded(11).with_panics(1.0),
            ValidationPolicy::Reject,
        ),
        sc(
            "cost-spikes",
            FaultPlan::seeded(5).with_spikes(0.3, 8.0),
            ValidationPolicy::Reject,
        ),
        sc(
            "estimator-noise",
            FaultPlan::seeded(7).with_estimator_noise(0.4, 4.0),
            ValidationPolicy::Reject,
        ),
        sc(
            "corruption-quarantine",
            FaultPlan::seeded(9).with_corruption(0.05),
            ValidationPolicy::Quarantine,
        ),
        sc(
            "corruption-clamp",
            FaultPlan::seeded(13).with_corruption(0.05),
            ValidationPolicy::Clamp,
        ),
        sc(
            "everything",
            FaultPlan::seeded(7)
                .with_panics(0.15)
                .with_spikes(0.1, 8.0)
                .with_estimator_noise(0.2, 4.0)
                .with_corruption(0.02),
            ValidationPolicy::Quarantine,
        ),
        Scenario {
            label: "everything+shedding",
            plan: FaultPlan::seeded(7)
                .with_panics(0.15)
                .with_spikes(0.1, 8.0)
                .with_estimator_noise(0.2, 4.0)
                .with_corruption(0.02),
            validation: ValidationPolicy::Quarantine,
            degradation: DegradationPolicy {
                sat_floor: 0.9,
                grace_ticks: 10_000,
            },
        },
    ]
}

fn exec_for(sc: &Scenario, n: usize, cells: usize) -> ExecConfig {
    ExecConfig::default()
        .with_target_cells(n, cells)
        .with_faults(sc.plan)
        .with_validation(sc.validation)
        .with_degradation(sc.degradation)
}

/// Reconstructs the table the engine actually processed: the fault plan's
/// corruption pass followed by the validation policy — the same pipeline
/// `prepare_inputs` runs.
fn effective_table(plan: &FaultPlan, policy: ValidationPolicy, table: &Table) -> Table {
    let corrupted = plan.corrupt_table(table);
    let validated = validate_table(&corrupted, policy).expect("scenario policies never reject");
    validated.table.unwrap_or(corrupted)
}

/// Asserts every observable of two outcomes matches exactly (f64 included:
/// the virtual clock is integer ticks underneath, so equality is exact).
fn assert_identical(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.stats, b.stats, "{label}: stats diverged");
    assert_eq!(
        a.virtual_seconds.to_bits(),
        b.virtual_seconds.to_bits(),
        "{label}: virtual clock diverged"
    );
    assert_eq!(a.per_query.len(), b.per_query.len());
    for (qa, qb) in a.per_query.iter().zip(&b.per_query) {
        assert_eq!(
            qa.results, qb.results,
            "{label}: result provenance diverged"
        );
        assert_eq!(
            qa.emissions.len(),
            qb.emissions.len(),
            "{label}: emission count diverged"
        );
        for (ea, eb) in qa.emissions.iter().zip(&qb.emissions) {
            assert_eq!(
                (ea.0.to_bits(), ea.1.to_bits()),
                (eb.0.to_bits(), eb.1.to_bits()),
                "{label}: emission (ts, utility) diverged"
            );
        }
        assert_eq!(
            qa.satisfaction.to_bits(),
            qb.satisfaction.to_bits(),
            "{label}: satisfaction diverged"
        );
    }
}

/// Gates 1–3: every scenario completes without an escaped panic, the
/// (possibly degraded) result sets stay internally non-dominated and
/// provenance-correct against the validated inputs, and a traced run
/// lands on the same outcome as an untraced one.
#[test]
fn faults_are_contained_and_results_stay_non_dominated() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800, Distribution::Independent, 42);
    for sc in scenarios() {
        let exec = exec_for(&sc, 800, 4);
        let outcome = CaqeStrategy
            .try_run(&r, &t, &w, &exec)
            .unwrap_or_else(|e| panic!("{}: chaos run failed: {e}", sc.label));
        let mut sink = caqe::trace::RecordingSink::new();
        let traced = CaqeStrategy
            .try_run_traced(&r, &t, &w, &exec, &mut sink)
            .unwrap_or_else(|e| panic!("{}: traced chaos run failed: {e}", sc.label));
        assert_identical(&outcome, &traced, &format!("{} traced", sc.label));

        // Oracle join over the tables the engine actually saw.
        let r_eff = effective_table(&sc.plan, sc.validation, &r);
        let t_eff = effective_table(&sc.plan, sc.validation, &t);
        for (qi, spec) in w.queries().iter().enumerate() {
            let join = definitional_join(&r_eff, &t_eff, spec);
            let by_pair: BTreeMap<(u64, u64), &Vec<f64>> =
                join.iter().map(|o| ((o.rid, o.tid), &o.vals)).collect();
            let emitted = &outcome.per_query[qi].results;
            let pts: Vec<Vec<f64>> = emitted
                .iter()
                .map(|pair| {
                    (*by_pair.get(pair).unwrap_or_else(|| {
                        panic!(
                            "{}: query {} emitted {:?}, not a join result of the validated inputs",
                            sc.label,
                            qi + 1,
                            pair
                        )
                    }))
                    .clone()
                })
                .collect();
            let sky = skyline_reference(&pts, spec.pref);
            assert_eq!(
                sky.len(),
                pts.len(),
                "{}: query {} emitted a dominated tuple ({} of {} survive)",
                sc.label,
                qi + 1,
                sky.len(),
                pts.len()
            );
        }
    }
}

/// Gate 1, recovery counters: a high panic rate actually exercises the
/// retry ladder into quarantine, and forced shedding actually sheds — the
/// chaos suite would be vacuous if the fault paths never fired.
#[test]
fn recovery_and_shedding_paths_actually_fire() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(800, Distribution::Independent, 42);

    let storm = exec_for(&scenarios()[1], 800, 4); // panic rate 1.0
    let out = CaqeStrategy.try_run(&r, &t, &w, &storm).expect("contained");
    assert!(out.stats.region_retries > 0, "no retries under panic storm");
    assert!(
        out.stats.regions_quarantined > 0,
        "no quarantines under panic storm"
    );

    let shed_exec = ExecConfig::default()
        .with_target_cells(800, 4)
        .with_degradation(DegradationPolicy {
            sat_floor: 1.01, // unreachable floor: shedding fires at every check
            grace_ticks: 5_000,
        });
    let out = CaqeStrategy.try_run(&r, &t, &w, &shed_exec).expect("clean");
    assert!(out.stats.regions_shed > 0, "forced shedding shed nothing");
}

/// Gate 2 regression, satellite of the online-session work: the shed check
/// averages satisfaction over *unfinished* queries only. A query whose
/// every serving region is done is as satisfied as it will ever be — under
/// the old all-queries mean, one such completed high-satisfaction query
/// could hold the average above the floor forever while an unfinished peer
/// starved at satisfaction ~0, and shedding never fired.
#[test]
fn completed_query_cannot_mask_a_starving_one() {
    silence_injected_panics();
    // Query A: generous contract over the sparse join — finishes early with
    // satisfaction ≈ 1. Query B: an already-expired hard deadline over the
    // dense join — every emission scores 0, so B starves at satisfaction 0
    // for the rest of the run.
    let w = Workload::new(vec![
        QuerySpec {
            join_col: 0,
            mapping: MappingSet::mixed(2, 2, 4),
            pref: DimMask::from_dims([0, 1]),
            priority: 0.9,
            contract: Contract::LogDecay,
        },
        QuerySpec {
            join_col: 1,
            mapping: MappingSet::mixed(2, 2, 4),
            pref: DimMask::from_dims([2, 3]),
            priority: 0.5,
            contract: Contract::Deadline { t_hard: 1e-6 },
        },
    ]);
    let gen = TableGenerator::new(800, 2, Distribution::Independent)
        .with_selectivities(&[0.02, 0.2])
        .with_seed(42);
    let (r, t) = (gen.generate("R"), gen.generate("T"));
    let floor = 0.4;
    let exec = ExecConfig::default()
        .with_target_cells(800, 4)
        .with_degradation(DegradationPolicy {
            sat_floor: floor,
            grace_ticks: 20_000,
        });
    let out = CaqeStrategy.try_run(&r, &t, &w, &exec).expect("clean");
    // The masking premise: averaged over *all* queries (A included), the
    // workload sits above the floor — the old check would never have fired.
    assert!(
        out.per_query[0].satisfaction > 0.8,
        "scenario broken: the completed query is not highly satisfied ({})",
        out.per_query[0].satisfaction
    );
    assert!(
        (out.per_query[0].satisfaction + out.per_query[1].satisfaction) / 2.0 > floor,
        "scenario broken: the all-queries mean fell below the floor anyway"
    );
    // The unfinished-only mean sees B starving and sheds.
    assert!(
        out.stats.regions_shed > 0,
        "completed query masked the starving one: no shedding fired"
    );
}

/// Typed errors: corrupt input under the `Reject` policy surfaces as
/// `EngineError::CorruptInput` — never a panic, never a silent pass.
#[test]
fn reject_policy_reports_corruption_as_typed_error() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(400, Distribution::Independent, 42);
    let exec = ExecConfig::default()
        .with_target_cells(400, 4)
        .with_faults(FaultPlan::seeded(9).with_corruption(0.2))
        .with_validation(ValidationPolicy::Reject);
    match CaqeStrategy.try_run(&r, &t, &w, &exec) {
        Err(EngineError::CorruptInput {
            non_finite,
            duplicates,
            ..
        }) => {
            assert!(non_finite + duplicates > 0, "empty corruption report");
        }
        other => panic!("expected CorruptInput, got {other:?}"),
    }
}

/// Gate 4: with faults disabled and default policies, every hook is a
/// strict no-op — the run reproduces the committed golden trace
/// byte-for-byte (same fixed workload as `golden_traces.rs`).
#[test]
fn inert_fault_plan_reproduces_committed_golden() {
    silence_injected_panics();
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default()
        .with_target_cells(1600, 2)
        .with_faults(FaultPlan::none())
        .with_validation(ValidationPolicy::default())
        .with_degradation(DegradationPolicy::default());
    let mut sink = caqe::trace::RecordingSink::new();
    let out = CaqeStrategy
        .try_run_traced(&r, &t, &w, &exec, &mut sink)
        .expect("clean run");
    assert!(out.total_results() > 0, "degenerate workload");
    // Disabled fault hooks must not perturb the golden trace.
    assert_golden("caqe_trace.jsonl", &caqe::trace::to_jsonl(sink.events()));
}
