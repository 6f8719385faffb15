//! The committed golden traces: each fixed workload's full JSONL event
//! stream must match its file under `tests/golden/` byte for byte, so a
//! change that perturbs a single comparison, tick or emission shows up
//! as a diff. Refresh one on purpose with `UPDATE_GOLDEN=1`.
//!
//! The engine is serial; the benchmark-pinned `parallelism` knob is inert,
//! and `parallelism_never_changes_the_outcome` is the one test that pins
//! that.

use caqe::baselines::{JfslStrategy, SsmjStrategy};
use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, RunOutcome, Workload};
use caqe::data::{Distribution, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;
use common::assert_golden;

mod common;

fn tables(n: usize, dist: Distribution, seed: u64) -> (caqe::data::Table, caqe::data::Table) {
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

/// Runs CAQE on the golden workload (1600 independent rows, coarse cells:
/// hundreds of R-rows per region) under `exec` and compares its trace with
/// `tests/golden/caqe_trace.jsonl`, recorded before the flat `PointStore`
/// migration.
fn assert_caqe_golden(exec: &ExecConfig) {
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let mut sink = caqe::trace::RecordingSink::new();
    let out = EngineStrategy::CAQE
        .try_run_traced(&r, &t, &w, exec, &mut sink)
        .expect("clean run");
    assert!(out.total_results() > 0, "degenerate workload");
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, caqe::trace::TraceEvent::Decision { .. })),
        "trace recorded no scheduler decisions"
    );
    assert_golden("caqe_trace.jsonl", &caqe::trace::to_jsonl(sink.events()));
}

#[test]
fn trace_matches_committed_golden() {
    assert_caqe_golden(&ExecConfig::default().with_target_cells(1600, 2));
    // Every committed golden is a sentence of the typed reader's grammar.
    for name in [
        "caqe_trace.jsonl",
        "churn_trace.jsonl",
        "jfsl_trace.jsonl",
        "progxe_trace.jsonl",
        "revival_trace.jsonl",
        "sjfsl_trace.jsonl",
        "ssmj_trace.jsonl",
    ] {
        let text = common::golden(name);
        let events = caqe::trace::from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            caqe::trace::to_jsonl(&events),
            text,
            "{name} does not round-trip"
        );
    }
}

#[test]
fn parallelism_never_changes_the_outcome() {
    // `ExecConfig::parallelism` survives only because `benchmark/src`
    // compiles against it; setting it must leave every trace byte alone.
    let exec = ExecConfig::default().with_target_cells(1600, 2);
    assert_caqe_golden(&exec.with_parallelism(Some(4)));
}

#[test]
fn fifo_trace_matches_committed_golden() {
    // S-JFSL never ranks regions, yet every `Decision` it traces carries the
    // `csm` / `prog_est` of the region the FIFO cursor picked. The golden was
    // recorded when both were derived from scratch per decision, so it pins
    // the incremental threat counts on the one path that reads them without
    // a ranking pass having run first.
    let w = workload();
    let (r, t) = tables(400, Distribution::Correlated, 7);
    let exec = ExecConfig::default().with_target_cells(400, 4);
    let mut sink = caqe::trace::RecordingSink::new();
    let out = EngineStrategy::S_JFSL
        .try_run_traced(&r, &t, &w, &exec, &mut sink)
        .expect("clean run");
    assert!(out.total_results() > 0, "degenerate workload");
    let jsonl = caqe::trace::to_jsonl(sink.events());
    assert!(
        jsonl.contains("\"policy\":\"fifo\""),
        "no FIFO decision traced"
    );
    assert_golden("sjfsl_trace.jsonl", &jsonl);
}

/// Records `strategy`'s trace on the anticorrelated 500-row tables and
/// compares it with `tests/golden/<golden>`; returns the charged
/// comparisons so each caller can pin its skyline kernel's total too.
fn per_query_baseline_golden(strategy: &dyn ExecutionStrategy, golden: &str) -> u64 {
    let w = workload();
    let (r, t) = tables(500, Distribution::Anticorrelated, 41);
    let exec = ExecConfig::default().with_target_cells(500, 8);
    let mut sink = caqe::trace::RecordingSink::new();
    let out = strategy
        .try_run_traced(&r, &t, &w, &exec, &mut sink)
        .expect("clean run");
    assert!(out.total_results() > 0, "degenerate workload");
    assert_golden(golden, &caqe::trace::to_jsonl(sink.events()));
    out.stats.dom_comparisons
}

#[test]
fn jfsl_trace_matches_committed_golden() {
    // Recorded before BNL lost its size dispatch: every emission tick pins
    // the blocking BNL's charges per query.
    let cmps = per_query_baseline_golden(&JfslStrategy, "jfsl_trace.jsonl");
    assert_eq!(cmps, 262_169);
}

#[test]
fn ssmj_trace_matches_committed_golden() {
    // Recorded while SSMJ still carried its own inline SFS filter: every
    // emission tick pins the presort charge and the per-survivor filter
    // charges it now takes from `skyline_sfs_store_each`.
    let cmps = per_query_baseline_golden(&SsmjStrategy, "ssmj_trace.jsonl");
    assert_eq!(cmps, 181_851);
}

#[test]
fn progxe_trace_matches_committed_golden() {
    // ProgXe+ runs one single-query workload per query on one clock: the
    // golden pins the ticks each sub-run continues from, the one outer
    // `Meta`, and every emission rebased from the sub-run's local query 0
    // to the real query id. (This workload's priorities fall with the
    // query id; `integration_pipeline::jfsl_emits_in_strict_priority_order`
    // pins the order.) Recorded while ProgXe+ still had a strategy type of
    // its own.
    per_query_baseline_golden(&EngineStrategy::PROGXE, "progxe_trace.jsonl");
    let events = caqe::trace::from_jsonl(&common::golden("progxe_trace.jsonl")).expect("golden");
    let metas = events
        .iter()
        .filter(|e| matches!(e, caqe::trace::TraceEvent::Meta { .. }))
        .count();
    assert_eq!(metas, 1, "sub-run Meta leaked into the outer stream");
    let emitted: std::collections::BTreeSet<u16> = events
        .iter()
        .filter_map(|e| match e {
            caqe::trace::TraceEvent::Emission { query, .. } => Some(*query),
            _ => None,
        })
        .collect();
    assert_eq!(emitted, [0, 1, 2].into(), "emissions not rebased per query");
}

#[test]
fn recording_sink_does_not_perturb_the_run() {
    // Observation must not interfere: a traced run and a no-op-sink run
    // agree on every observable, and tracing costs zero virtual ticks.
    let w = workload();
    let (r, t) = tables(500, Distribution::Independent, 41);
    let exec = ExecConfig::default().with_target_cells(500, 8);
    let plain = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let mut sink = caqe::trace::RecordingSink::new();
    let traced = EngineStrategy::CAQE
        .try_run_traced(&r, &t, &w, &exec, &mut sink)
        .expect("clean run");
    assert!(!sink.events().is_empty(), "recording sink captured nothing");
    assert_identical(&plain, &traced, "noop-vs-recording");
}
