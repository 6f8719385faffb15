//! Serial-vs-parallel determinism: the worker-thread knob must never change
//! what the engine computes — per-query result provenance, emission
//! `(timestamp, utility)` pairs, satisfaction, stats counters and the final
//! virtual clock must be bit-identical at every `parallelism` setting.
//!
//! The knob is inert today (the engine is serial; EXPERIMENTS.md "Parallel
//! layer (PRs 1–17)"), so the thread sweeps compare one path with itself
//! and pass trivially. They stay as the rig ROADMAP item 4 will be judged
//! on; what pins the bytes meanwhile is the committed goldens.

use caqe::baselines::{JfslStrategy, SJfslStrategy, SsmjStrategy};
use caqe::contract::Contract;
use caqe::core::{CaqeStrategy, ExecConfig, ExecutionStrategy, QuerySpec, RunOutcome, Workload};
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

#[test]
fn parallelism_never_changes_the_outcome() {
    let w = workload();
    for dist in [Distribution::Independent, Distribution::Anticorrelated] {
        for seed in [41u64, 4242] {
            let (r, t) = tables(500, dist, seed);
            let serial = ExecConfig::default().with_target_cells(500, 8);
            let base = CaqeStrategy.run(&r, &t, &w, &serial);
            assert!(base.total_results() > 0, "degenerate workload");
            for threads in [1usize, 4] {
                let par = serial.with_parallelism(Some(threads));
                let out = CaqeStrategy.run(&r, &t, &w, &par);
                assert_identical(
                    &base,
                    &out,
                    &format!("caqe {dist:?} seed={seed} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn chunked_probe_path_is_bit_identical() {
    // Coarse cells give each region hundreds of R-rows — the regime in
    // which the probe phase used to split into worker chunks.
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let serial = ExecConfig::default().with_target_cells(1600, 2);
    let base = CaqeStrategy.run(&r, &t, &w, &serial);
    assert!(base.total_results() > 0, "degenerate workload");
    for threads in [2usize, 4, 8] {
        let out = CaqeStrategy.run(&r, &t, &w, &serial.with_parallelism(Some(threads)));
        assert_identical(&base, &out, &format!("chunked threads={threads}"));
    }
}

#[test]
fn trace_is_bit_identical_at_every_parallelism() {
    // The recorded trace — not just the outcome — must be a pure function
    // of the workload: serialize the full event stream and compare bytes
    // across worker counts, including the coarse-cell regime.
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let serial = ExecConfig::default().with_target_cells(1600, 2);
    let mut base_sink = caqe::trace::RecordingSink::new();
    let base = CaqeStrategy.run_traced(&r, &t, &w, &serial, &mut base_sink);
    let base_jsonl = caqe::trace::to_jsonl(base_sink.events());
    assert!(base.total_results() > 0, "degenerate workload");
    assert!(
        base_sink
            .events()
            .iter()
            .any(|e| matches!(e, caqe::trace::TraceEvent::Decision { .. })),
        "trace recorded no scheduler decisions"
    );
    for threads in [1usize, 2, 4, 8] {
        let mut sink = caqe::trace::RecordingSink::new();
        let out = CaqeStrategy.run_traced(
            &r,
            &t,
            &w,
            &serial.with_parallelism(Some(threads)),
            &mut sink,
        );
        assert_identical(&base, &out, &format!("traced threads={threads}"));
        assert_eq!(
            base_jsonl,
            caqe::trace::to_jsonl(sink.events()),
            "trace bytes diverged at threads={threads}"
        );
    }
}

#[test]
fn trace_matches_committed_golden() {
    // Layout-migration regression gate: the JSONL trace of a fixed workload
    // is committed at `tests/golden/caqe_trace.jsonl` (recorded before the
    // flat `PointStore` migration). Any storage or kernel change that
    // perturbs a single comparison, tick or emission shows up as a byte
    // diff here. Refresh intentionally with UPDATE_GOLDEN=1.
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default().with_target_cells(1600, 2);
    let mut sink = caqe::trace::RecordingSink::new();
    let out = CaqeStrategy.run_traced(&r, &t, &w, &exec, &mut sink);
    assert!(out.total_results() > 0, "degenerate workload");
    assert_golden("caqe_trace.jsonl", &caqe::trace::to_jsonl(sink.events()));
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
    let out = SJfslStrategy.run_traced(&r, &t, &w, &exec, &mut sink);
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
    let out = strategy.run_traced(&r, &t, &w, &exec, &mut sink);
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
fn recording_sink_does_not_perturb_the_run() {
    // Observation must not interfere: a traced run and a no-op-sink run
    // agree on every observable, and tracing costs zero virtual ticks.
    let w = workload();
    let (r, t) = tables(500, Distribution::Independent, 41);
    let exec = ExecConfig::default()
        .with_target_cells(500, 8)
        .with_parallelism(Some(4));
    let plain = CaqeStrategy.run(&r, &t, &w, &exec);
    let mut sink = caqe::trace::RecordingSink::new();
    let traced = CaqeStrategy.run_traced(&r, &t, &w, &exec, &mut sink);
    assert!(!sink.events().is_empty(), "recording sink captured nothing");
    assert_identical(&plain, &traced, "noop-vs-recording");
}

#[test]
fn fifo_baseline_is_thread_invariant_too() {
    // S-JFSL exercises the FIFO cursor path and the blocking pipeline.
    let w = workload();
    let (r, t) = tables(400, Distribution::Correlated, 7);
    let serial = ExecConfig::default().with_target_cells(400, 8);
    let base = SJfslStrategy.run(&r, &t, &w, &serial);
    for threads in [1usize, 4] {
        let out = SJfslStrategy.run(&r, &t, &w, &serial.with_parallelism(Some(threads)));
        assert_identical(&base, &out, &format!("sjfsl threads={threads}"));
    }
}
