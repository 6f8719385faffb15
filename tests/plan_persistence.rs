//! Warm-start plan persistence: a run warm-started from a saved-then-loaded
//! plan file must be *byte-identical* to a cold start — same trace, same
//! outcome, at every thread count — and every way the file can be wrong
//! (bit flip, truncation, stale tables, another format version) must yield
//! a typed error followed by a clean full rebuild, never a partial apply.

use caqe::contract::Contract;
use caqe::core::{
    EngineConfig, ExecConfig, PlanError, PreparedPlan, QuerySpec, RunRequest, SchedulingPolicy,
    Workload, PLAN_VERSION,
};
use caqe::data::{Distribution, Table, TableGenerator};
use caqe::operators::MappingSet;
use caqe::trace::{to_jsonl, RecordingSink};
use caqe::types::DimMask;
use std::path::PathBuf;

mod common;

/// The golden-trace fixture of `determinism_parallel.rs`, verbatim.
fn tables() -> (Table, Table) {
    let gen = TableGenerator::new(1600, 2, Distribution::Independent)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(99);
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

fn exec() -> ExecConfig {
    ExecConfig::default().with_target_cells(1600, 2)
}

/// Builds and memoizes the plan exactly as the engine will consume it.
fn build_plan(
    r: &Table,
    t: &Table,
    w: &Workload,
    exec: &ExecConfig,
    eng: &EngineConfig,
) -> PreparedPlan {
    let needs_dg =
        eng.progressive_emission || eng.dominance_discard || eng.policy != SchedulingPolicy::Fifo;
    let mut plan = PreparedPlan::build(r, t, exec);
    plan.memoize(w, exec, eng.coarse_pruning, needs_dg, false);
    plan
}

/// One traced engine run, optionally warm-started, serialized to JSONL.
fn run_jsonl(
    r: &Table,
    t: &Table,
    w: &Workload,
    exec: &ExecConfig,
    plan: Option<&PreparedPlan>,
) -> String {
    let mut sink = RecordingSink::new();
    let out = RunRequest::new("CAQE", r, t, w, exec, &EngineConfig::caqe())
        .plan(plan)
        .try_run(&mut sink)
        .expect("engine run");
    assert!(out.total_results() > 0, "degenerate workload");
    to_jsonl(sink.events())
}

fn golden() -> String {
    common::golden("caqe_trace.jsonl")
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caqe_plan_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

#[test]
fn warm_start_reproduces_the_golden_trace_at_every_parallelism() {
    let (r, t) = tables();
    let w = workload();
    let eng = EngineConfig::caqe();
    let plan = build_plan(&r, &t, &w, &exec(), &eng);

    // Persist and reload through the real on-disk path: the trace the
    // *restored* plan produces is compared, not the in-memory one.
    let path = tmp_path("golden.caqeplan");
    plan.save(&path).expect("save plan");
    let restored = PreparedPlan::load(&path, &r, &t, &exec()).expect("load plan");

    let golden = golden();
    for threads in [1usize, 2, 4, 8] {
        let exec = exec().with_parallelism(Some(threads));
        let warm = run_jsonl(&r, &t, &w, &exec, Some(&restored));
        assert_eq!(
            golden, warm,
            "warm-start trace diverged from the committed golden at threads={threads}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_equals_cold_even_in_memory() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let cold = run_jsonl(&r, &t, &w, &exec, None);
    let warm = run_jsonl(&r, &t, &w, &exec, Some(&plan));
    assert_eq!(cold, warm, "warm path must be observationally identical");
}

#[test]
fn bit_flipped_plan_is_rejected_then_rebuilds_cleanly() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let text = plan.to_text();

    // Overwrite one byte in the middle of the body: with another digit,
    // then with its high bit set — the file stops being UTF-8, which is
    // still damage to the file, not an I/O failure.
    let mid = text.len() / 2;
    let path = tmp_path("flipped.caqeplan");
    for flip in [
        |b: u8| if b == b'3' { b'4' } else { b'3' },
        |b: u8| b | 0x80,
    ] {
        let mut bytes = text.clone().into_bytes();
        bytes[mid] = flip(bytes[mid]);
        std::fs::write(&path, &bytes).expect("write corrupt plan");
        match PreparedPlan::load(&path, &r, &t, &exec) {
            Err(PlanError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
    // The fall-back cold build is untouched by the corrupt file.
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, None));
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_plan_is_rejected_then_rebuilds_cleanly() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let text = plan.to_text();

    let path = tmp_path("truncated.caqeplan");
    for cut in [text.len() / 3, text.rfind("checksum").expect("footer")] {
        std::fs::write(&path, &text[..cut]).expect("write truncated plan");
        match PreparedPlan::load(&path, &r, &t, &exec) {
            Err(PlanError::Corrupt(_)) => {}
            other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, None));
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_table_version_is_rejected_then_rebuilds_cleanly() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let path = tmp_path("stale.caqeplan");
    plan.save(&path).expect("save plan");

    // The table "changed" after the plan was written: one value edit.
    let mut recs = r.records().to_vec();
    recs[7].vals[0] += 0.125;
    let r2 = Table::new(r.name(), r.dims(), r.join_cols(), recs);

    match PreparedPlan::load(&path, &r2, &t, &exec) {
        Err(PlanError::Stale {
            what: "table R", ..
        }) => {}
        other => panic!("expected Stale table R, got {other:?}"),
    }
    // A cold run over the *original* tables still matches the golden.
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, None));
    std::fs::remove_file(&path).ok();
}

#[test]
fn future_version_is_rejected_then_rebuilds_cleanly() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let header = format!("caqe-plan v{PLAN_VERSION}\n");
    assert!(plan.to_text().starts_with(&header));
    let future = plan.to_text().replacen(&header, "caqe-plan v7\n", 1);
    let path = tmp_path("future.caqeplan");
    std::fs::write(&path, future).expect("write future plan");

    match PreparedPlan::load(&path, &r, &t, &exec) {
        Err(PlanError::Version { found: 7 }) => {}
        other => panic!("expected Version, got {other:?}"),
    }
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, None));
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_plan_is_silently_ignored_by_the_engine() {
    // The engine's warm-start gate: a plan built for *different tables*
    // passed in anyway must be ignored (fingerprint mismatch), and the
    // run must still match the golden — warm-start can be wrong about
    // freshness, but never wrong about results.
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let other_gen = TableGenerator::new(400, 2, Distribution::Independent)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(5);
    let (r2, t2) = (other_gen.generate("R"), other_gen.generate("T"));
    let wrong_plan = build_plan(&r2, &t2, &w, &exec, &EngineConfig::caqe());
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, Some(&wrong_plan)));
}

/// `tests/golden/parent_v1.caqeplan` was written by `PreparedPlan::save`
/// at commit 51c5f04, in the format that stored what a build produced.
/// This build neither reads nor writes it: such a file is named as another
/// version — not as damage — and costs its holder one cold build.
#[test]
fn parent_written_v1_plan_is_rejected_typed_then_rebuilds_cleanly() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/parent_v1.caqeplan"
    ));
    assert_eq!(
        PreparedPlan::load(&path, &r, &t, &exec),
        Err(PlanError::Version { found: 1 })
    );
    assert_eq!(golden(), run_jsonl(&r, &t, &w, &exec, None));
}

/// What the file holds is the recipe: a few hundred bytes per memo however
/// much the build produces, and loading it gives back the in-memory plan,
/// session-mode (`keep_empty`) memos included.
#[test]
fn saved_plan_is_small_and_loads_to_the_in_memory_memos() {
    let (r, t) = tables();
    let w = workload();
    let exec = exec();
    let mut plan = build_plan(&r, &t, &w, &exec, &EngineConfig::caqe());
    let path = tmp_path("small.caqeplan");
    plan.save(&path).expect("save plan");
    let bytes = std::fs::metadata(&path).expect("saved file").len();
    assert!(bytes < 4096, "the golden-fixture plan takes {bytes} bytes");
    assert_eq!(PreparedPlan::load(&path, &r, &t, &exec), Ok(plan.clone()));

    plan.memoize(&w, &exec, true, true, true);
    assert_eq!(plan.memos.len(), 4, "two groups, batch and session mode");
    plan.save(&path).expect("save plan");
    let loaded = PreparedPlan::load(&path, &r, &t, &exec).expect("load plan");
    assert_eq!(loaded.memos, plan.memos);
    assert_eq!(loaded, plan);
    std::fs::remove_file(&path).ok();
}
