//! End-to-end correctness of the CAQE engine: whatever the scheduling
//! policy, every query must receive exactly its true skyline-over-join
//! result set, and no emitted result may ever be invalidated.

use caqe_contract::Contract;
use caqe_core::{
    CaqeStrategy, EngineConfig, ExecConfig, ExecutionStrategy, QuerySpec, RunRequest, Workload,
};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{hash_join_project, skyline_reference, JoinSpec, MappingSet};
use caqe_trace::NoopSink;
use caqe_types::{DimMask, SimClock, Stats};
use std::collections::BTreeSet;

fn tables(
    n: usize,
    dist: Distribution,
    sigma: f64,
    seed: u64,
) -> (caqe_data::Table, caqe_data::Table) {
    let gen = TableGenerator::new(n, 2, dist)
        .with_selectivities(&[sigma])
        .with_seed(seed);
    (gen.generate("R"), gen.generate("T"))
}

fn figure1_workload(contract: Contract) -> Workload {
    // DVA-safe mixed mappings (Example 5 style) — see MappingSet::mixed.
    let mapping = MappingSet::mixed(2, 2, 4);
    let prefs = [
        DimMask::from_dims([0, 1]),
        DimMask::from_dims([0, 1, 2]),
        DimMask::from_dims([1, 2]),
        DimMask::from_dims([1, 2, 3]),
    ];
    Workload::new(
        prefs
            .iter()
            .map(|&pref| QuerySpec {
                join_col: 0,
                mapping: mapping.clone(),
                pref,
                priority: 0.8,
                contract: contract.clone(),
            })
            .collect(),
    )
}

/// The ground truth: join everything, then per-query reference skyline.
fn reference_results(
    r: &caqe_data::Table,
    t: &caqe_data::Table,
    workload: &Workload,
) -> Vec<BTreeSet<(u64, u64)>> {
    let mut clock = SimClock::default();
    let mut stats = Stats::new();
    workload
        .queries()
        .iter()
        .map(|spec| {
            let join = hash_join_project(
                r.records(),
                t.records(),
                JoinSpec::on_column(spec.join_col),
                &spec.mapping,
                &mut clock,
                &mut stats,
            );
            let points: Vec<Vec<f64>> = join.iter().map(|o| o.vals.clone()).collect();
            skyline_reference(&points, spec.pref)
                .into_iter()
                .map(|i| (join[i].rid, join[i].tid))
                .collect()
        })
        .collect()
}

fn assert_engine_matches_reference(engine_cfg: &EngineConfig, dist: Distribution, seed: u64) {
    let (r, t) = tables(250, dist, 0.05, seed);
    let w = figure1_workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(250, 8);
    let expect = reference_results(&r, &t, &w);
    let outcome = RunRequest::new("engine", &r, &t, &w, &exec, engine_cfg)
        .try_run(&mut NoopSink)
        .expect("engine run");
    for (qi, want) in expect.iter().enumerate() {
        let got: BTreeSet<(u64, u64)> = outcome.per_query[qi].results.iter().copied().collect();
        assert_eq!(
            &got,
            want,
            "query {} result mismatch under {:?}/{:?} (got {} want {})",
            qi + 1,
            engine_cfg.policy,
            dist,
            got.len(),
            want.len()
        );
        // No duplicates were emitted.
        assert_eq!(got.len(), outcome.per_query[qi].results.len());
    }
}

#[test]
fn caqe_results_match_reference_independent() {
    assert_engine_matches_reference(&EngineConfig::caqe(), Distribution::Independent, 1);
}

#[test]
fn caqe_results_match_reference_correlated() {
    assert_engine_matches_reference(&EngineConfig::caqe(), Distribution::Correlated, 2);
}

#[test]
fn caqe_results_match_reference_anticorrelated() {
    assert_engine_matches_reference(&EngineConfig::caqe(), Distribution::Anticorrelated, 3);
}

#[test]
fn sjfsl_results_match_reference() {
    assert_engine_matches_reference(&EngineConfig::s_jfsl(), Distribution::Independent, 4);
    assert_engine_matches_reference(&EngineConfig::s_jfsl(), Distribution::Anticorrelated, 5);
}

#[test]
fn progxe_core_results_match_reference() {
    assert_engine_matches_reference(&EngineConfig::progxe_core(), Distribution::Independent, 6);
}

#[test]
fn emissions_are_timestamped_monotonically() {
    let (r, t) = tables(300, Distribution::Independent, 0.05, 7);
    let w = figure1_workload(Contract::Deadline { t_hard: 5.0 });
    let exec = ExecConfig::default().with_target_cells(300, 8);
    let outcome = CaqeStrategy.run(&r, &t, &w, &exec);
    for q in &outcome.per_query {
        for pair in q.emissions.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timestamps went backwards");
        }
        assert_eq!(q.emissions.len(), q.results.len());
    }
    assert!(outcome.virtual_seconds > 0.0);
    assert!(outcome.stats.join_results > 0);
    assert!(outcome.stats.tuples_emitted as usize == outcome.total_results());
}

#[test]
fn emitted_results_are_never_dominated_later() {
    // Progressive-safety invariant: an emitted tuple must be in the final
    // reference skyline — emission is final, never retracted.
    let (r, t) = tables(200, Distribution::Anticorrelated, 0.1, 8);
    let w = figure1_workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(200, 6);
    let expect = reference_results(&r, &t, &w);
    let outcome = CaqeStrategy.run(&r, &t, &w, &exec);
    for (qi, q) in outcome.per_query.iter().enumerate() {
        for pair in &q.results {
            assert!(
                expect[qi].contains(pair),
                "emitted non-final tuple {pair:?} for query {}",
                qi + 1
            );
        }
    }
}

#[test]
fn single_query_workload_works() {
    let (r, t) = tables(200, Distribution::Independent, 0.1, 9);
    let mapping = MappingSet::mixed(2, 2, 4);
    let w = Workload::new(vec![QuerySpec {
        join_col: 0,
        mapping,
        pref: DimMask::from_dims([0, 2]),
        priority: 1.0,
        contract: Contract::LogDecay,
    }]);
    let exec = ExecConfig::default().with_target_cells(200, 6);
    let expect = reference_results(&r, &t, &w);
    let outcome = CaqeStrategy.run(&r, &t, &w, &exec);
    let got: BTreeSet<(u64, u64)> = outcome.per_query[0].results.iter().copied().collect();
    assert_eq!(got, expect[0]);
}

#[test]
fn multi_join_group_workload() {
    // Queries over two different join columns: the engine must share within
    // groups yet schedule globally.
    let gen = TableGenerator::new(200, 2, Distribution::Independent)
        .with_selectivities(&[0.1, 0.05])
        .with_seed(10);
    let r = gen.generate("R");
    let t = gen.generate("T");
    let mapping = MappingSet::mixed(2, 2, 4);
    let w = Workload::new(vec![
        QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([0, 1]),
            priority: 0.9,
            contract: Contract::LogDecay,
        },
        QuerySpec {
            join_col: 1,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([1, 2]),
            priority: 0.5,
            contract: Contract::Deadline { t_hard: 10.0 },
        },
        QuerySpec {
            join_col: 0,
            mapping,
            pref: DimMask::from_dims([2, 3]),
            priority: 0.2,
            contract: Contract::LogDecay,
        },
    ]);
    let exec = ExecConfig::default().with_target_cells(200, 6);
    let expect = reference_results(&r, &t, &w);
    let outcome = CaqeStrategy.run(&r, &t, &w, &exec);
    for (qi, want) in expect.iter().enumerate() {
        let got: BTreeSet<(u64, u64)> = outcome.per_query[qi].results.iter().copied().collect();
        assert_eq!(&got, want, "query {} mismatch", qi + 1);
    }
}

#[test]
fn clock_offset_shifts_timestamps() {
    let (r, t) = tables(150, Distribution::Independent, 0.1, 11);
    let w = figure1_workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(150, 4);
    let base = RunRequest::new("x", &r, &t, &w, &exec, &EngineConfig::caqe())
        .try_run(&mut NoopSink)
        .expect("engine run");
    let offset_ticks = 1_000_000;
    let shifted = RunRequest::new("x", &r, &t, &w, &exec, &EngineConfig::caqe())
        .start_ticks(offset_ticks)
        .try_run(&mut NoopSink)
        .expect("engine run");
    let dt = offset_ticks as f64 / exec.cost_model.ticks_per_second;
    assert!(shifted.virtual_seconds > base.virtual_seconds);
    let a = base.per_query[0].emissions.first().unwrap().0;
    let b = shifted.per_query[0].emissions.first().unwrap().0;
    assert!((b - a - dt).abs() < 1e-6);
}

#[test]
fn concat_mapping_with_ties_needs_dva_off() {
    // Pass-through mappings create tied points on R-only subspaces —
    // exactly the DVA violation the paper assumes away. With the Theorem 1
    // shortcuts disabled the engine must still be exact.
    let (r, t) = tables(150, Distribution::Independent, 0.1, 12);
    let mapping = MappingSet::concat(2, 2);
    let w = Workload::new(
        [
            DimMask::from_dims([0, 1]),
            DimMask::from_dims([0, 1, 2]),
            DimMask::from_dims([1, 2, 3]),
        ]
        .iter()
        .map(|&pref| QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref,
            priority: 0.5,
            contract: Contract::LogDecay,
        })
        .collect(),
    );
    let mut exec = ExecConfig::default().with_target_cells(150, 4);
    exec.assume_dva = false;
    let expect = reference_results(&r, &t, &w);
    let outcome = RunRequest::new("caqe", &r, &t, &w, &exec, &EngineConfig::caqe())
        .try_run(&mut NoopSink)
        .expect("engine run");
    for (qi, want) in expect.iter().enumerate() {
        let got: BTreeSet<(u64, u64)> = outcome.per_query[qi].results.iter().copied().collect();
        assert_eq!(&got, want, "query {} mismatch under ties", qi + 1);
    }
}
