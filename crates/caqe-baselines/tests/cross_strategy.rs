//! Cross-strategy integration tests: all five compared systems must agree
//! on the final result sets, and the qualitative relationships the paper
//! reports must hold (sharing produces fewer join results; blocking
//! execution emits late; CAQE's look-ahead saves comparisons).

use caqe_baselines::{all_strategies, JfslStrategy, SsmjStrategy};
use caqe_contract::Contract;
use caqe_core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::MappingSet;
use caqe_types::DimMask;
use std::collections::BTreeSet;

fn tables(n: usize, dist: Distribution, seed: u64) -> (caqe_data::Table, caqe_data::Table) {
    let gen = TableGenerator::new(n, 2, dist)
        .with_selectivities(&[0.05])
        .with_seed(seed);
    (gen.generate("R"), gen.generate("T"))
}

fn workload(contract: Contract) -> Workload {
    let mapping = MappingSet::mixed(2, 2, 4);
    let prefs = [
        (DimMask::from_dims([0, 1]), 0.9),
        (DimMask::from_dims([0, 1, 2]), 0.7),
        (DimMask::from_dims([1, 2]), 0.5),
        (DimMask::from_dims([1, 2, 3]), 0.3),
    ];
    Workload::new(
        prefs
            .iter()
            .map(|&(pref, priority)| QuerySpec {
                join_col: 0,
                mapping: mapping.clone(),
                pref,
                priority,
                contract: contract.clone(),
            })
            .collect(),
    )
}

fn result_sets(outcome: &caqe_core::RunOutcome) -> Vec<BTreeSet<(u64, u64)>> {
    outcome
        .per_query
        .iter()
        .map(|q| q.results.iter().copied().collect())
        .collect()
}

#[test]
fn all_strategies_agree_on_result_sets() {
    let (r, t) = tables(250, Distribution::Independent, 21);
    let w = workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(250, 6);
    let outcomes: Vec<_> = all_strategies()
        .iter()
        .map(|s| s.run(&r, &t, &w, &exec))
        .collect();
    let reference = result_sets(&outcomes[0]);
    for o in &outcomes[1..] {
        assert_eq!(
            result_sets(o),
            reference,
            "{} disagrees with {}",
            o.strategy,
            outcomes[0].strategy
        );
    }
}

#[test]
fn all_strategies_agree_on_anticorrelated_data() {
    let (r, t) = tables(200, Distribution::Anticorrelated, 22);
    let w = workload(Contract::Deadline { t_hard: 30.0 });
    let exec = ExecConfig::default().with_target_cells(200, 5);
    let outcomes: Vec<_> = all_strategies()
        .iter()
        .map(|s| s.run(&r, &t, &w, &exec))
        .collect();
    let reference = result_sets(&outcomes[0]);
    for o in &outcomes[1..] {
        assert_eq!(result_sets(o), reference, "{} disagrees", o.strategy);
    }
}

#[test]
fn shared_strategies_produce_fewer_join_results() {
    // Figure 10.a: the shared plan evaluates each join once; JFSL and SSMJ
    // re-join per query (4 queries here → ~4× the join results).
    let (r, t) = tables(300, Distribution::Independent, 23);
    let w = workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(300, 6);
    let caqe = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let sjfsl = EngineStrategy::S_JFSL.run(&r, &t, &w, &exec);
    let jfsl = JfslStrategy.run(&r, &t, &w, &exec);
    let ssmj = SsmjStrategy.run(&r, &t, &w, &exec);
    assert!(
        caqe.stats.join_results < jfsl.stats.join_results,
        "CAQE {} vs JFSL {}",
        caqe.stats.join_results,
        jfsl.stats.join_results
    );
    assert!(caqe.stats.join_results < ssmj.stats.join_results);
    assert!(sjfsl.stats.join_results < jfsl.stats.join_results);
    // JFSL and SSMJ compute the identical joins.
    assert_eq!(jfsl.stats.join_results, ssmj.stats.join_results);
}

#[test]
fn caqe_discards_join_work_on_correlated_data() {
    // Correlated data: a handful of tuples dominates everything, so CAQE's
    // look-ahead should discard most regions before joining them.
    let (r, t) = tables(400, Distribution::Correlated, 24);
    let w = workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(400, 8);
    let caqe = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let sjfsl = EngineStrategy::S_JFSL.run(&r, &t, &w, &exec);
    assert!(
        caqe.stats.join_results < sjfsl.stats.join_results,
        "look-ahead discarded nothing: CAQE {} vs S-JFSL {}",
        caqe.stats.join_results,
        sjfsl.stats.join_results
    );
    assert!(caqe.stats.regions_pruned > 0);
}

#[test]
fn jfsl_blocks_progressive_systems_do_not() {
    // JFSL's first emission per query coincides with its last join +
    // skyline work; CAQE emits much earlier for at least the high-priority
    // queries. This materializes once tuple-level work dominates the
    // look-ahead, i.e. at realistic input sizes.
    let (r, t) = tables(1500, Distribution::Independent, 25);
    let w = workload(Contract::LogDecay);
    let exec = ExecConfig::default().with_target_cells(1500, 10);
    let caqe = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let jfsl = JfslStrategy.run(&r, &t, &w, &exec);
    let caqe_first = caqe
        .per_query
        .iter()
        .filter_map(|q| q.first_emission())
        .fold(f64::INFINITY, f64::min);
    let jfsl_first = jfsl
        .per_query
        .iter()
        .filter_map(|q| q.first_emission())
        .fold(f64::INFINITY, f64::min);
    assert!(
        caqe_first < jfsl_first,
        "CAQE first emission {caqe_first} not earlier than JFSL {jfsl_first}"
    );
}

#[test]
fn caqe_beats_blocking_baselines_on_deadline_contracts() {
    // The headline claim (Figure 9): under a tight deadline contract CAQE's
    // satisfaction exceeds the blocking baseline's.
    let (r, t) = tables(1500, Distribution::Independent, 26);
    let exec = ExecConfig::default().with_target_cells(1500, 10);
    // Calibrate the deadline to half of JFSL's total runtime: tight but
    // feasible for a progressive system.
    let probe = JfslStrategy.run(&r, &t, &workload(Contract::LogDecay), &exec);
    let deadline = probe.virtual_seconds * 0.5;
    let w = workload(Contract::Deadline { t_hard: deadline });
    let caqe = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let jfsl = JfslStrategy.run(&r, &t, &w, &exec);
    assert!(
        caqe.avg_satisfaction() > jfsl.avg_satisfaction(),
        "CAQE {:.3} vs JFSL {:.3} under deadline {deadline:.2}s",
        caqe.avg_satisfaction(),
        jfsl.avg_satisfaction()
    );
}

#[test]
fn strategy_names_are_distinct() {
    let names: BTreeSet<&str> = all_strategies().iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 5);
    assert!(names.contains("CAQE"));
    assert!(names.contains("S-JFSL"));
    assert!(names.contains("JFSL"));
    assert!(names.contains("ProgXe+"));
    assert!(names.contains("SSMJ"));
}
