//! Cross-crate integration scenarios: contract variety, hybrid contracts,
//! multi-join-condition workloads, and semantic relationships between the
//! strategies.

use caqe::baselines::{JfslStrategy, SsmjStrategy};
use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe::data::{Distribution, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;
use std::collections::BTreeSet;

fn tables(n: usize, dist: Distribution, seed: u64) -> (caqe::data::Table, caqe::data::Table) {
    let gen = TableGenerator::new(n, 2, dist)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(seed);
    (gen.generate("R"), gen.generate("T"))
}

fn spec(pref: DimMask, priority: f64, contract: Contract) -> QuerySpec {
    QuerySpec {
        join_col: 0,
        mapping: MappingSet::mixed(2, 2, 4),
        pref,
        priority,
        contract,
    }
}

#[test]
fn mixed_contract_workload_runs_end_to_end() {
    let (r, t) = tables(400, Distribution::Independent, 31);
    let w = Workload::new(vec![
        spec(
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 5.0 },
        ),
        spec(DimMask::from_dims([1, 2]), 0.7, Contract::LogDecay),
        spec(
            DimMask::from_dims([2, 3]),
            0.5,
            Contract::SoftDeadline { t_soft: 3.0 },
        ),
        spec(
            DimMask::from_dims([0, 3]),
            0.3,
            Contract::Quota {
                frac: 0.1,
                interval: 1.0,
            },
        ),
        spec(
            DimMask::from_dims([0, 1, 2]),
            0.1,
            Contract::Product(
                Box::new(Contract::LogDecay),
                Box::new(Contract::Deadline { t_hard: 20.0 }),
            ),
        ),
    ]);
    let exec = ExecConfig::default().with_target_cells(400, 8);
    let o = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    assert_eq!(o.per_query.len(), 5);
    assert!(o.total_results() > 0);
    for q in &o.per_query {
        assert!((0.0..=1.0).contains(&q.satisfaction));
    }
}

#[test]
fn progxe_equals_caqe_on_a_single_query_modulo_contracts() {
    // With one query there is nothing to arbitrate: ProgXe+'s count-driven
    // engine and CAQE produce the same result set (scheduling order may
    // differ, satisfaction may differ slightly, the *set* may not).
    let (r, t) = tables(300, Distribution::Independent, 32);
    let w = Workload::new(vec![spec(
        DimMask::from_dims([0, 2]),
        0.8,
        Contract::LogDecay,
    )]);
    let exec = ExecConfig::default().with_target_cells(300, 8);
    let a: BTreeSet<(u64, u64)> = EngineStrategy::CAQE.run(&r, &t, &w, &exec).per_query[0]
        .results
        .iter()
        .copied()
        .collect();
    let b: BTreeSet<(u64, u64)> = EngineStrategy::PROGXE.run(&r, &t, &w, &exec).per_query[0]
        .results
        .iter()
        .copied()
        .collect();
    assert_eq!(a, b);
}

#[test]
fn sjfsl_emits_everything_at_the_end() {
    let (r, t) = tables(300, Distribution::Independent, 33);
    let w = Workload::new(vec![
        spec(DimMask::from_dims([0, 1]), 0.9, Contract::LogDecay),
        spec(DimMask::from_dims([1, 2, 3]), 0.4, Contract::LogDecay),
    ]);
    let exec = ExecConfig::default().with_target_cells(300, 8);
    let o = EngineStrategy::S_JFSL.run(&r, &t, &w, &exec);
    // Blocking: first emission within a whisker of total runtime.
    let first = o
        .per_query
        .iter()
        .filter_map(|q| q.first_emission())
        .fold(f64::INFINITY, f64::min);
    assert!(
        first > o.virtual_seconds * 0.95,
        "S-JFSL emitted early: {first} of {}",
        o.virtual_seconds
    );
}

#[test]
fn jfsl_emits_in_strict_priority_order() {
    let (r, t) = tables(250, Distribution::Independent, 34);
    let w = Workload::new(vec![
        spec(DimMask::from_dims([0, 1]), 0.2, Contract::LogDecay),
        spec(DimMask::from_dims([1, 2]), 0.9, Contract::LogDecay),
        spec(DimMask::from_dims([2, 3]), 0.5, Contract::LogDecay),
    ]);
    let exec = ExecConfig::default().with_target_cells(250, 6);
    // ProgXe+ runs the engine one query at a time in the same order.
    let per_query: [&dyn ExecutionStrategy; 2] = [&JfslStrategy, &EngineStrategy::PROGXE];
    for strategy in per_query {
        let o = strategy.run(&r, &t, &w, &exec);
        // Q2 (priority .9) finishes before Q3 (.5) before Q1 (.2).
        let last = |i: usize| o.per_query[i].last_emission().unwrap();
        let first = |i: usize| o.per_query[i].first_emission().unwrap();
        assert!(last(1) <= first(2), "{}: Q2 did not precede Q3", o.strategy);
        assert!(last(2) <= first(0), "{}: Q3 did not precede Q1", o.strategy);
    }
}

#[test]
fn ssmj_is_progressive_within_a_query() {
    let (r, t) = tables(400, Distribution::Anticorrelated, 35);
    let w = Workload::new(vec![spec(
        DimMask::from_dims([0, 1, 2]),
        0.8,
        Contract::LogDecay,
    )]);
    let exec = ExecConfig::default().with_target_cells(400, 6);
    let o = SsmjStrategy.run(&r, &t, &w, &exec);
    let q = &o.per_query[0];
    assert!(q.count() > 10, "need enough results to observe spread");
    // Emissions spread over the run rather than arriving in one burst.
    let first = q.first_emission().unwrap();
    let last = q.last_emission().unwrap();
    assert!(
        last - first > 0.05 * o.virtual_seconds,
        "SSMJ emissions not spread: {first}..{last} of {}",
        o.virtual_seconds
    );
}

#[test]
fn workload_across_two_join_conditions_shares_within_groups() {
    let (r, t) = tables(400, Distribution::Independent, 36);
    let mapping = MappingSet::mixed(2, 2, 4);
    let mk = |col: usize, pref: DimMask| QuerySpec {
        join_col: col,
        mapping: mapping.clone(),
        pref,
        priority: 0.5,
        contract: Contract::LogDecay,
    };
    // Three queries on JC0, one on JC1.
    let w = Workload::new(vec![
        mk(0, DimMask::from_dims([0, 1])),
        mk(0, DimMask::from_dims([1, 2])),
        mk(0, DimMask::from_dims([0, 1, 2])),
        mk(1, DimMask::from_dims([2, 3])),
    ]);
    let exec = ExecConfig::default().with_target_cells(400, 6);
    let caqe = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    let jfsl = JfslStrategy.run(&r, &t, &w, &exec);
    // Result sets agree.
    for qi in 0..4 {
        let a: BTreeSet<_> = caqe.per_query[qi].results.iter().copied().collect();
        let b: BTreeSet<_> = jfsl.per_query[qi].results.iter().copied().collect();
        assert_eq!(a, b, "query {} mismatch", qi + 1);
    }
    // Sharing: JFSL joins ≈ 4 full joins; CAQE joins the JC0 input once
    // (minus pruning) plus the JC1 input once.
    assert!(caqe.stats.join_results < jfsl.stats.join_results / 2);
}

#[test]
fn priorities_steer_caqe_under_tight_deadlines() {
    // Two identical-shape queries, wildly different priorities and a
    // deadline only one can meet: the high-priority query should win more
    // utility.
    let (r, t) = tables(600, Distribution::Independent, 37);
    let probe = Workload::new(vec![
        spec(DimMask::from_dims([0, 1]), 0.5, Contract::LogDecay),
        spec(DimMask::from_dims([2, 3]), 0.5, Contract::LogDecay),
    ]);
    let exec = ExecConfig::default().with_target_cells(600, 10);
    let total = EngineStrategy::CAQE
        .run(&r, &t, &probe, &exec)
        .virtual_seconds;
    let deadline = total * 0.4;
    let w = Workload::new(vec![
        spec(
            DimMask::from_dims([0, 1]),
            1.0,
            Contract::Deadline { t_hard: deadline },
        ),
        spec(
            DimMask::from_dims([2, 3]),
            0.05,
            Contract::Deadline { t_hard: deadline },
        ),
    ]);
    let o = EngineStrategy::CAQE.run(&r, &t, &w, &exec);
    assert!(
        o.per_query[0].satisfaction >= o.per_query[1].satisfaction,
        "priority inversion: {} vs {}",
        o.per_query[0].satisfaction,
        o.per_query[1].satisfaction
    );
}

#[test]
fn stats_are_internally_consistent() {
    let (r, t) = tables(300, Distribution::Correlated, 38);
    let w = Workload::new(vec![
        spec(DimMask::from_dims([0, 1]), 0.9, Contract::LogDecay),
        spec(DimMask::from_dims([1, 2, 3]), 0.3, Contract::LogDecay),
    ]);
    let exec = ExecConfig::default().with_target_cells(300, 8);
    for strategy in [
        Box::new(EngineStrategy::CAQE) as Box<dyn ExecutionStrategy>,
        Box::new(EngineStrategy::S_JFSL),
        Box::new(JfslStrategy),
    ] {
        let o = strategy.run(&r, &t, &w, &exec);
        assert!(o.stats.join_results <= o.stats.join_probes);
        assert_eq!(o.stats.tuples_emitted as usize, o.total_results());
        assert!(o.virtual_seconds > 0.0);
        assert!(o.wall_seconds >= 0.0);
        // Every emitted tuple cost at least its emission tick.
        assert!(
            o.virtual_seconds * exec.cost_model.ticks_per_second >= o.stats.tuples_emitted as f64
        );
    }
}
