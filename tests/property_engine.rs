//! Property-based tests of the full engine: on arbitrary small workloads,
//! every strategy must produce exactly the definitional result set, and
//! progressive emission must never retract.

use caqe::baselines::all_strategies;
use caqe::contract::Contract;
use caqe::core::{ExecConfig, QuerySpec, Workload};
use caqe::data::{Distribution, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;
use common::expected_skylines;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    dist: Distribution,
    sigma: f64,
    seed: u64,
    prefs: Vec<DimMask>,
    cells: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let dist = prop_oneof![
        Just(Distribution::Independent),
        Just(Distribution::Correlated),
        Just(Distribution::Anticorrelated),
    ];
    (
        50usize..200,
        dist,
        prop_oneof![Just(0.02), Just(0.05), Just(0.2)],
        any::<u64>(),
        proptest::collection::vec(1u32..15, 1..4),
        3usize..10,
    )
        .prop_map(|(n, dist, sigma, seed, pref_bits, cells)| Scenario {
            n,
            dist,
            sigma,
            seed,
            prefs: pref_bits
                .into_iter()
                .map(|b| {
                    let m = b % 15;
                    if m == 0 {
                        DimMask::full(4)
                    } else {
                        DimMask(m)
                    }
                })
                .collect(),
            cells,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_is_exact(sc in scenario_strategy()) {
        let gen = TableGenerator::new(sc.n, 2, sc.dist)
            .with_selectivities(&[sc.sigma])
            .with_seed(sc.seed);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let mapping = MappingSet::mixed(2, 2, 4);
        let w = Workload::new(
            sc.prefs
                .iter()
                .enumerate()
                .map(|(i, &pref)| QuerySpec {
                    join_col: 0,
                    mapping: mapping.clone(),
                    pref,
                    priority: 0.2 + 0.1 * (i as f64 % 8.0),
                    contract: Contract::LogDecay,
                })
                .collect(),
        );
        let exec = ExecConfig::default().with_target_cells(sc.n, sc.cells);
        let want = expected_skylines(&r, &t, &w);
        for strategy in all_strategies() {
            let outcome = strategy.run(&r, &t, &w, &exec);
            for (qi, expect) in want.iter().enumerate() {
                let got: BTreeSet<(u64, u64)> =
                    outcome.per_query[qi].results.iter().copied().collect();
                prop_assert_eq!(
                    &got,
                    expect,
                    "{} wrong on query {} ({:?}, n={}, σ={}, cells={})",
                    outcome.strategy,
                    qi + 1,
                    sc.dist,
                    sc.n,
                    sc.sigma,
                    sc.cells
                );
                // No duplicate emissions.
                prop_assert_eq!(got.len(), outcome.per_query[qi].results.len());
                // Timestamps are monotone.
                for w2 in outcome.per_query[qi].emissions.windows(2) {
                    prop_assert!(w2[0].0 <= w2[1].0);
                }
            }
        }
    }

    #[test]
    fn satisfaction_bounds_hold(sc in scenario_strategy()) {
        let gen = TableGenerator::new(sc.n, 2, sc.dist)
            .with_selectivities(&[sc.sigma])
            .with_seed(sc.seed);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let mapping = MappingSet::mixed(2, 2, 4);
        let w = Workload::new(
            sc.prefs
                .iter()
                .map(|&pref| QuerySpec {
                    join_col: 0,
                    mapping: mapping.clone(),
                    pref,
                    priority: 0.5,
                    contract: Contract::Deadline { t_hard: 2.0 },
                })
                .collect(),
        );
        let exec = ExecConfig::default().with_target_cells(sc.n, sc.cells);
        for strategy in all_strategies() {
            let o = strategy.run(&r, &t, &w, &exec);
            prop_assert!((0.0..=1.0).contains(&o.avg_satisfaction()));
            for q in &o.per_query {
                prop_assert!((0.0..=1.0).contains(&q.satisfaction));
                // pScore never exceeds the result count for [0,1] utilities.
                prop_assert!(q.p_score <= q.count() as f64 + 1e-9);
            }
            prop_assert!(o.virtual_seconds >= 0.0);
        }
    }
}
