//! Property-based tests of the full engine: on arbitrary small workloads —
//! tied values included, under the default configuration, in one join
//! group or four — every strategy must produce exactly the definitional
//! result set, and progressive emission must never retract.

use caqe::baselines::all_strategies;
use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe::data::{Distribution, Table, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;
use common::{expected_skylines, on_grid, tie_axis};
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
    /// Mixed sums or pass-through columns (ties).
    mapping: MappingSet,
    /// Values on the integer grid (ties everywhere).
    grid: bool,
}

impl Scenario {
    fn tables(&self) -> (Table, Table) {
        self.tables_on(&[self.sigma])
    }

    /// The tables with one join column per selectivity in `sigmas`.
    fn tables_on(&self, sigmas: &[f64]) -> (Table, Table) {
        let gen = TableGenerator::new(self.n, 2, self.dist)
            .with_selectivities(sigmas)
            .with_seed(self.seed);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        match self.grid {
            true => (on_grid(&r), on_grid(&t)),
            false => (r, t),
        }
    }
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
        tie_axis(),
    )
        .prop_map(
            |(n, dist, sigma, seed, pref_bits, cells, (mapping, grid))| Scenario {
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
                mapping,
                grid,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One join group, or — `across_groups` — every preference asked on
    /// two join columns × two mappings: four groups of one to three users,
    /// so the per-query baselines' one pass per group is checked with
    /// several users against Definition 2 over the naive join.
    #[test]
    fn every_strategy_is_exact(sc in scenario_strategy(), across_groups in any::<bool>()) {
        let query = |i: usize, pref: DimMask, join_col: usize, mapping: &MappingSet| QuerySpec {
            join_col,
            mapping: mapping.clone(),
            pref,
            priority: 0.2 + 0.1 * (i as f64 % 8.0),
            contract: Contract::LogDecay,
        };
        let (r, t, w) = if across_groups {
            let (r, t) = sc.tables_on(&[sc.sigma, 0.05]);
            let mappings = [MappingSet::mixed(2, 2, 4), MappingSet::concat(2, 2)];
            let mut specs = Vec::new();
            for join_col in 0..2 {
                for mapping in &mappings {
                    for &pref in &sc.prefs {
                        specs.push(query(specs.len(), pref, join_col, mapping));
                    }
                }
            }
            (r, t, Workload::new(specs))
        } else {
            let (r, t) = sc.tables();
            let specs = sc
                .prefs
                .iter()
                .enumerate()
                .map(|(i, &pref)| query(i, pref, 0, &sc.mapping))
                .collect();
            (r, t, Workload::new(specs))
        };
        let exec = ExecConfig::default().with_target_cells(sc.n, sc.cells);
        let want = expected_skylines(&r, &t, &w);
        // Full CAQE one query at a time (the ablation's `sequential`) too.
        let sequential = EngineStrategy {
            name: "sequential",
            one_at_a_time: true,
            ..EngineStrategy::CAQE
        };
        let strategies = all_strategies()
            .into_iter()
            .chain([Box::new(sequential) as Box<dyn ExecutionStrategy>]);
        for strategy in strategies {
            let outcome = strategy.run(&r, &t, &w, &exec);
            for (qi, expect) in want.iter().enumerate() {
                let got: BTreeSet<(u64, u64)> =
                    outcome.per_query[qi].results.iter().copied().collect();
                prop_assert_eq!(
                    &got,
                    expect,
                    "{} wrong on query {} ({:?}, n={}, σ={}, cells={}, grid={}, {:?}, across groups {})",
                    outcome.strategy,
                    qi + 1,
                    sc.dist,
                    sc.n,
                    sc.sigma,
                    sc.cells,
                    sc.grid,
                    sc.mapping,
                    across_groups
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
        let (r, t) = sc.tables();
        let w = Workload::new(
            sc.prefs
                .iter()
                .map(|&pref| QuerySpec {
                    join_col: 0,
                    mapping: sc.mapping.clone(),
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
