//! Property tests for ingestion validation (DESIGN.md §13): whatever
//! corruption is injected — NaN/±Inf preference values, duplicated record
//! ids — validation policies never change skyline results *for the clean
//! subset* of records:
//!
//! - **Quarantine** is exact: running the engine on the corrupted tables
//!   equals the definitional skyline over the join of the clean subsets.
//! - **Clamp** is conservative: every emitted result pair made of clean
//!   records belongs to the clean-subset skyline (the sentinel is strictly
//!   worse than every clean value per column, so a clamped tuple can never
//!   push a spurious clean pair *into* the result), and the full emitted
//!   set is exactly the skyline of the clamped join.
//! - **Reject** is total: it errors with a typed `CorruptInput` if and
//!   only if a table is corrupt, and degenerates to Quarantine on clean
//!   input.

use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe::data::{validate_table, Distribution, Table, TableGenerator, ValidationPolicy};
use caqe::operators::MappingSet;
use caqe::types::{DimMask, EngineError};
use common::expected_skylines;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;

/// One injected corruption: which row, which dim, which non-finite value.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    NonFinite { row: u16, dim: u8, kind: u8 },
    DuplicateId { row: u16 },
}

fn corruption_strategy() -> impl Strategy<Value = Vec<Corruption>> {
    let one =
        prop_oneof![
            (any::<u16>(), any::<u8>(), 0u8..3)
                .prop_map(|(row, dim, kind)| Corruption::NonFinite { row, dim, kind }),
            (1u16..u16::MAX).prop_map(|row| Corruption::DuplicateId { row }),
        ];
    proptest::collection::vec(one, 0..10)
}

fn corrupt(table: &Table, plan: &[Corruption]) -> Table {
    let mut records = table.records().to_vec();
    for c in plan {
        match *c {
            Corruption::NonFinite { row, dim, kind } => {
                let i = row as usize % records.len();
                let k = dim as usize % records[i].vals.len();
                records[i].vals[k] = match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                };
            }
            Corruption::DuplicateId { row } => {
                // Copy an earlier record's id forward; first occurrence
                // stays clean under first-occurrence-wins validation.
                let i = (row as usize % (records.len() - 1)) + 1;
                records[i].id = records[i - 1].id;
            }
        }
    }
    Table::new(table.name(), table.dims(), table.join_cols(), records)
}

/// The clean subset under the validator's own semantics: finite values and
/// first-occurrence-wins on ids.
fn clean_subset(table: &Table) -> Table {
    validate_table(table, ValidationPolicy::Quarantine)
        .expect("quarantine never rejects")
        .table
        .unwrap_or_else(|| table.clone())
}

fn clean_ids(table: &Table) -> BTreeSet<u64> {
    table.records().iter().map(|r| r.id).collect()
}

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    seed: u64,
    prefs: Vec<DimMask>,
    cells: usize,
    plan_r: Vec<Corruption>,
    plan_t: Vec<Corruption>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        50usize..150,
        any::<u64>(),
        proptest::collection::vec(1u32..15, 1..3),
        3usize..8,
        corruption_strategy(),
        corruption_strategy(),
    )
        .prop_map(|(n, seed, pref_bits, cells, plan_r, plan_t)| Scenario {
            n,
            seed,
            prefs: pref_bits.into_iter().map(|b| DimMask(b % 15 + 1)).collect(),
            cells,
            plan_r,
            plan_t,
        })
}

fn setup(sc: &Scenario) -> (Table, Table, Workload, ExecConfig) {
    let gen = TableGenerator::new(sc.n, 2, Distribution::Independent)
        .with_selectivities(&[0.05])
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
                contract: Contract::LogDecay,
            })
            .collect(),
    );
    let exec = ExecConfig::default().with_target_cells(sc.n, sc.cells);
    (corrupt(&r, &sc.plan_r), corrupt(&t, &sc.plan_t), w, exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quarantine_preserves_the_clean_subset_skyline(sc in scenario_strategy()) {
        let (r, t, w, exec) = setup(&sc);
        let (clean_r, clean_t) = (clean_subset(&r), clean_subset(&t));
        let want = expected_skylines(&clean_r, &clean_t, &w);
        let outcome = EngineStrategy::CAQE
            .try_run(&r, &t, &w, &exec.with_validation(ValidationPolicy::Quarantine))
            .expect("quarantine never rejects");
        for (qi, expect) in want.iter().enumerate() {
            let got: BTreeSet<(u64, u64)> =
                outcome.per_query[qi].results.iter().copied().collect();
            prop_assert_eq!(
                &got, expect,
                "quarantine changed the clean-subset skyline on query {} (n={}, seed={})",
                qi + 1, sc.n, sc.seed
            );
        }
    }

    #[test]
    fn clamp_never_emits_spurious_clean_pairs(sc in scenario_strategy()) {
        let (r, t, w, exec) = setup(&sc);
        let (clean_r, clean_t) = (clean_subset(&r), clean_subset(&t));
        let clean_sky = expected_skylines(&clean_r, &clean_t, &w);
        let (rid_ok, tid_ok) = (clean_ids(&clean_r), clean_ids(&clean_t));
        // The engine must be exact over the clamped join, and any result
        // pair made of clean records must be a clean-subset skyline member
        // (clamped tuples may shadow clean ones, never promote them).
        let clamped_r = clean_subset_for_clamp(&r);
        let clamped_t = clean_subset_for_clamp(&t);
        let clamped_sky = expected_skylines(&clamped_r, &clamped_t, &w);
        let outcome = EngineStrategy::CAQE
            .try_run(&r, &t, &w, &exec.with_validation(ValidationPolicy::Clamp))
            .expect("clamp never rejects");
        for qi in 0..w.len() {
            let got: BTreeSet<(u64, u64)> =
                outcome.per_query[qi].results.iter().copied().collect();
            prop_assert_eq!(
                &got, &clamped_sky[qi],
                "clamp run is not exact over the clamped join on query {}", qi + 1
            );
            for pair in &got {
                if rid_ok.contains(&pair.0) && tid_ok.contains(&pair.1) {
                    prop_assert!(
                        clean_sky[qi].contains(pair),
                        "clamp emitted clean pair {:?} outside the clean-subset skyline \
                         on query {} (n={}, seed={})",
                        pair, qi + 1, sc.n, sc.seed
                    );
                }
            }
        }
    }

    #[test]
    fn reject_errors_iff_corrupt(sc in scenario_strategy()) {
        let (r, t, w, exec) = setup(&sc);
        let dirty = |table: &Table| {
            !validate_table(table, ValidationPolicy::Quarantine)
                .expect("quarantine never rejects")
                .report
                .is_clean()
        };
        let corrupt_input = dirty(&r) || dirty(&t);
        match EngineStrategy::CAQE.try_run(&r, &t, &w, &exec.with_validation(ValidationPolicy::Reject)) {
            Err(EngineError::CorruptInput { non_finite, duplicates, .. }) => {
                prop_assert!(corrupt_input, "Reject errored on clean input");
                prop_assert!(non_finite + duplicates > 0, "empty corruption report");
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
            Ok(outcome) => {
                prop_assert!(!corrupt_input, "Reject let corrupt input through");
                // On clean input every policy degenerates to the same run.
                let q = EngineStrategy::CAQE
                    .try_run(&r, &t, &w, &exec.with_validation(ValidationPolicy::Quarantine))
                    .expect("clean");
                for (a, b) in outcome.per_query.iter().zip(&q.per_query) {
                    prop_assert_eq!(&a.results, &b.results);
                }
            }
        }
    }
}

/// The table the engine sees under `Clamp`: duplicates dropped, non-finite
/// values replaced by the per-column sentinel.
fn clean_subset_for_clamp(table: &Table) -> Table {
    validate_table(table, ValidationPolicy::Clamp)
        .expect("clamp never rejects")
        .table
        .unwrap_or_else(|| table.clone())
}
