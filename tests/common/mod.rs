//! Oracles shared by the integration suites, built on the *definitional*
//! operators only — the nested-loop join and the quadratic reference
//! skyline — so no suite checks the engine against another optimized path;
//! plus the one reader of the committed files under `tests/golden/`.

// Each suite uses its own subset.
#![allow(dead_code)]

use caqe::core::{QuerySpec, Workload};
use caqe::data::Table;
use caqe::operators::{
    nested_loop_join_project, skyline_reference, JoinSpec, MappingSet, OutTuple,
};
use caqe::types::{SimClock, Stats};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The join of `r` and `t` under `spec`'s join column and mappings, by
/// Definition 1 (every pair is tested).
pub fn definitional_join(r: &Table, t: &Table, spec: &QuerySpec) -> Vec<OutTuple> {
    nested_loop_join_project(
        r.records(),
        t.records(),
        JoinSpec::on_column(spec.join_col),
        &spec.mapping,
        &mut SimClock::default(),
        &mut Stats::new(),
    )
}

/// Per query of `w`, the provenance pairs of its skyline over the join of
/// `r` and `t`, by Definitions 1–2.
pub fn expected_skylines(r: &Table, t: &Table, w: &Workload) -> Vec<BTreeSet<(u64, u64)>> {
    w.queries()
        .iter()
        .map(|spec| {
            let join = definitional_join(r, t, spec);
            let pts: Vec<Vec<f64>> = join.iter().map(|o| o.vals.clone()).collect();
            skyline_reference(&pts, spec.pref)
                .into_iter()
                .map(|i| (join[i].rid, join[i].tid))
                .collect()
        })
        .collect()
}

/// The tie axis of the engine's property suites: the mapping of two
/// 2-dimensional tables onto four outputs — Example 5's mixed sums, or
/// pass-through columns, which tie wherever rows share a partner — and
/// whether the tables' values go onto the integer grid ([`on_grid`]).
pub fn tie_axis() -> impl Strategy<Value = (MappingSet, bool)> {
    let mapping = prop_oneof![
        Just(MappingSet::mixed(2, 2, 4)),
        Just(MappingSet::concat(2, 2)),
    ];
    (mapping, any::<bool>())
}

/// `table` with every value `v` replaced by `round(8 v)`: the generators'
/// values in `[0, 1]` become the integers 0–8, so ties are everywhere.
pub fn on_grid(table: &Table) -> Table {
    let mut records = table.records().to_vec();
    for rec in &mut records {
        rec.vals.iter_mut().for_each(|v| *v = (*v * 8.0).round());
    }
    Table::new(table.name(), table.dims(), table.join_cols(), records)
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The committed `tests/golden/<name>`, read-only — for suites that compare
/// one file against several runs.
pub fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_path(name)).expect("missing golden file")
}

/// Compares `actual` with `tests/golden/<name>` byte for byte; refreshes the
/// file instead when `UPDATE_GOLDEN` is set.
pub fn assert_golden(name: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(name), actual).expect("write golden file");
        return;
    }
    assert_eq!(
        golden(name),
        actual,
        "output diverged from the committed golden {name}"
    );
}
