//! Oracles shared by the integration suites, built on the *definitional*
//! operators only — the nested-loop join and the quadratic reference
//! skyline — so no suite checks the engine against another optimized path.

// Each suite uses its own subset.
#![allow(dead_code)]

use caqe::core::{QuerySpec, Workload};
use caqe::data::Table;
use caqe::operators::{nested_loop_join_project, skyline_reference, JoinSpec, OutTuple};
use caqe::types::{SimClock, Stats};
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
