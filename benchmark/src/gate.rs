//! The output gate: what the engine returned, checked against two
//! independent answers. Every check is one attempted operation; a mismatch
//! is a failed one and makes the run exit non-zero.

use crate::workloads::{Inputs, Kind, CHURN_DEPARTS};
use caqe_core::{QuerySpec, RunOutcome};
use caqe_data::Table;
use caqe_operators::{nested_loop_join_project, skyline_reference, JoinSpec};
use caqe_types::{QueryId, SimClock, Stats};

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

pub fn sorted(results: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v = results.to_vec();
    v.sort_unstable();
    v
}

/// Every query's result set equals the JFSL oracle's (join-first, blocking
/// BNL — no code path shared with the region engine). The query that
/// departs mid-session stops early, so its results need only be a subset.
pub fn against_oracle(inp: &Inputs, outcome: &RunOutcome, tally: &mut Tally) {
    let Some(oracle) = &inp.oracle else { return };
    tally.check(outcome.per_query.len() == oracle.per_query.len(), || {
        format!(
            "{}: {} queries answered, oracle has {}",
            inp.spec.name,
            outcome.per_query.len(),
            oracle.per_query.len()
        )
    });
    for (got, want) in outcome.per_query.iter().zip(&oracle.per_query) {
        let (got_set, want_set) = (sorted(&got.results), sorted(&want.results));
        let departs = inp.spec.kind == Kind::Churn && got.query == CHURN_DEPARTS;
        let ok = if departs {
            got_set.iter().all(|p| want_set.binary_search(p).is_ok())
        } else {
            got_set == want_set
        };
        tally.check(ok, || {
            format!(
                "{}: query {} returned {} results, JFSL oracle {}",
                inp.spec.name,
                got.query,
                got_set.len(),
                want_set.len()
            )
        });
    }
}

/// Definitions 1–2 applied literally: nested-loop join, project, then the
/// naive O(m²) skyline. Quadratic, so it runs on a small copy.
pub fn definitional_results(r: &Table, t: &Table, spec: &QuerySpec) -> Vec<(u64, u64)> {
    let joined = nested_loop_join_project(
        r.records(),
        t.records(),
        JoinSpec::on_column(spec.join_col),
        &spec.mapping,
        &mut SimClock::default(),
        &mut Stats::new(),
    );
    let points: Vec<Vec<f64>> = joined.iter().map(|o| o.vals.clone()).collect();
    let mut out: Vec<(u64, u64)> = skyline_reference(&points, spec.pref)
        .into_iter()
        .map(|i| (joined[i].rid, joined[i].tid))
        .collect();
    out.sort_unstable();
    out
}

/// A static engine run over `pool` on the small copy `(r, t)` equals the
/// definitional answer, query by query.
pub fn against_definition(
    name: &str,
    r: &Table,
    t: &Table,
    pool: &[QuerySpec],
    outcome: &RunOutcome,
    tally: &mut Tally,
) {
    for (qi, spec) in pool.iter().enumerate() {
        let want = definitional_results(r, t, spec);
        let got = outcome
            .per_query
            .get(qi)
            .map(|q| sorted(&q.results))
            .unwrap_or_default();
        tally.check(got == want, || {
            format!(
                "{name}: small-scale query {} returned {} results, Def. 1-2 give {}",
                QueryId(qi as u16),
                got.len(),
                want.len()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_caps_messages() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        for i in 0..10 {
            t.check(false, || format!("bad {i}"));
        }
        assert_eq!((t.attempted, t.failed), (11, 10));
        assert_eq!(t.messages.len(), 8);
        assert_eq!(t.messages[0], "bad 0");
    }
}
