//! The driver JFSL and SSMJ share: per query in priority order, the join,
//! one skyline step, and an emission per reported result. The two
//! baselines differ only in that step.
//!
//! The join is executed once per join group — the queries sharing
//! `(join_col, mapping)` — and charged per query: its ticks and counters
//! are recorded once and replayed to every user, so each query still pays
//! for the whole join as if it had joined alone (DESIGN.md §9 item 8).

use caqe_contract::QueryScore;
use caqe_core::group::group_workload;
use caqe_core::{prepare_inputs, ExecConfig, QueryOutcome, QuerySpec, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::{hash_join_project_store, JoinOutput, JoinSpec, MappingSet};
use caqe_regions::buchta_estimate;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{
    CostModel, DomKernel, EngineError, PointStore, Rect, SigQuantizer, SimClock, Stats, Ticks,
    Value,
};
use std::time::Instant;

/// Reports one skyline result, by join-output index, the moment the
/// baseline makes it visible.
pub(crate) type Report<'a> = dyn FnMut(usize, &mut SimClock, &mut Stats) + 'a;

/// One query's skyline over its join output: computes it under the
/// kernel's subspace, charging its own work, and calls the report hook on
/// every result in the order the baseline emits them. The quantizer, when
/// there is one, is built for that subspace over a box holding every join
/// result ([`join_envelope`]); a step may screen with it or ignore it.
pub(crate) type SkylineStep =
    fn(&PointStore, &DomKernel, Option<&SigQuantizer>, &mut SimClock, &mut Stats, &mut Report<'_>);

/// The `(lo, hi)` corners of the box `mapping` sends the base tables'
/// bounding boxes `r_box` × `t_box` to, or `None` for an empty table.
/// Mappings have non-negative weights, so the box holds every join result:
/// an O(|R| + |T|) envelope for signature screening (DESIGN.md §17),
/// never a pass over the join. A corner may be NaN (`inf` meeting `-inf`),
/// which `SigQuantizer::from_bounds` refuses.
pub(crate) fn join_envelope(
    r_box: Option<&Rect>,
    t_box: Option<&Rect>,
    mapping: &MappingSet,
) -> Option<(Vec<Value>, Vec<Value>)> {
    let (r_box, t_box) = (r_box?, t_box?);
    Some(
        mapping
            .fns()
            .iter()
            .map(|f| f.apply_bounds(r_box, t_box))
            .unzip(),
    )
}

#[cfg(test)]
thread_local! {
    /// Joins executed on this thread, so tests can hold the driver to one
    /// join per group.
    pub(crate) static JOINS_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One join group's join, executed once, and what it charged: the
/// record-then-replay shape of `GroupMemo` (DESIGN.md §19). Join charges
/// are integer ticks and three additive counters, so replaying them leaves
/// the clock and `Stats` where running the join again would.
struct RecordedJoin {
    join: JoinOutput,
    ticks: Ticks,
    stats: Stats,
}

impl RecordedJoin {
    /// Executes `spec`'s join against a zero clock and fresh counters.
    fn record(r: &Table, t: &Table, spec: &QuerySpec, model: CostModel) -> Self {
        #[cfg(test)]
        JOINS_RUN.with(|n| n.set(n.get() + 1));
        let mut clock = SimClock::new(model);
        let mut stats = Stats::new();
        let join = hash_join_project_store(
            r.records(),
            t.records(),
            JoinSpec::on_column(spec.join_col),
            &spec.mapping,
            &mut clock,
            &mut stats,
        );
        RecordedJoin {
            join,
            ticks: clock.ticks(),
            stats,
        }
    }

    /// Charges one user the whole join.
    fn charge(&self, clock: &mut SimClock, stats: &mut Stats) {
        clock.advance(self.ticks);
        *stats += self.stats.clone();
    }
}

/// Runs `workload` one query at a time: per query the join's output sits
/// in a flat point store, `step` computes its skyline, and every reported
/// result is charged one emit and scored against the query's contract.
/// Each join group's join is executed for its first user in priority
/// order, charged in full to every user, and dropped after its last.
pub(crate) fn run_per_query<S: TraceSink>(
    name: &'static str,
    step: SkylineStep,
    r: &Table,
    t: &Table,
    workload: &Workload,
    exec: &ExecConfig,
    sink: &mut S,
) -> Result<RunOutcome, EngineError> {
    let wall = Instant::now();
    let mut clock = SimClock::new(exec.cost_model);
    let mut stats = Stats::new();
    stats.ensure_queries(workload.len());
    let mut per_query: Vec<Option<QueryOutcome>> = vec![None; workload.len()];
    if S::ENABLED {
        sink.record(TraceEvent::Meta {
            strategy: name.to_string(),
            queries: workload.len(),
            ticks_per_second: exec.cost_model.ticks_per_second,
            start_tick: 0,
        });
    }

    let prep = prepare_inputs(r, t, exec, 0, sink)?;
    stats.ingest_quarantined += prep.quarantined();
    stats.ingest_clamped += prep.clamped();
    let r = prep.r_table(r);
    let t = prep.t_table(t);
    let (r_box, t_box) = (r.value_bounds(), t.value_bounds());

    // The engine's grouping: queries share a join when their `join_col`
    // and mapping are equal.
    let groups = group_workload(workload);
    let mut group_of = vec![0; workload.len()];
    let mut users_left = Vec::with_capacity(groups.len());
    for (g, (_, _, members)) in groups.iter().enumerate() {
        users_left.push(members.len());
        for q in members {
            group_of[q.index()] = g;
        }
    }
    let mut joins: Vec<Option<RecordedJoin>> = groups.iter().map(|_| None).collect();

    for qid in workload.by_priority() {
        let spec = workload.query(qid);
        let g = group_of[qid.index()];
        // The group's join runs once; every user, the first included, is
        // charged all of it, as if no query shared it.
        let recorded =
            joins[g].get_or_insert_with(|| RecordedJoin::record(r, t, spec, exec.cost_model));
        recorded.charge(&mut clock, &mut stats);
        let join = &recorded.join;
        let kernel = DomKernel::new(spec.pref, join.store.stride());
        let est = buchta_estimate(join.len().max(1) as f64, spec.pref.len());
        let mut score = QueryScore::new(spec.contract.clone(), est);
        let mut emissions = Vec::new();
        let mut results = Vec::new();
        let mut report = |i: usize, clock: &mut SimClock, stats: &mut Stats| {
            clock.charge_emits(1);
            let ts = clock.now();
            let u = score.record(ts);
            stats.record_emission(qid.index(), u);
            emissions.push((ts, u));
            results.push(join.pairs[i]);
            if S::ENABLED {
                sink.record(TraceEvent::Emission {
                    tick: clock.ticks(),
                    query: qid.0,
                    seq: results.len() as u64,
                    rid: u32::MAX,
                    tid: i as u64,
                    utility: u,
                    satisfaction: score.runtime_satisfaction(),
                });
            }
        };
        let quant = join_envelope(r_box.as_ref(), t_box.as_ref(), &spec.mapping)
            .and_then(|(lo, hi)| SigQuantizer::from_bounds(spec.pref, &lo, &hi));
        step(
            &join.store,
            &kernel,
            quant.as_ref(),
            &mut clock,
            &mut stats,
            &mut report,
        );
        per_query[qid.index()] = Some(QueryOutcome {
            query: qid,
            emissions,
            results,
            p_score: score.p_score(),
            satisfaction: score.final_satisfaction(),
        });
        users_left[g] -= 1;
        if users_left[g] == 0 {
            joins[g] = None;
        }
    }

    // Every priority slot was filled above; flatten preserves order.
    debug_assert!(per_query.iter().all(Option::is_some));
    Ok(RunOutcome {
        strategy: name.to_string(),
        per_query: per_query.into_iter().flatten().collect(),
        stats,
        virtual_seconds: clock.now(),
        wall_seconds: wall.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::jfsl::blocking_bnl;
    use crate::ssmj::presorted_sfs;
    use caqe_contract::Contract;
    use caqe_data::{Distribution, Record, TableGenerator, ValidationPolicy};
    use caqe_operators::MappingFn;
    use caqe_trace::RecordingSink;
    use caqe_types::DimMask;
    use proptest::prelude::*;

    /// `t` with a NaN planted in every seventh row, rotating the column.
    pub(crate) fn with_nan_rows(t: &Table) -> Table {
        let mut records: Vec<Record> = t.records().to_vec();
        for (i, rec) in records.iter_mut().enumerate().step_by(7) {
            let k = i % rec.vals.len();
            rec.vals[k] = f64::NAN;
        }
        Table::new(t.name(), t.dims(), t.join_cols(), records)
    }

    /// `t` with every join key moved past any key `r` holds, so nothing
    /// joins.
    fn with_foreign_keys(t: &Table) -> Table {
        let mut records: Vec<Record> = t.records().to_vec();
        for rec in &mut records {
            for key in &mut rec.keys {
                *key += 1_000;
            }
        }
        Table::new(t.name(), t.dims(), t.join_cols(), records)
    }

    /// The reference: the driver as it was before joins were shared, each
    /// query executing and being charged its own join in priority order.
    fn run_join_per_query<S: TraceSink>(
        name: &'static str,
        step: SkylineStep,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut S,
    ) -> Result<RunOutcome, EngineError> {
        let wall = Instant::now();
        let mut clock = SimClock::new(exec.cost_model);
        let mut stats = Stats::new();
        stats.ensure_queries(workload.len());
        let mut per_query: Vec<Option<QueryOutcome>> = vec![None; workload.len()];
        if S::ENABLED {
            sink.record(TraceEvent::Meta {
                strategy: name.to_string(),
                queries: workload.len(),
                ticks_per_second: exec.cost_model.ticks_per_second,
                start_tick: 0,
            });
        }

        let prep = prepare_inputs(r, t, exec, 0, sink)?;
        stats.ingest_quarantined += prep.quarantined();
        stats.ingest_clamped += prep.clamped();
        let r = prep.r_table(r);
        let t = prep.t_table(t);
        let (r_box, t_box) = (r.value_bounds(), t.value_bounds());

        for qid in workload.by_priority() {
            let spec = workload.query(qid);
            let join = hash_join_project_store(
                r.records(),
                t.records(),
                JoinSpec::on_column(spec.join_col),
                &spec.mapping,
                &mut clock,
                &mut stats,
            );
            let kernel = DomKernel::new(spec.pref, join.store.stride());
            let est = buchta_estimate(join.len().max(1) as f64, spec.pref.len());
            let mut score = QueryScore::new(spec.contract.clone(), est);
            let mut emissions = Vec::new();
            let mut results = Vec::new();
            let mut report = |i: usize, clock: &mut SimClock, stats: &mut Stats| {
                clock.charge_emits(1);
                let ts = clock.now();
                let u = score.record(ts);
                stats.record_emission(qid.index(), u);
                emissions.push((ts, u));
                results.push(join.pairs[i]);
                if S::ENABLED {
                    sink.record(TraceEvent::Emission {
                        tick: clock.ticks(),
                        query: qid.0,
                        seq: results.len() as u64,
                        rid: u32::MAX,
                        tid: i as u64,
                        utility: u,
                        satisfaction: score.runtime_satisfaction(),
                    });
                }
            };
            let quant = join_envelope(r_box.as_ref(), t_box.as_ref(), &spec.mapping)
                .and_then(|(lo, hi)| SigQuantizer::from_bounds(spec.pref, &lo, &hi));
            step(
                &join.store,
                &kernel,
                quant.as_ref(),
                &mut clock,
                &mut stats,
                &mut report,
            );
            per_query[qid.index()] = Some(QueryOutcome {
                query: qid,
                emissions,
                results,
                p_score: score.p_score(),
                satisfaction: score.final_satisfaction(),
            });
        }

        Ok(RunOutcome {
            strategy: name.to_string(),
            per_query: per_query.into_iter().flatten().collect(),
            stats,
            virtual_seconds: clock.now(),
            wall_seconds: wall.elapsed().as_secs_f64(),
        })
    }

    /// Mappings over 2 + 2 attributes: a base mapping, a value-equal clone
    /// of it, one differing from it in a single weight, and the
    /// concatenation.
    fn mapping_pool() -> Vec<MappingSet> {
        let base = MappingSet::mixed(2, 2, 3);
        let mut fns: Vec<MappingFn> = base.fns().to_vec();
        fns[1].weights_t[0] += 0.5;
        vec![
            base.clone(),
            base.clone(),
            MappingSet::new(fns),
            MappingSet::concat(2, 2),
        ]
    }

    /// `(join_col, mapping in the pool, preference bits over dims 0..3,
    /// priority, contract)` per query.
    type QueryDraw = (usize, usize, u8, f64, bool);

    fn workload(draws: &[QueryDraw]) -> Workload {
        let pool = mapping_pool();
        Workload::new(
            draws
                .iter()
                .map(|&(join_col, m, bits, priority, deadline)| QuerySpec {
                    join_col,
                    mapping: pool[m].clone(),
                    pref: DimMask::from_dims((0..3).filter(|k| bits & (1 << k) != 0)),
                    priority,
                    contract: if deadline {
                        Contract::Deadline { t_hard: 0.05 }
                    } else {
                        Contract::LogDecay
                    },
                })
                .collect(),
        )
    }

    /// Requires the driver to be the reference's run — digest, virtual
    /// seconds, `Stats`, every emission and result and every trace event —
    /// having executed one join per join group.
    fn matches_reference(step: SkylineStep, r: &Table, t: &Table, w: &Workload, exec: &ExecConfig) {
        JOINS_RUN.with(|n| n.set(0));
        let mut trace = RecordingSink::default();
        let shared = run_per_query("JFSL", step, r, t, w, exec, &mut trace).unwrap();
        let joins = JOINS_RUN.with(std::cell::Cell::get);
        let mut reference_trace = RecordingSink::default();
        let reference =
            run_join_per_query("JFSL", step, r, t, w, exec, &mut reference_trace).unwrap();

        assert_eq!(joins, group_workload(w).len(), "joins executed");
        assert_eq!(shared.digest(), reference.digest());
        assert_eq!(
            shared.virtual_seconds.to_bits(),
            reference.virtual_seconds.to_bits()
        );
        assert_eq!(shared.stats, reference.stats);
        assert_eq!(shared.per_query.len(), reference.per_query.len());
        for (a, b) in shared.per_query.iter().zip(&reference.per_query) {
            assert_eq!(a.emissions, b.emissions);
            assert_eq!(a.results, b.results);
        }
        assert_eq!(trace.events(), reference_trace.events());
    }

    /// Both steps, JFSL's and SSMJ's.
    fn both_steps_match_reference(r: &Table, t: &Table, w: &Workload, exec: &ExecConfig) {
        for step in [blocking_bnl as SkylineStep, presorted_sfs] {
            matches_reference(step, r, t, w, exec);
        }
    }

    /// `indep_churn`'s shape: two groups, each with a query at 0.8 and one
    /// at 0.4, so both joins are live while the other group runs.
    #[test]
    fn interleaved_groups_match_the_reference() {
        let gen = TableGenerator::new(60, 2, Distribution::Independent)
            .with_selectivities(&[0.1, 0.25])
            .with_seed(7);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let w = workload(&[
            (0, 0, 0b011, 0.8, false),
            (1, 3, 0b101, 0.8, true),
            (0, 1, 0b110, 0.4, false),
            (1, 3, 0b011, 0.4, true),
        ]);
        both_steps_match_reference(&r, &t, &w, &ExecConfig::default());
    }

    fn query_draw() -> impl Strategy<Value = QueryDraw> {
        (
            0..2usize,
            0..4usize,
            1..8u8,
            (0..3usize).prop_map(|i| [0.8, 0.6, 0.4][i]),
            any::<bool>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Shared joins are the reference's run on workloads of one to eight
        /// queries, for both steps, on plain tables, a join with no result
        /// and NaN rows under `Clamp` and `Quarantine`.
        #[test]
        fn shared_joins_match_the_join_per_query_reference(
            seed in any::<u64>(),
            n in 8..50usize,
            dist in (0..3usize).prop_map(|i| [
                Distribution::Independent,
                Distribution::Correlated,
                Distribution::Anticorrelated,
            ][i]),
            draws in proptest::collection::vec(query_draw(), 1..=8),
            variant in 0..4u8,
        ) {
            let gen = TableGenerator::new(n, 2, dist)
                .with_selectivities(&[0.1, 0.25])
                .with_seed(seed);
            let (mut r, mut t) = (gen.generate("R"), gen.generate("T"));
            let mut exec = ExecConfig::default();
            match variant {
                0 => {}
                1 => t = with_foreign_keys(&t),
                _ => {
                    (r, t) = (with_nan_rows(&r), with_nan_rows(&t));
                    let policy = if variant == 2 {
                        ValidationPolicy::Clamp
                    } else {
                        ValidationPolicy::Quarantine
                    };
                    exec = exec.with_validation(policy);
                }
            }
            both_steps_match_reference(&r, &t, &workload(&draws), &exec);
        }
    }
}
