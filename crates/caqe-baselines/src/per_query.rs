//! The driver JFSL and SSMJ share: per query in priority order, a full
//! non-shared join, one skyline step, and an emission per reported result.
//! The two baselines differ only in that step.

use caqe_contract::QueryScore;
use caqe_core::{prepare_inputs, ExecConfig, QueryOutcome, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::{hash_join_project_store, JoinSpec, MappingSet};
use caqe_regions::buchta_estimate;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{DomKernel, EngineError, PointStore, Rect, SigQuantizer, SimClock, Stats, Value};
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

/// Runs `workload` one query at a time with no sharing: per query the
/// whole join lands in a flat point store, `step` computes its skyline,
/// and every reported result is charged one emit and scored against the
/// query's contract.
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

    for qid in workload.by_priority() {
        let spec = workload.query(qid);
        // Full join, repeated per query: no shared sub-expressions.
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
