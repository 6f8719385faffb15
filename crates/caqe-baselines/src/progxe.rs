//! ProgXe+ [27]: per-query progressive result generation over a partitioned
//! output space, count-driven rather than contract-driven.

use caqe_core::{
    EngineConfig, ExecConfig, ExecutionStrategy, QueryOutcome, RunOutcome, RunRequest, Workload,
};
use caqe_data::Table;
use caqe_trace::{NoopSink, RecordingSink, TraceEvent, TraceSink};
use caqe_types::{EngineError, PerQueryStats, Stats};
use std::time::Instant;

/// ProgXe+ processes one query at a time (priority order) with the
/// output-space region machinery — look-ahead pruning, dependency-driven
/// ordering and safe progressive emission — but picks regions by estimated
/// output count per unit cost and knows nothing about contracts or other
/// queries. Partitioning, regions and join work are all rebuilt per query:
/// no sharing — including ingestion, which each sub-run validates afresh
/// (the fault plan is deterministic, so every sub-run sees the same input).
#[derive(Debug, Clone, Default)]
pub struct ProgXeStrategy;

impl ProgXeStrategy {
    fn run_impl<S: TraceSink>(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut S,
    ) -> Result<RunOutcome, EngineError> {
        let wall = Instant::now();
        let engine = EngineConfig::progxe_core();
        let mut per_query: Vec<Option<QueryOutcome>> = vec![None; workload.len()];
        let mut stats = Stats::new();
        stats.ensure_queries(workload.len());
        let mut ticks: u64 = 0;
        let mut virtual_seconds = 0.0;
        if S::ENABLED {
            sink.record(TraceEvent::Meta {
                strategy: self.name().to_string(),
                queries: workload.len(),
                ticks_per_second: exec.cost_model.ticks_per_second,
                start_tick: 0,
            });
        }

        for qid in workload.by_priority() {
            let spec = workload.query(qid).clone();
            let single = Workload::new(vec![spec]);
            // Continue the shared timeline: query k starts when k−1 ends.
            // The sub-run records into its own sink; its events are rebased
            // from the sub-workload's local query 0 to the real query id
            // before joining the outer stream.
            let request =
                RunRequest::new(self.name(), r, t, &single, exec, &engine).start_ticks(ticks);
            let mut sub = if S::ENABLED {
                let mut sub_sink = RecordingSink::new();
                let out = request.try_run(&mut sub_sink)?;
                for mut ev in sub_sink.into_events() {
                    match &mut ev {
                        // The outer Meta already describes the whole run.
                        TraceEvent::Meta { .. } => continue,
                        TraceEvent::Emission { query, .. } => *query = qid.0,
                        _ => {}
                    }
                    sink.record(ev);
                }
                out
            } else {
                request.try_run(&mut NoopSink)?
            };
            ticks = (sub.virtual_seconds * exec.cost_model.ticks_per_second).round() as u64;
            virtual_seconds = sub.virtual_seconds;
            // The sub-run credits its emissions to local query 0; move them
            // to the real slot before the flat counters merge.
            let mut sub_pq = PerQueryStats::default();
            for pq in sub.stats.per_query.drain(..) {
                sub_pq += pq;
            }
            stats += sub.stats;
            stats.per_query[qid.index()] += sub_pq;
            let Some(mut outcome) = sub.per_query.into_iter().next() else {
                return Err(EngineError::InvalidWorkload {
                    reason: "single-query sub-run returned no outcome".to_string(),
                });
            };
            outcome.query = qid;
            per_query[qid.index()] = Some(outcome);
        }

        // Every priority slot was filled above; flatten preserves order.
        debug_assert!(per_query.iter().all(Option::is_some));
        Ok(RunOutcome {
            strategy: self.name().to_string(),
            per_query: per_query.into_iter().flatten().collect(),
            stats,
            virtual_seconds,
            wall_seconds: wall.elapsed().as_secs_f64(),
        })
    }
}

impl ExecutionStrategy for ProgXeStrategy {
    fn name(&self) -> &'static str {
        "ProgXe+"
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        self.run_impl(r, t, workload, exec, &mut NoopSink)
    }

    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError> {
        self.run_impl(r, t, workload, exec, sink)
    }
}
