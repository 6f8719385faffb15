//! The execution-strategy abstraction the experiment harness compares, and
//! the one strategy every engine-backed system is a value of.

use crate::config::{EngineConfig, ExecConfig};
use crate::engine::RunRequest;
use crate::outcome::{QueryOutcome, RunOutcome};
use crate::workload::Workload;
use caqe_data::Table;
use caqe_trace::{NoopSink, RecordingSink, TraceEvent, TraceSink};
use caqe_types::{EngineError, PerQueryStats, Stats};
use std::time::Instant;

/// A technique that executes a whole workload over a pair of base tables —
/// CAQE itself or any of the paper's competitors (§7.1).
pub trait ExecutionStrategy {
    /// Display name used in experiment output ("CAQE", "JFSL", …).
    fn name(&self) -> &'static str;

    /// Executes the workload and reports the outcome, or a typed error —
    /// e.g. corrupt input under the `Reject` validation policy.
    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError>;

    /// [`ExecutionStrategy::try_run`] while recording a deterministic trace.
    ///
    /// Takes the concrete [`RecordingSink`] (rather than a generic
    /// `impl TraceSink`) so the trait stays object-safe — the harness
    /// compares strategies through `Box<dyn ExecutionStrategy>`.
    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError>;

    /// Infallible [`ExecutionStrategy::try_run`], panicking on ingestion
    /// failure — the historical interface, kept for harness call sites
    /// that never enable fault plans.
    fn run(&self, r: &Table, t: &Table, workload: &Workload, exec: &ExecConfig) -> RunOutcome {
        match self.try_run(r, t, workload, exec) {
            Ok(outcome) => outcome,
            Err(e) => panic!("strategy {} failed: {e}", self.name()),
        }
    }
}

/// The shared engine under one [`EngineConfig`], run over the whole
/// workload at once or one query at a time. CAQE, S-JFSL, ProgXe+ and
/// every ablation variant are values of this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStrategy {
    /// Display name in the outcome and the trace's `Meta`.
    pub name: &'static str,
    /// The engine's configuration.
    pub engine: EngineConfig,
    /// Run each query alone, in priority order, on one continuous clock,
    /// instead of the whole workload in one shared run. Partitioning,
    /// regions and join work are then rebuilt per query, ingestion
    /// included: each sub-run validates afresh (the fault plan is
    /// deterministic, so every sub-run sees the same input).
    pub one_at_a_time: bool,
}

impl EngineStrategy {
    /// The full CAQE framework.
    pub const CAQE: Self = EngineStrategy {
        name: "CAQE",
        engine: EngineConfig::caqe(),
        one_at_a_time: false,
    };

    /// S-JFSL, the paper's sharing-based strawman (§7.1): every join tuple
    /// is pipelined through the shared min-max-cuboid plan in FIFO
    /// cell-pair order. It enjoys the shared plan's reduction in join and
    /// skyline work, but with no output look-ahead, no contract-driven
    /// ordering, no dominance-based discarding and no feedback — isolating
    /// the value of CAQE's optimizer from the value of plan sharing.
    pub const S_JFSL: Self = EngineStrategy {
        name: "S-JFSL",
        engine: EngineConfig::s_jfsl(),
        one_at_a_time: false,
    };

    /// ProgXe+ [27]: one query at a time, in priority order, with the
    /// output-space region machinery — look-ahead pruning,
    /// dependency-driven ordering and safe progressive emission — but
    /// picking regions by estimated output count per unit cost, knowing
    /// nothing about contracts or other queries, and sharing nothing.
    pub const PROGXE: Self = EngineStrategy {
        name: "ProgXe+",
        engine: EngineConfig::progxe_core(),
        one_at_a_time: true,
    };

    /// Both trait entry points: `sink` is [`NoopSink`] or the caller's
    /// [`RecordingSink`].
    fn run_with<S: TraceSink>(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut S,
    ) -> Result<RunOutcome, EngineError> {
        if !self.one_at_a_time {
            return RunRequest::new(self.name, r, t, workload, exec, &self.engine).try_run(sink);
        }
        let wall = Instant::now();
        let mut per_query: Vec<Option<QueryOutcome>> = vec![None; workload.len()];
        let mut stats = Stats::new();
        stats.ensure_queries(workload.len());
        let mut ticks: u64 = 0;
        let mut virtual_seconds = 0.0;
        if S::ENABLED {
            sink.record(TraceEvent::Meta {
                strategy: self.name.to_string(),
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
                RunRequest::new(self.name, r, t, &single, exec, &self.engine).start_ticks(ticks);
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
            strategy: self.name.to_string(),
            per_query: per_query.into_iter().flatten().collect(),
            stats,
            virtual_seconds,
            wall_seconds: wall.elapsed().as_secs_f64(),
        })
    }
}

impl ExecutionStrategy for EngineStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        self.run_with(r, t, workload, exec, &mut NoopSink)
    }

    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError> {
        self.run_with(r, t, workload, exec, sink)
    }
}
