//! The execution-strategy abstraction the experiment harness compares.

use crate::config::{EngineConfig, ExecConfig};
use crate::engine::RunRequest;
use crate::outcome::RunOutcome;
use crate::workload::Workload;
use caqe_data::Table;
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::EngineError;

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

    /// Infallible [`ExecutionStrategy::try_run_traced`]; see
    /// [`ExecutionStrategy::run`].
    fn run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> RunOutcome {
        match self.try_run_traced(r, t, workload, exec, sink) {
            Ok(outcome) => outcome,
            Err(e) => panic!("strategy {} failed: {e}", self.name()),
        }
    }
}

/// The full CAQE framework.
#[derive(Debug, Clone, Default)]
pub struct CaqeStrategy;

impl ExecutionStrategy for CaqeStrategy {
    fn name(&self) -> &'static str {
        "CAQE"
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        RunRequest::new(self.name(), r, t, workload, exec, &EngineConfig::caqe())
            .try_run(&mut NoopSink)
    }

    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError> {
        RunRequest::new(self.name(), r, t, workload, exec, &EngineConfig::caqe()).try_run(sink)
    }
}
