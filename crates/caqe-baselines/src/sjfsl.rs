//! S-JFSL: the sharing-based strawman the paper introduces for comparison —
//! the min-max-cuboid shared plan with blind pipelining (§7.1).

use caqe_core::{EngineConfig, ExecConfig, ExecutionStrategy, RunOutcome, RunRequest, Workload};
use caqe_data::Table;
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::EngineError;

/// S-JFSL pipelines every join tuple through the shared min-max-cuboid plan
/// in FIFO cell-pair order. It enjoys the shared plan's reduction in join
/// and skyline work, but with no output look-ahead, no contract-driven
/// ordering, no dominance-based discarding and no feedback — isolating the
/// value of CAQE's optimizer from the value of plan sharing.
#[derive(Debug, Clone, Default)]
pub struct SJfslStrategy;

impl ExecutionStrategy for SJfslStrategy {
    fn name(&self) -> &'static str {
        "S-JFSL"
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        RunRequest::new(self.name(), r, t, workload, exec, &EngineConfig::s_jfsl())
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
        RunRequest::new(self.name(), r, t, workload, exec, &EngineConfig::s_jfsl()).try_run(sink)
    }
}
