//! JFSL [17]: join-first, skyline-later — the blocking, non-shared baseline.

use crate::per_query::{run_per_query, Report};
use caqe_core::{ExecConfig, ExecutionStrategy, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::skyline_bnl_store;
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::{DomKernel, EngineError, PointStore, SimClock, Stats};

/// Join-first-skyline-later: per query (priority order), materialize the
/// entire join, run a blocking BNL skyline, and only then report every
/// result. The worst progressiveness profile, and — with no sharing — the
/// most repeated work.
#[derive(Debug, Clone, Default)]
pub struct JfslStrategy;

/// Blocking skyline: nothing is reported until BNL completes.
fn blocking_bnl(
    store: &PointStore,
    kernel: &DomKernel,
    clock: &mut SimClock,
    stats: &mut Stats,
    report: &mut Report<'_>,
) {
    for i in skyline_bnl_store(store, kernel, clock, stats) {
        report(i, clock, stats);
    }
}

impl ExecutionStrategy for JfslStrategy {
    fn name(&self) -> &'static str {
        "JFSL"
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        run_per_query(
            self.name(),
            blocking_bnl,
            r,
            t,
            workload,
            exec,
            &mut NoopSink,
        )
    }

    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError> {
        run_per_query(self.name(), blocking_bnl, r, t, workload, exec, sink)
    }
}
