//! SSMJ [14]: sort-based skyline-over-join — progressive but non-shared.

use crate::per_query::{run_per_query, GroupJoin, GroupSkyline, RecordedJoin, Report, User};
use caqe_core::{ExecConfig, ExecutionStrategy, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::{skyline_sfs_store_each, JoinOutput};
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::{EngineError, PointStore, SimClock, Stats};

/// Skyline-Sort-Merge-Join: per query (priority order), take the join, sort
/// it by the monotone sum over the preference dimensions, and filter
/// SFS-style. Once sorted, every admitted survivor is final and is emitted
/// immediately — progressive within a query, with the full sort paid
/// upfront. The join is executed once per join group and charged per
/// query, so no query's charge shares work with another's.
#[derive(Debug, Clone, Default)]
pub struct SsmjStrategy;

/// Presorted SFS with immediate emission of every survivor, over the
/// group's join kept whole: its pass fills one store, which every user's
/// replay sorts and filters. The SFS filter has no signature skip yet, so
/// the users' quantizers go unused.
impl GroupSkyline for SsmjStrategy {
    type Pass = JoinOutput;

    fn pass(join: &GroupJoin<'_>, _users: &[User]) -> (RecordedJoin, Self::Pass) {
        let mut out = JoinOutput {
            pairs: Vec::new(),
            store: PointStore::new(join.stride()),
        };
        let recorded = join.run(&mut out);
        (recorded, out)
    }

    fn replay(
        out: &Self::Pass,
        users: &[User],
        u: usize,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    ) {
        // The sort costs m·log m comparisons of clock time upfront (sort
        // comparisons, not dominance comparisons, so they advance the clock
        // but not the CPU metric — matching what the paper measures in
        // Fig. 10.b). The filter's own presort is uncharged, so charging
        // here first puts every survivor's emission tick after the whole
        // sort.
        let m = out.len();
        if m > 1 {
            let sort_cost = (m as f64 * (m as f64).log2()).ceil() as u64;
            clock.charge_sort_cmps(sort_cost);
        }
        skyline_sfs_store_each(&out.store, &users[u].kernel, clock, stats, |i, c, s| {
            report(i, out.pairs[i], c, s)
        });
    }
}

impl ExecutionStrategy for SsmjStrategy {
    fn name(&self) -> &'static str {
        "SSMJ"
    }

    fn try_run(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
    ) -> Result<RunOutcome, EngineError> {
        run_per_query::<Self, _>(self.name(), r, t, workload, exec, &mut NoopSink)
    }

    fn try_run_traced(
        &self,
        r: &Table,
        t: &Table,
        workload: &Workload,
        exec: &ExecConfig,
        sink: &mut RecordingSink,
    ) -> Result<RunOutcome, EngineError> {
        run_per_query::<Self, _>(self.name(), r, t, workload, exec, sink)
    }
}
