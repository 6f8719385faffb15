//! JFSL [17]: join-first, skyline-later — the blocking, non-shared baseline.

use crate::per_query::{run_per_query, Report};
use caqe_core::{ExecConfig, ExecutionStrategy, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::skyline_bnl_store;
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::{DomKernel, EngineError, PointStore, SigQuantizer, SimClock, Stats};

/// Join-first-skyline-later: per query (priority order), take the entire
/// join, run a blocking BNL skyline, and only then report every result.
/// The worst progressiveness profile. The join is executed once per join
/// group and charged per query, so the virtual clock still sees the most
/// repeated work — every query pays for its whole join, as if nothing were
/// shared — and the deadlines it calibrates do not depend on the reuse.
#[derive(Debug, Clone, Default)]
pub struct JfslStrategy;

/// Blocking skyline: nothing is reported until BNL completes. BNL's walk
/// screens with the driver's quantizer, which moves no charge.
pub(crate) fn blocking_bnl(
    store: &PointStore,
    kernel: &DomKernel,
    quant: Option<&SigQuantizer>,
    clock: &mut SimClock,
    stats: &mut Stats,
    report: &mut Report<'_>,
) {
    for i in skyline_bnl_store(store, kernel, quant, clock, stats) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per_query::join_envelope;
    use crate::per_query::tests::with_nan_rows;
    use caqe_contract::Contract;
    use caqe_core::{prepare_inputs, QuerySpec};
    use caqe_data::{Distribution, TableGenerator, ValidationPolicy};
    use caqe_operators::{hash_join_project_store, JoinSpec, MappingSet};
    use caqe_types::DimMask;

    /// JFSL with BNL's walk unscreened, whatever the driver passes.
    fn unscreened_bnl(
        store: &PointStore,
        kernel: &DomKernel,
        _quant: Option<&SigQuantizer>,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    ) {
        blocking_bnl(store, kernel, None, clock, stats, report);
    }

    /// Anticorrelated 3-attribute tables mapped to a 5-dim output space,
    /// queried on the full space and two subspaces: skylines of ~800, ~140
    /// and 4 members.
    fn anti_5d() -> (Table, Table, Workload) {
        let gen = TableGenerator::new(220, 3, Distribution::Anticorrelated)
            .with_selectivities(&[0.1])
            .with_seed(0x5EED);
        let mapping = MappingSet::mixed(3, 3, 5);
        let prefs = [
            (DimMask::full(5), 0.9),
            (DimMask::from_dims([0, 2, 4]), 0.6),
            (DimMask::from_dims([1, 3]), 0.3),
        ];
        let w = Workload::new(
            prefs
                .iter()
                .map(|&(pref, priority)| QuerySpec {
                    join_col: 0,
                    mapping: mapping.clone(),
                    pref,
                    priority,
                    contract: Contract::LogDecay,
                })
                .collect(),
        );
        (gen.generate("R"), gen.generate("T"), w)
    }

    /// JFSL screened and unscreened must be the same run — outcome digest,
    /// virtual time, `Stats` (with no signature build counted), every
    /// emission and every trace event — and the envelope the driver screens
    /// with must hold every join result it screens.
    fn screen_moves_nothing(r: &Table, t: &Table, w: &Workload, exec: &ExecConfig) {
        let mut screened_trace = RecordingSink::default();
        let screened =
            run_per_query("JFSL", blocking_bnl, r, t, w, exec, &mut screened_trace).unwrap();
        let mut plain_trace = RecordingSink::default();
        let plain = run_per_query("JFSL", unscreened_bnl, r, t, w, exec, &mut plain_trace).unwrap();
        assert_eq!(screened.digest(), plain.digest());
        assert_eq!(
            screened.virtual_seconds.to_bits(),
            plain.virtual_seconds.to_bits()
        );
        assert_eq!(screened.stats, plain.stats);
        assert_eq!(screened.stats.sig_builds, 0);
        for (a, b) in screened.per_query.iter().zip(&plain.per_query) {
            assert_eq!(a.emissions, b.emissions);
            assert_eq!(a.results, b.results);
        }
        assert_eq!(screened_trace.events(), plain_trace.events());

        let prep = prepare_inputs(r, t, exec, 0, &mut NoopSink).unwrap();
        let (r, t) = (prep.r_table(r), prep.t_table(t));
        let (r_box, t_box) = (r.value_bounds(), t.value_bounds());
        for spec in w.queries() {
            let (lo, hi) = join_envelope(r_box.as_ref(), t_box.as_ref(), &spec.mapping).unwrap();
            assert!(SigQuantizer::from_bounds(spec.pref, &lo, &hi).is_some());
            let join = hash_join_project_store(
                r.records(),
                t.records(),
                JoinSpec::on_column(spec.join_col),
                &spec.mapping,
                &mut SimClock::default(),
                &mut Stats::new(),
            );
            assert!(!join.store.is_empty());
            for i in 0..join.len() {
                for (k, &v) in join.store.at(i).iter().enumerate() {
                    assert!(
                        lo[k] <= v && v <= hi[k],
                        "result {i} leaves the envelope in {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn screened_bnl_is_the_same_run_on_anticorrelated_5d() {
        let (r, t, w) = anti_5d();
        screen_moves_nothing(&r, &t, &w, &ExecConfig::default());
    }

    #[test]
    fn screened_bnl_is_the_same_run_on_nan_rows_under_both_policies() {
        let (r, t, w) = anti_5d();
        let (r, t) = (with_nan_rows(&r), with_nan_rows(&t));
        for policy in [ValidationPolicy::Clamp, ValidationPolicy::Quarantine] {
            let exec = ExecConfig::default().with_validation(policy);
            let prep = prepare_inputs(&r, &t, &exec, 0, &mut NoopSink).unwrap();
            assert!(
                prep.quarantined() + prep.clamped() > 0,
                "{policy:?}: no row was repaired"
            );
            screen_moves_nothing(&r, &t, &w, &exec);
        }
    }
}
