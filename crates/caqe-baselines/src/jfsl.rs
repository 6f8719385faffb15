//! JFSL [17]: join-first, skyline-later — the blocking, non-shared baseline.
//!
//! BNL's only state is its window, so JFSL's group pass never materialises
//! the join: the join hands its rows, [`BLOCK`] at a time, to every user's
//! [`BnlWindow`], each user taking a whole block before the next does.
//! Each window keeps its members' `(rid, tid)` beside it and ends with its
//! comparison total; each query's replay charges that total and then one
//! emission per member in ascending join index. Ticks are integers and
//! add, so every emission tick is where BNL over the materialised join,
//! charging chunk by chunk, puts it.

use crate::per_query::{run_per_query, GroupJoin, GroupSkyline, RecordedJoin, Report, User};
use caqe_core::{ExecConfig, ExecutionStrategy, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::{BnlWindow, JoinSink};
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::{EngineError, PointStore, SimClock, Stats, Value};

/// Join-first-skyline-later: per query (priority order), take the entire
/// join, run a blocking BNL skyline, and only then report every result.
/// The worst progressiveness profile. The join is executed once per join
/// group and charged per query, so the virtual clock still sees the most
/// repeated work — every query pays for its whole join, as if nothing were
/// shared — and the deadlines it calibrates do not depend on the reuse.
#[derive(Debug, Clone, Default)]
pub struct JfslStrategy;

/// Join rows per block handed to the windows: large enough that a user
/// screens many 64-row chunks straight from the block, small enough that
/// the block stays in cache while every user reads it.
pub(crate) const BLOCK: usize = 4096;

/// One user's BNL, ended: its comparison total and its skyline's
/// `(join index, (rid, tid))` members in ascending join index.
pub(crate) type BnlSkyline = (u64, Vec<(usize, (u64, u64))>);

/// The join's rows in blocks of [`BLOCK`], each handed whole to every
/// window before the next one fills.
struct Blocks<'w, 'k> {
    pairs: Vec<(u64, u64)>,
    rows: PointStore,
    windows: &'w mut [BnlWindow<'k, (u64, u64)>],
}

impl Blocks<'_, '_> {
    fn flush(&mut self) {
        for window in self.windows.iter_mut() {
            window.feed(self.rows.as_flat(), &self.pairs);
        }
        self.pairs.clear();
        self.rows.clear();
    }
}

impl JoinSink for Blocks<'_, '_> {
    #[inline]
    fn push(&mut self, rid: u64, tid: u64, point: impl FnOnce(&mut Vec<Value>)) {
        self.pairs.push((rid, tid));
        self.rows.push_with(point);
        if self.pairs.len() == BLOCK {
            self.flush();
        }
    }
}

/// Blocking BNL: the group's join streams through every user's window,
/// screened with the user's quantizer, which moves no charge; nothing is
/// reported until a user's BNL completes.
impl GroupSkyline for JfslStrategy {
    type Pass = Vec<BnlSkyline>;

    fn pass(join: &GroupJoin<'_>, users: &[User]) -> (RecordedJoin, Self::Pass) {
        let stride = join.stride();
        let mut windows: Vec<BnlWindow<'_, (u64, u64)>> = users
            .iter()
            .map(|u| BnlWindow::new(&u.kernel, u.quant.as_ref(), stride))
            .collect();
        let mut blocks = Blocks {
            pairs: Vec::with_capacity(BLOCK),
            rows: PointStore::with_capacity(stride, BLOCK),
            windows: &mut windows,
        };
        let recorded = join.run(&mut blocks);
        blocks.flush();
        (
            recorded,
            windows.into_iter().map(BnlWindow::finish).collect(),
        )
    }

    fn replay(
        pass: &Self::Pass,
        _users: &[User],
        u: usize,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    ) {
        let (cmps, members) = &pass[u];
        clock.charge_dom_cmps(*cmps);
        stats.dom_comparisons += cmps;
        for &(i, pair) in members {
            report(i, pair, clock, stats);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per_query::join_envelope;
    use crate::per_query::tests::with_nan_rows;
    use caqe_contract::Contract;
    use caqe_core::{prepare_inputs, QuerySpec};
    use caqe_data::{Distribution, TableGenerator, ValidationPolicy};
    use caqe_operators::{hash_join_project_store, JoinSpec, MappingSet};
    use caqe_types::{DimMask, SigQuantizer};

    /// JFSL with BNL's walk unscreened, whatever the driver passes.
    struct UnscreenedJfsl;

    impl GroupSkyline for UnscreenedJfsl {
        type Pass = Vec<BnlSkyline>;

        fn pass(join: &GroupJoin<'_>, users: &[User]) -> (RecordedJoin, Self::Pass) {
            let bare: Vec<User> = users
                .iter()
                .map(|u| User {
                    kernel: u.kernel.clone(),
                    quant: None,
                })
                .collect();
            JfslStrategy::pass(join, &bare)
        }

        fn replay(
            pass: &Self::Pass,
            users: &[User],
            u: usize,
            clock: &mut SimClock,
            stats: &mut Stats,
            report: &mut Report<'_>,
        ) {
            JfslStrategy::replay(pass, users, u, clock, stats, report);
        }
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
            run_per_query::<JfslStrategy, _>("JFSL", r, t, w, exec, &mut screened_trace).unwrap();
        let mut plain_trace = RecordingSink::default();
        let plain =
            run_per_query::<UnscreenedJfsl, _>("JFSL", r, t, w, exec, &mut plain_trace).unwrap();
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
