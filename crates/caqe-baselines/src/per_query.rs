//! The driver JFSL and SSMJ share: per join group — the queries sharing
//! `(join_col, mapping)` — one pass of the join feeding every user's
//! skyline; per query, in priority order, a replay of what that query
//! would have charged alone: the whole join, its skyline's work, and an
//! emission per reported result. The two baselines differ only in the
//! group's pass and the replay ([`GroupSkyline`]).
//!
//! The join's ticks and counters are recorded once and replayed to every
//! user, so each query still pays for the whole join as if it had joined
//! alone (DESIGN.md §9 item 8). JFSL's pass streams the join through every
//! user's BNL window in blocks and never materialises it; SSMJ's presorted
//! SFS needs every row at once, so its pass fills one store, kept until
//! the group's last user has run.

use caqe_contract::QueryScore;
use caqe_core::group::group_workload;
use caqe_core::{prepare_inputs, ExecConfig, QueryOutcome, QuerySpec, RunOutcome, Workload};
use caqe_data::Table;
use caqe_operators::{hash_join_project_into, JoinSink, JoinSpec, MappingSet};
use caqe_regions::buchta_estimate;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{
    CostModel, DomKernel, EngineError, Rect, SigQuantizer, SimClock, Stats, Ticks, Value,
};
use std::time::Instant;

/// Reports one skyline result, by join-output index and `(rid, tid)`, the
/// moment the baseline makes it visible.
pub(crate) type Report<'a> = dyn FnMut(usize, (u64, u64), &mut SimClock, &mut Stats) + 'a;

/// One query's skyline over its group's join: its kernel over the join's
/// output space and, when there is one, a quantizer built for its subspace
/// over a box holding every join result ([`join_envelope`]). A baseline may
/// screen with the quantizer or ignore it.
pub(crate) struct User {
    pub(crate) kernel: DomKernel,
    pub(crate) quant: Option<SigQuantizer>,
}

impl User {
    fn new(spec: &QuerySpec, envelope: Option<&(Vec<Value>, Vec<Value>)>) -> Self {
        User {
            kernel: DomKernel::new(spec.pref, spec.mapping.output_dims()),
            quant: envelope.and_then(|(lo, hi)| SigQuantizer::from_bounds(spec.pref, lo, hi)),
        }
    }
}

/// A baseline's skylines over one join group.
pub(crate) trait GroupSkyline {
    /// What the group's pass leaves for its users' replays.
    type Pass;

    /// Executes the group's join once ([`GroupJoin::run`]), computing or
    /// preparing the skyline of every one of its `users`.
    fn pass(join: &GroupJoin<'_>, users: &[User]) -> (RecordedJoin, Self::Pass);

    /// Charges `users[u]` its skyline's work and reports its results in the
    /// order the baseline emits them.
    fn replay(
        pass: &Self::Pass,
        users: &[User],
        u: usize,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    );
}

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
    /// The sink type of every join executed on this thread, so tests can
    /// hold the driver to one join per group and JFSL to no stored join.
    pub(crate) static JOIN_SINKS: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One join group's join, as its pass executes it.
pub(crate) struct GroupJoin<'a> {
    r: &'a Table,
    t: &'a Table,
    spec: JoinSpec,
    mapping: &'a MappingSet,
    model: CostModel,
}

impl GroupJoin<'_> {
    /// Values per output-space row.
    pub(crate) fn stride(&self) -> usize {
        self.mapping.output_dims()
    }

    /// Executes the join against a zero clock and fresh counters, handing
    /// every result to `sink`, and returns what it charged.
    pub(crate) fn run<J: JoinSink>(&self, sink: &mut J) -> RecordedJoin {
        #[cfg(test)]
        JOIN_SINKS.with(|s| s.borrow_mut().push(std::any::type_name::<J>()));
        let mut clock = SimClock::new(self.model);
        let mut stats = Stats::new();
        hash_join_project_into(
            self.r.records(),
            self.t.records(),
            self.spec,
            self.mapping,
            &mut clock,
            &mut stats,
            sink,
        );
        RecordedJoin {
            ticks: clock.ticks(),
            stats,
        }
    }
}

/// What one join group's join charged, recorded once: the
/// record-then-replay shape of `GroupMemo` (DESIGN.md §19). Join charges
/// are integer ticks and three additive counters, so replaying them leaves
/// the clock and `Stats` where running the join again would.
pub(crate) struct RecordedJoin {
    ticks: Ticks,
    stats: Stats,
}

impl RecordedJoin {
    /// Number of join results.
    fn len(&self) -> usize {
        self.stats.join_results as usize
    }

    /// Charges one user the whole join.
    fn charge(&self, clock: &mut SimClock, stats: &mut Stats) {
        clock.advance(self.ticks);
        *stats += self.stats.clone();
    }
}

/// A join group's pass and its users, live from the group's first user in
/// priority order until its last.
struct Group<P> {
    join: RecordedJoin,
    users: Vec<User>,
    pass: P,
}

/// Runs `workload` one query at a time in priority order, each query's
/// skyline computed by `K` from its join group's one pass, and every
/// reported result charged one emit and scored against the query's
/// contract. A group's pass runs for its first user and is dropped after
/// its last; every user, the first included, is charged the whole join.
pub(crate) fn run_per_query<K: GroupSkyline, S: TraceSink>(
    name: &'static str,
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
    // and mapping are equal. `slot[q]` is query `q`'s group and its place
    // among the group's users.
    let groups = group_workload(workload);
    let mut slot = vec![(0, 0); workload.len()];
    let mut users_left = Vec::with_capacity(groups.len());
    for (g, (_, _, members)) in groups.iter().enumerate() {
        users_left.push(members.len());
        for (u, q) in members.iter().enumerate() {
            slot[q.index()] = (g, u);
        }
    }
    let mut live: Vec<Option<Group<K::Pass>>> = groups.iter().map(|_| None).collect();

    for qid in workload.by_priority() {
        let spec = workload.query(qid);
        let (g, u) = slot[qid.index()];
        let group = live[g].get_or_insert_with(|| {
            let (join_col, mapping, members) = &groups[g];
            let envelope = join_envelope(r_box.as_ref(), t_box.as_ref(), mapping);
            let users: Vec<User> = members
                .iter()
                .map(|&q| User::new(workload.query(q), envelope.as_ref()))
                .collect();
            let join = GroupJoin {
                r,
                t,
                spec: JoinSpec::on_column(*join_col),
                mapping,
                model: exec.cost_model,
            };
            let (join, pass) = K::pass(&join, &users);
            Group { join, users, pass }
        });
        group.join.charge(&mut clock, &mut stats);
        let est = buchta_estimate(group.join.len().max(1) as f64, spec.pref.len());
        let mut score = QueryScore::new(spec.contract.clone(), est);
        let mut emissions = Vec::new();
        let mut results = Vec::new();
        let mut report = |i: usize, pair: (u64, u64), clock: &mut SimClock, stats: &mut Stats| {
            clock.charge_emits(1);
            let ts = clock.now();
            let u = score.record(ts);
            stats.record_emission(qid.index(), u);
            emissions.push((ts, u));
            results.push(pair);
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
        K::replay(
            &group.pass,
            &group.users,
            u,
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
            live[g] = None;
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
    use crate::{JfslStrategy, SsmjStrategy};
    use caqe_contract::Contract;
    use caqe_data::{Distribution, Record, TableGenerator, ValidationPolicy};
    use caqe_operators::{hash_join_project_store, skyline_bnl_store, JoinOutput, MappingFn};
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

    /// A reference baseline's skyline over one query's materialised join.
    type ReferenceStep = fn(&JoinOutput, &User, &mut SimClock, &mut Stats, &mut Report<'_>);

    /// JFSL's reference: BNL over the whole store, charged as it runs, then
    /// every result reported in ascending join index.
    fn bnl_reference(
        out: &JoinOutput,
        user: &User,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    ) {
        for i in skyline_bnl_store(&out.store, &user.kernel, user.quant.as_ref(), clock, stats) {
            report(i, out.pairs[i], clock, stats);
        }
    }

    /// SSMJ's reference: its replay over the query's own store.
    fn sfs_reference(
        out: &JoinOutput,
        user: &User,
        clock: &mut SimClock,
        stats: &mut Stats,
        report: &mut Report<'_>,
    ) {
        SsmjStrategy::replay(out, std::slice::from_ref(user), 0, clock, stats, report);
    }

    /// The reference: the driver as it was before joins were shared, each
    /// query executing and being charged its own materialised join in
    /// priority order.
    fn run_join_per_query<S: TraceSink>(
        name: &'static str,
        step: ReferenceStep,
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
            let envelope = join_envelope(r_box.as_ref(), t_box.as_ref(), &spec.mapping);
            let user = User::new(spec, envelope.as_ref());
            let est = buchta_estimate(join.len().max(1) as f64, spec.pref.len());
            let mut score = QueryScore::new(spec.contract.clone(), est);
            let mut emissions = Vec::new();
            let mut results = Vec::new();
            let mut report =
                |i: usize, pair: (u64, u64), clock: &mut SimClock, stats: &mut Stats| {
                    clock.charge_emits(1);
                    let ts = clock.now();
                    let u = score.record(ts);
                    stats.record_emission(qid.index(), u);
                    emissions.push((ts, u));
                    results.push(pair);
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
            step(&join, &user, &mut clock, &mut stats, &mut report);
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
    /// having executed one join per join group, into a stored join for
    /// SSMJ and never for JFSL.
    fn matches_reference<K: GroupSkyline>(
        name: &'static str,
        step: ReferenceStep,
        r: &Table,
        t: &Table,
        w: &Workload,
        exec: &ExecConfig,
    ) {
        JOIN_SINKS.with(|s| s.borrow_mut().clear());
        let mut trace = RecordingSink::default();
        let shared = run_per_query::<K, _>(name, r, t, w, exec, &mut trace).unwrap();
        let sinks = JOIN_SINKS.with(|s| s.take());
        let mut reference_trace = RecordingSink::default();
        let reference =
            run_join_per_query(name, step, r, t, w, exec, &mut reference_trace).unwrap();

        assert_eq!(sinks.len(), group_workload(w).len(), "joins executed");
        let stored = sinks.iter().filter(|s| s.ends_with("::JoinOutput")).count();
        let want_stored = if name == "SSMJ" { sinks.len() } else { 0 };
        assert_eq!(stored, want_stored, "{name}: joins stored whole");
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

    /// Both baselines, JFSL and SSMJ.
    fn both_steps_match_reference(r: &Table, t: &Table, w: &Workload, exec: &ExecConfig) {
        matches_reference::<JfslStrategy>("JFSL", bnl_reference, r, t, w, exec);
        matches_reference::<SsmjStrategy>("SSMJ", sfs_reference, r, t, w, exec);
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

    /// The paper's eleven preference subspaces over a 5-dim output space.
    const ELEVEN_PREFS: [&[usize]; 11] = [
        &[0, 1],
        &[1, 2, 3],
        &[0, 1, 2, 3, 4],
        &[2, 3],
        &[0, 2, 4],
        &[1, 2, 3, 4],
        &[3, 4],
        &[0, 1, 2],
        &[0, 1, 3, 4],
        &[1, 4],
        &[2, 3, 4],
    ];

    /// One join group of eleven users on 2-D to 5-D preferences over a
    /// join spanning at least three of JFSL's blocks, so every window takes
    /// several blocks and completes chunks a block's end cut short.
    #[test]
    fn a_join_of_several_blocks_matches_the_reference() {
        let gen = TableGenerator::new(400, 3, Distribution::Anticorrelated)
            .with_selectivities(&[0.08])
            .with_seed(0xB10C);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let mapping = MappingSet::mixed(3, 3, 5);
        let w = Workload::new(
            ELEVEN_PREFS
                .iter()
                .enumerate()
                .map(|(i, dims)| QuerySpec {
                    join_col: 0,
                    mapping: mapping.clone(),
                    pref: DimMask::from_dims(dims.iter().copied()),
                    priority: 0.1 + 0.08 * i as f64,
                    contract: Contract::LogDecay,
                })
                .collect(),
        );
        let rows = hash_join_project_store(
            r.records(),
            t.records(),
            JoinSpec::on_column(0),
            &mapping,
            &mut SimClock::default(),
            &mut Stats::new(),
        )
        .len();
        let block = crate::jfsl::BLOCK;
        assert!(rows > 2 * block && rows % block != 0, "join of {rows} rows");
        both_steps_match_reference(&r, &t, &w, &ExecConfig::default());
    }

    /// Tables whose join on column 0 has exactly `rows` results: one R row
    /// meeting `rows` T rows, the values drawn from `vals`.
    fn join_of(rows: usize, vals: &[(u8, u8)]) -> (Table, Table) {
        let r = Table::new("R", 2, 1, vec![Record::new(0, vec![1.0, 2.0], vec![3])]);
        let t = Table::new(
            "T",
            2,
            1,
            (0..rows.max(1))
                .map(|i| {
                    let (a, b) = vals[i % vals.len()];
                    let key = if rows == 0 { 4 } else { 3 };
                    Record::new(100 + i as u64, vec![f64::from(a), f64::from(b)], vec![key])
                })
                .collect(),
        );
        (r, t)
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

        /// Joins of 0, 1, 2, 64 and 65 rows — no row, row 0 alone, one
        /// row after it, a chunk one row short and one whole chunk — are
        /// the reference's run for both baselines.
        #[test]
        fn chunk_edge_joins_match_the_reference(
            rows in (0..5usize).prop_map(|i| [0, 1, 2, 64, 65][i]),
            vals in proptest::collection::vec((0..4u8, 0..4u8), 1..70),
            draws in proptest::collection::vec(query_draw(), 1..=4),
        ) {
            let (r, t) = join_of(rows, &vals);
            let spec = JoinSpec::on_column(0);
            let mapping = MappingSet::concat(2, 2);
            let join = hash_join_project_store(
                r.records(), t.records(), spec, &mapping, &mut SimClock::default(), &mut Stats::new(),
            );
            prop_assert_eq!(join.len(), rows);
            let draws: Vec<QueryDraw> = draws.into_iter().map(|d| (0, d.1, d.2, d.3, d.4)).collect();
            both_steps_match_reference(&r, &t, &workload(&draws), &ExecConfig::default());
        }
    }
}
