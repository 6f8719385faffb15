//! Join groups: queries that share a join condition and mapping functions.
//!
//! The paper's shared plan (§4.1) targets queries that are "identical except
//! for their skyline dimensions". Real workloads (Figure 1) mix join
//! conditions (`JC_1`, `JC_2`), so the engine partitions the workload into
//! *join groups*: within a group the join, projection and subspace skylines
//! are fully shared through one min-max cuboid; across groups the optimizer
//! still schedules regions globally by CSM.

use crate::config::ExecConfig;
use crate::workload::Workload;
use caqe_contract::QueryScore;
use caqe_cuboid::{MinMaxCuboid, SharedSkylinePlan};
use caqe_operators::MappingSet;
use caqe_parallel::Threads;
use caqe_partition::Partitioning;
use caqe_regions::{
    build_regions, region_csm, DependencyGraph, OutputRegion, RegionBuildInput, RegionSet,
    ThreatCounts,
};
use caqe_trace::{SpanKind, TraceEvent, TraceSink};
use caqe_types::{DimMask, PointStore, QueryId, RegionId, SimClock, Stats};

/// Provenance of one materialized join tuple living in a group's arena.
/// The tuple's output-space point lives at the same index in the group's
/// flat [`PointStore`] ([`JoinGroup::points`]).
#[derive(Debug, Clone, Copy)]
pub struct ArenaTuple {
    /// Contributing R record id.
    pub rid: u64,
    /// Contributing T record id.
    pub tid: u64,
    /// The region whose processing materialized this tuple.
    pub origin: RegionId,
}

/// A join group with all its shared execution state.
pub struct JoinGroup {
    /// The shared join column.
    pub join_col: usize,
    /// The shared mapping functions.
    pub mapping: MappingSet,
    /// Global ids of member queries, in local order.
    pub members: Vec<QueryId>,
    /// The group's output regions (serving sets use global query ids).
    pub regions: RegionSet,
    /// The dependency graph, and the group's one edge store: root status
    /// follows regions as they complete, the edge lists never shrink — so
    /// safe emission, the recheck cascade, the discard and the threat counts
    /// all read their threats here, skipping peers by the peer's own state.
    pub dg: DependencyGraph,
    /// The shared min-max-cuboid skyline plan (local query indexing).
    pub plan: SharedSkylinePlan,
    /// Materialized join tuples; the tag passed to the plan is the index
    /// into this arena (and into [`Self::points`]).
    pub arena: Vec<ArenaTuple>,
    /// Flat output-space points of the arena tuples: point `i` belongs to
    /// `arena[i]`. Interned once per tuple; everything downstream (plan
    /// insertion, pending-emission safety tests, discard sweeps) reads the
    /// slice instead of cloning.
    pub points: PointStore,
    /// Session mode's skip record: `(region, R row)` of every row the
    /// row-level look-ahead skipped, in skip order. Together with the arena
    /// it is the whole join history; an admission re-joins these rows into
    /// the arena before it backfills (DESIGN.md §4).
    pub skipped: Vec<(RegionId, u32)>,
    /// Per-cell threat counts behind every progressiveness estimate
    /// (DESIGN.md §20). Private: [`Self::counted`] is the only way to read
    /// them, so no reader can see a table older than the regions.
    threats: ThreatCounts,
}

/// A [`JoinGroup`] whose threat counts were reconciled with its regions when
/// this view was taken; holding it keeps the group from changing underneath.
pub struct Counted<'a>(&'a JoinGroup);

impl std::ops::Deref for Counted<'_> {
    type Target = JoinGroup;

    fn deref(&self) -> &JoinGroup {
        self.0
    }
}

impl Counted<'_> {
    /// Equation 8 for `reg` ([`region_csm`]) off the current counts.
    pub fn csm(
        &self,
        reg: &OutputRegion,
        scores: &[QueryScore],
        weights: &[f64],
        clock: &SimClock,
        t_c: u64,
    ) -> f64 {
        region_csm(
            &self.regions,
            &self.0.threats,
            reg,
            scores,
            weights,
            clock,
            t_c,
        )
    }

    /// Equation 10 for `reg`, summed over the group's queries.
    pub fn prog_est(&self, reg: &OutputRegion) -> f64 {
        (0..self.members.len())
            .map(|lq| self.0.threats.prog_est(&self.regions, reg, lq))
            .sum()
    }

    /// Whether the counts of `reg` equal Definition 11 derived from scratch.
    pub fn matches_oracle(&self, reg: &OutputRegion) -> bool {
        self.0.threats.matches_oracle(&self.regions, &self.dg, reg)
    }
}

impl JoinGroup {
    /// Brings the threat counts up to date with whatever happened to the
    /// regions since the last call (processed, discarded, retired, admitted,
    /// departed) and returns the view they are read through. Nothing else
    /// maintains the table; a run that never asks never builds it.
    pub fn counted(&mut self) -> Counted<'_> {
        self.threats.reconcile(&self.regions, &self.dg);
        Counted(self)
    }

    /// The local index of a global query id, if it belongs to this group.
    pub fn local_of(&self, q: QueryId) -> Option<usize> {
        self.members.iter().position(|&m| m == q)
    }
}

/// A memoized group build: what a cold `open_group` produced that is
/// expensive to recompute — the regions and the dependency graph, as
/// built — plus the exact tick and counter deltas it charged, so replaying
/// a memo leaves the clock, stats and trace in the same state as
/// rebuilding would. In-process only: the plan file stores the key and
/// `PreparedPlan::load` rebuilds the rest (DESIGN.md §19).
///
/// The key is the full tuple `(join_col, mapping, queries, coarse_pruning,
/// build_dg, keep_empty)`: a memo only ever replays for the group build it
/// was recorded from.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMemo {
    /// The group's shared join column.
    pub join_col: usize,
    /// The group's shared mapping functions.
    pub mapping: MappingSet,
    /// Member `(global id, preference)` pairs, in group-local order.
    pub queries: Vec<(QueryId, DimMask)>,
    /// Whether the look-ahead coarse skyline ran during the build.
    pub coarse_pruning: bool,
    /// Whether the dependency graph was materialized.
    pub build_dg: bool,
    /// Whether empty regions were kept as revivable husks (session mode).
    pub keep_empty: bool,
    /// The built region set (post-look-ahead state).
    pub regions: RegionSet,
    /// The dependency graph over them, as built; a replay clones it.
    pub dg: DependencyGraph,
    /// Virtual ticks the cold build charged.
    pub ticks: u64,
    /// Counter deltas the cold build charged (per-query stats untouched).
    pub stats: Stats,
}

impl GroupMemo {
    /// Whether this memo was recorded for exactly this group build.
    pub fn matches(
        &self,
        join_col: usize,
        mapping: &MappingSet,
        queries: &[(QueryId, DimMask)],
        coarse_pruning: bool,
        build_dg: bool,
        keep_empty: bool,
    ) -> bool {
        self.join_col == join_col
            && self.coarse_pruning == coarse_pruning
            && self.build_dg == build_dg
            && self.keep_empty == keep_empty
            && self.queries == queries
            && self.mapping == *mapping
    }
}

/// Partitions the workload into join groups by `(join column, mapping)`,
/// preserving first-appearance order — the grouping every build and memo
/// path, and the per-query baselines' shared joins, must agree on.
pub fn group_workload(workload: &Workload) -> Vec<(usize, MappingSet, Vec<QueryId>)> {
    let mut groups: Vec<(usize, MappingSet, Vec<QueryId>)> = Vec::new();
    for (i, q) in workload.queries().iter().enumerate() {
        let qid = QueryId(i as u16);
        match groups
            .iter_mut()
            .find(|(col, m, _)| *col == q.join_col && *m == q.mapping)
        {
            Some((_, _, members)) => members.push(qid),
            None => groups.push((q.join_col, q.mapping.clone(), vec![qid])),
        }
    }
    groups
}

/// Groups the workload's queries and builds per-group shared state.
///
/// `coarse_pruning` controls whether the look-ahead coarse skyline runs
/// (CAQE / ProgXe+) or is skipped (S-JFSL). `build_dg` controls whether the
/// dependency graph is materialized at all — blind blocking pipelines have
/// no use for it and should not pay for it.
///
/// Groups are opened one after another against `clock` and `stats`
/// (`open_group`), each recording its phase spans straight into `sink`.
///
/// `_threads` is accepted and ignored: `benchmark/src` compiles against
/// this signature, and the engine is serial (DESIGN.md §10).
#[allow(clippy::too_many_arguments)] // one engine toggle per argument
pub fn build_groups<S: TraceSink>(
    workload: &Workload,
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
    _threads: Threads,
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> Vec<JoinGroup> {
    build_groups_with_memos(
        workload,
        part_r,
        part_t,
        exec,
        coarse_pruning,
        build_dg,
        keep_empty,
        &[],
        clock,
        stats,
        sink,
    )
}

/// [`build_groups`] with a memo slice from a warm-started
/// [`crate::plan::PreparedPlan`]: a group whose full key matches a memo is
/// replayed instead of rebuilt. Groups without a memo go through the cold
/// path — mixing is safe because memos carry their exact deltas.
#[allow(clippy::too_many_arguments)] // one engine toggle per argument
pub(crate) fn build_groups_with_memos<S: TraceSink>(
    workload: &Workload,
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
    memos: &[GroupMemo],
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> Vec<JoinGroup> {
    let groups = group_workload(workload).into_iter().enumerate();
    groups
        .map(|(gi, (join_col, mapping, members))| {
            let queries = members
                .iter()
                .map(|&q| (q, workload.query(q).pref))
                .collect();
            open_group(
                part_r,
                part_t,
                exec,
                coarse_pruning,
                build_dg,
                keep_empty,
                memos,
                gi as u32,
                join_col,
                mapping,
                queries,
                clock,
                stats,
                sink,
            )
        })
        .collect()
}

/// Opens join group `gi` — the one place a group's shared state (regions,
/// dependency graph, plan) comes into being, for the batch start and for a
/// mid-run admission alike. `queries` carries the `(global id, preference)`
/// pairs directly so the session layer can open a group for a query the
/// initial workload never contained.
///
/// A memo of `memos` whose full key matches is *replayed*: the clock
/// advances by the recorded ticks, the recorded counters are re-applied and
/// the state is instantiated from clones of the memo's structures (the
/// only recomputed pieces — the min-max cuboid and the screening bounds —
/// are pure functions of them). Otherwise the group is built cold. Either
/// way `clock`, `stats` and `sink` end up in the same state: a build only
/// ever *charges* the clock, never reads it,
/// so the deltas a scratch-clock build recorded ([`PreparedPlan::memoize`])
/// are the deltas any clock would have been charged.
///
/// Look-ahead is all a group build charges, so the `LookAhead` and
/// `GroupBuild` spans coincide; both are recorded in absolute ticks.
///
/// [`PreparedPlan::memoize`]: crate::plan::PreparedPlan::memoize
#[allow(clippy::too_many_arguments)] // one engine toggle per argument
pub(crate) fn open_group<S: TraceSink>(
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
    memos: &[GroupMemo],
    gi: u32,
    join_col: usize,
    mapping: MappingSet,
    queries: Vec<(QueryId, DimMask)>,
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> JoinGroup {
    let start_tick = clock.ticks();
    let memo = memos.iter().find(|m| {
        m.matches(
            join_col,
            &mapping,
            &queries,
            coarse_pruning,
            build_dg,
            keep_empty,
        )
    });
    let (regions, dg) = match memo {
        Some(m) => {
            clock.advance(m.ticks);
            *stats += m.stats.clone();
            (m.regions.clone(), m.dg.clone())
        }
        None => {
            let input = RegionBuildInput {
                part_r,
                part_t,
                join_col,
                mapping: &mapping,
                queries: &queries,
                coarse_pruning,
                keep_empty,
            };
            let regions = build_regions(&input, clock, stats);
            let dg = if build_dg {
                DependencyGraph::build(&regions, clock, stats)
            } else {
                DependencyGraph::empty(regions.len())
            };
            (regions, dg)
        }
    };
    let group = assemble_group(join_col, mapping, &queries, regions, dg, exec.assume_dva);
    if S::ENABLED {
        for kind in [SpanKind::LookAhead, SpanKind::GroupBuild] {
            sink.record(TraceEvent::Span {
                kind,
                group: Some(gi),
                region: None,
                start_tick,
                end_tick: clock.ticks(),
            });
        }
    }
    group
}

/// The common tail of a cold build and a memo replay: everything a
/// [`JoinGroup`] holds beyond its regions and dependency graph is a pure
/// function of them — the min-max cuboid over
/// the preferences, the shared plan with its screening bounds, and the
/// (empty) tuple arena.
pub(crate) fn assemble_group(
    join_col: usize,
    mapping: MappingSet,
    queries: &[(QueryId, DimMask)],
    regions: RegionSet,
    dg: DependencyGraph,
    assume_dva: bool,
) -> JoinGroup {
    let prefs: Vec<DimMask> = queries.iter().map(|(_, m)| *m).collect();
    let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), assume_dva);
    // The region envelope bounds every tuple the mappings can produce —
    // exactly the quantization range signature screening wants (DESIGN.md
    // §17). Screening never changes observables, so no config gate.
    if let Some((lo, hi)) = regions.mapped_bounds() {
        plan.enable_sig_cache(&lo, &hi);
    }
    let points = PointStore::new(mapping.output_dims());
    JoinGroup {
        join_col,
        mapping,
        members: queries.iter().map(|(q, _)| *q).collect(),
        regions,
        dg,
        plan,
        arena: Vec::new(),
        points,
        skipped: Vec::new(),
        threats: ThreatCounts::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PreparedPlan;
    use crate::workload::{QuerySpec, WorkloadBuilder};
    use caqe_contract::Contract;
    use caqe_data::{Distribution, Table, TableGenerator};
    use caqe_partition::QuadTreeConfig;
    use caqe_trace::RecordingSink;

    fn spec(join_col: usize, pref: DimMask) -> QuerySpec {
        QuerySpec {
            join_col,
            mapping: MappingSet::concat(2, 2),
            pref,
            priority: 0.5,
            contract: Contract::LogDecay,
        }
    }

    /// Three queries over two join conditions, with the tables and config
    /// they are built against.
    fn two_group_fixture() -> (Workload, Table, Table, ExecConfig) {
        let w = WorkloadBuilder::new()
            .query(spec(0, DimMask::from_dims([0, 1])))
            .query(spec(1, DimMask::from_dims([1, 2])))
            .query(spec(0, DimMask::from_dims([2, 3])))
            .build();
        let gen =
            TableGenerator::new(200, 2, Distribution::Independent).with_selectivities(&[0.1, 0.1]);
        let exec = ExecConfig {
            quadtree: QuadTreeConfig {
                max_leaf_size: 64,
                max_depth: 4,
                max_cells: usize::MAX,
            },
            ..ExecConfig::default()
        };
        (w, gen.generate("R"), gen.generate("T"), exec)
    }

    #[test]
    fn grouping_by_join_condition() {
        let (w, r, t, exec) = two_group_fixture();
        let pr = Partitioning::build(&r, exec.quadtree);
        let pt = Partitioning::build(&t, exec.quadtree);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let groups = build_groups(
            &w,
            &pr,
            &pt,
            &exec,
            true,
            true,
            false,
            Threads::default(),
            &mut clock,
            &mut stats,
            &mut caqe_trace::NoopSink,
        );
        assert_eq!(groups.len(), 2);
        let g0 = groups.iter().find(|g| g.join_col == 0).unwrap();
        assert_eq!(g0.members, vec![QueryId(0), QueryId(2)]);
        assert_eq!(g0.local_of(QueryId(2)), Some(1));
        assert_eq!(g0.local_of(QueryId(1)), None);
        let g1 = groups.iter().find(|g| g.join_col == 1).unwrap();
        assert_eq!(g1.members, vec![QueryId(1)]);
        // Shared state shapes line up.
        for g in &groups {
            assert!(g.arena.is_empty());
        }
    }

    #[test]
    fn spans_are_absolute_and_contiguous_from_a_non_zero_start() {
        // The ProgXe+ `start_ticks` case: groups opened on a clock that is
        // already running record their spans in absolute ticks, back to
        // back, and a memo replay is indistinguishable from the cold build.
        let (w, r, t, exec) = two_group_fixture();
        let mut plan = PreparedPlan::build(&r, &t, &exec);
        plan.memoize(&w, &exec, true, true, false);
        assert_eq!(plan.memos.len(), 2);
        let start = 1_000_000;
        let build = |memos: &[GroupMemo]| {
            let mut clock = SimClock::new(exec.cost_model);
            clock.advance(start);
            let mut stats = Stats::new();
            let mut sink = RecordingSink::new();
            let (pr, pt) = (&plan.part_r, &plan.part_t);
            let groups = build_groups_with_memos(
                &w, pr, pt, &exec, true, true, false, memos, &mut clock, &mut stats, &mut sink,
            );
            assert_eq!(groups.len(), 2);
            (sink.into_events(), clock.ticks(), stats)
        };

        let (cold, cold_ticks, cold_stats) = build(&[]);
        let spans: Vec<_> = cold
            .iter()
            .map(|ev| match ev {
                TraceEvent::Span {
                    kind,
                    group: Some(gi),
                    region: None,
                    start_tick,
                    end_tick,
                } => (*kind, *gi, *start_tick, *end_tick),
                other => panic!("a group build records spans only, got {other:?}"),
            })
            .collect();
        let kinds: Vec<_> = spans.iter().map(|&(kind, gi, ..)| (kind, gi)).collect();
        let (la, gb) = (SpanKind::LookAhead, SpanKind::GroupBuild);
        assert_eq!(kinds, [(la, 0), (gb, 0), (la, 1), (gb, 1)]);
        let mut cursor = start;
        for pair in spans.chunks(2) {
            let ((_, _, la_start, _), (_, _, gb_start, gb_end)) = (pair[0], pair[1]);
            assert_eq!((la_start, gb_start), (cursor, cursor));
            assert!(gb_end > gb_start, "a group build charges ticks");
            cursor = gb_end;
        }
        assert_eq!(cursor, cold_ticks);

        let (warm, warm_ticks, warm_stats) = build(&plan.memos);
        assert_eq!(warm, cold);
        assert_eq!(warm_ticks, cold_ticks);
        assert_eq!(warm_stats, cold_stats);
    }
}
