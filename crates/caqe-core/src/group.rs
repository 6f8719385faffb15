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
use caqe_regions::depgraph::Edge;
use caqe_regions::{
    build_regions, region_csm, DependencyGraph, OutputRegion, RegionBuildInput, RegionSet,
    ThreatCounts,
};
use caqe_trace::{SpanKind, TraceBuffer, TraceEvent, TraceSink};
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
    /// Scheduling dependency graph (mutated as regions complete).
    pub dg: DependencyGraph,
    /// Immutable snapshot of threat in-edges, used for safe emission after
    /// the scheduling graph has shed nodes.
    pub static_threats_in: Vec<Vec<Edge>>,
    /// Immutable snapshot of threat out-edges: when a region dies, the
    /// pending tuples of exactly these targets must be re-examined.
    pub static_threats_out: Vec<Vec<Edge>>,
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
        self.threats
            .reconcile(&self.regions, &self.static_threats_out);
        Counted(self)
    }

    /// The local index of a global query id, if it belongs to this group.
    pub fn local_of(&self, q: QueryId) -> Option<usize> {
        self.members.iter().position(|&m| m == q)
    }
}

/// A memoized group build: everything a cold [`build_one_group`] produced
/// that is expensive to recompute, plus the exact tick and counter deltas
/// it charged — replaying a memo leaves the clock, stats and trace in the
/// same state as rebuilding would.
///
/// The key is the full tuple `(join_col, mapping, queries, coarse_pruning,
/// build_dg, keep_empty)`: a memo only ever replays for the group build it
/// was recorded from.
#[derive(Debug, Clone)]
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
    /// Threat in-edges; the full graph is reconstructed by transposition.
    pub threats_in: Vec<Vec<Edge>>,
    /// Structural digest of the min-max cuboid the preferences imply,
    /// cross-checked when a persisted memo is loaded.
    pub cuboid_digest: u64,
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
/// path must agree on.
pub(crate) fn group_workload(workload: &Workload) -> Vec<(usize, MappingSet, Vec<QueryId>)> {
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
/// Groups share no state during construction, so with `threads` allowing it
/// each group is built on a worker against a *private* clock and stats.
/// Construction only ever charges ticks — it never reads the current time —
/// so the per-worker tick deltas are merged back in fixed group order and
/// the shared clock lands on exactly the serial value.
///
/// Tracing follows the same contract: workers record phase spans with ticks
/// relative to their private clock into a [`TraceBuffer`], and the buffers
/// are rebased and drained into `sink` in the same fixed group order as the
/// tick deltas — so the trace, too, is identical at every worker count.
#[allow(clippy::too_many_arguments)] // one engine toggle per argument
pub fn build_groups<S: TraceSink>(
    workload: &Workload,
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
    threads: Threads,
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
        threads,
        clock,
        stats,
        sink,
    )
}

/// [`build_groups`] with a memo slice from a warm-started
/// [`crate::plan::PreparedPlan`]: a group whose full key matches a memo is
/// *replayed* (clock advanced by the recorded ticks, counters re-applied,
/// identical spans recorded, state cloned) instead of rebuilt. Groups
/// without a memo go through the cold path — mixing is safe because memos
/// carry their exact deltas.
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
    threads: Threads,
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut S,
) -> Vec<JoinGroup> {
    // Group by (join column, mapping functions).
    let groups = group_workload(workload);

    let model = *clock.model();
    let built = caqe_parallel::map_ordered(threads, groups, |gi, (join_col, mapping, members)| {
        let mut wclock = SimClock::new(model);
        let mut wstats = Stats::new();
        let mut buf = TraceBuffer::new(S::ENABLED);
        let queries: Vec<(QueryId, DimMask)> = members
            .iter()
            .map(|&q| (q, workload.query(q).pref))
            .collect();
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
        let group = match memo {
            Some(m) => replay_group(m, exec, gi as u32, &mut wclock, &mut wstats, &mut buf),
            None => build_one_group(
                part_r,
                part_t,
                exec,
                coarse_pruning,
                build_dg,
                keep_empty,
                gi as u32,
                join_col,
                mapping,
                queries,
                &mut wclock,
                &mut wstats,
                &mut buf,
            ),
        };
        buf.record(TraceEvent::Span {
            kind: SpanKind::GroupBuild,
            group: Some(gi as u32),
            region: None,
            start_tick: 0,
            end_tick: wclock.ticks(),
        });
        (group, wclock.ticks(), wstats, buf)
    });

    // Merge worker deltas in fixed group order: tick charges are additive,
    // so the final clock and stats are independent of worker scheduling.
    // Each group's trace buffer is rebased to the clock value at which the
    // serial loop would have started that group.
    let mut out = Vec::with_capacity(built.len());
    for (group, ticks, wstats, buf) in built {
        buf.merge_into(sink, clock.ticks());
        clock.advance(ticks);
        *stats += wstats;
        out.push(group);
    }
    out
}

/// Builds one join group's shared state (regions, dependency graph, plan).
/// `queries` carries the `(global id, preference)` pairs directly so the
/// online session layer can open a group for a query the initial workload
/// never contained.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_one_group(
    part_r: &Partitioning,
    part_t: &Partitioning,
    exec: &ExecConfig,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
    gi: u32,
    join_col: usize,
    mapping: MappingSet,
    queries: Vec<(QueryId, DimMask)>,
    clock: &mut SimClock,
    stats: &mut Stats,
    buf: &mut TraceBuffer,
) -> JoinGroup {
    let input = RegionBuildInput {
        part_r,
        part_t,
        join_col,
        mapping: &mapping,
        queries: &queries,
        coarse_pruning,
        keep_empty,
    };
    let la_start = clock.ticks();
    let regions = build_regions(&input, clock, stats);
    let dg = if build_dg {
        DependencyGraph::build(&regions, clock, stats)
    } else {
        DependencyGraph::empty(regions.len())
    };
    buf.record(TraceEvent::Span {
        kind: SpanKind::LookAhead,
        group: Some(gi),
        region: None,
        start_tick: la_start,
        end_tick: clock.ticks(),
    });
    assemble_group(join_col, mapping, &queries, regions, dg, exec.assume_dva)
}

/// The common tail of a cold build and a memo replay: everything a
/// [`JoinGroup`] holds beyond its regions and dependency graph is a pure
/// function of them — the static edge snapshots, the min-max cuboid over
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
    let ids = || (0..regions.len()).map(|i| RegionId(i as u32));
    let static_threats_in = ids().map(|r| dg.threats_in(r).to_vec()).collect();
    let static_threats_out = ids().map(|r| dg.threats_out(r).to_vec()).collect();
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
        static_threats_in,
        static_threats_out,
        plan,
        arena: Vec::new(),
        points,
        threats: ThreatCounts::default(),
    }
}

/// Replays a memoized group build: charges the recorded tick/counter
/// deltas, records the same `LookAhead` span the cold build would, and
/// instantiates the group from the memo's persisted structures. The only
/// recomputed pieces — the dependency-graph transpose, the min-max cuboid
/// and the screening bounds — are pure functions of the stored state, so
/// the resulting group is indistinguishable from a cold build.
pub(crate) fn replay_group(
    memo: &GroupMemo,
    exec: &ExecConfig,
    gi: u32,
    clock: &mut SimClock,
    stats: &mut Stats,
    buf: &mut TraceBuffer,
) -> JoinGroup {
    let la_start = clock.ticks();
    clock.advance(memo.ticks);
    *stats += memo.stats.clone();
    buf.record(TraceEvent::Span {
        kind: SpanKind::LookAhead,
        group: Some(gi),
        region: None,
        start_tick: la_start,
        end_tick: clock.ticks(),
    });
    let group = assemble_group(
        memo.join_col,
        memo.mapping.clone(),
        &memo.queries,
        memo.regions.clone(),
        DependencyGraph::from_threats_in(memo.threats_in.clone()),
        exec.assume_dva,
    );
    debug_assert_eq!(
        group.plan.cuboid().structure_digest(),
        memo.cuboid_digest,
        "memoized cuboid digest out of sync"
    );
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{QuerySpec, WorkloadBuilder};
    use caqe_contract::Contract;
    use caqe_data::{Distribution, TableGenerator};
    use caqe_partition::QuadTreeConfig;

    fn spec(join_col: usize, pref: DimMask) -> QuerySpec {
        QuerySpec {
            join_col,
            mapping: MappingSet::concat(2, 2),
            pref,
            priority: 0.5,
            contract: Contract::LogDecay,
        }
    }

    #[test]
    fn grouping_by_join_condition() {
        let w = WorkloadBuilder::new()
            .query(spec(0, DimMask::from_dims([0, 1])))
            .query(spec(1, DimMask::from_dims([1, 2])))
            .query(spec(0, DimMask::from_dims([2, 3])))
            .build();
        let gen =
            TableGenerator::new(200, 2, Distribution::Independent).with_selectivities(&[0.1, 0.1]);
        let r = gen.generate("R");
        let t = gen.generate("T");
        let cfg = QuadTreeConfig {
            max_leaf_size: 64,
            max_depth: 4,
            max_cells: usize::MAX,
        };
        let pr = Partitioning::build(&r, cfg);
        let pt = Partitioning::build(&t, cfg);
        let exec = ExecConfig::default();
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
            assert_eq!(g.static_threats_in.len(), g.regions.len());
            assert!(g.arena.is_empty());
        }
    }
}
