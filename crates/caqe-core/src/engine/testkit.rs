//! Small worlds for the step modules' unit tests: a [`World`] owns what a
//! [`Run`] borrows, and hands out runs either through the real set-up path
//! or over hand-built join groups whose geometry the test controls.

use super::churn::QueryTable;
use super::emit::PendingTuple;
use super::{GroupState, Run, RunRequest};
use crate::config::{EngineConfig, ExecConfig};
use crate::group::{assemble_group, ArenaTuple, JoinGroup};
use crate::workload::{QuerySpec, Workload};
use caqe_contract::Contract;
use caqe_data::{Distribution, Table, TableGenerator};
use caqe_operators::MappingSet;
use caqe_regions::{DependencyGraph, OutputRegion, RegionSet};
use caqe_trace::RecordingSink;
use caqe_types::ids::QuerySet;
use caqe_types::{CellId, DimMask, QueryId, Rect, RegionId, SimClock, Stats};

/// A log-decay query over `pref` on join column `join_col`, 2+2 → 4 mapped
/// dimensions (the shape [`World`]'s tables support).
pub(super) fn spec(join_col: usize, pref: DimMask) -> QuerySpec {
    QuerySpec {
        join_col,
        mapping: MappingSet::mixed(2, 2, 4),
        pref,
        priority: 1.0,
        contract: Contract::LogDecay,
    }
}

/// A join group whose regions are exactly `boxes` (region `i` = `boxes[i]`),
/// each serving every one of the `prefs` queries, with the dependency graph
/// Definition 9 gives them.
pub(super) fn group_of<const D: usize>(
    boxes: &[([f64; D], [f64; D])],
    prefs: &[DimMask],
) -> JoinGroup {
    let queries: Vec<(QueryId, DimMask)> = (0..).map(QueryId).zip(prefs.iter().copied()).collect();
    let region = |(i, (lo, hi)): (usize, &([f64; D], [f64; D]))| {
        let bounds = Rect::new(lo.to_vec(), hi.to_vec());
        let serving = QuerySet::all(prefs.len());
        OutputRegion::new(
            RegionId(i as u32),
            CellId(0),
            CellId(0),
            bounds,
            4,
            4,
            4.0,
            serving,
        )
    };
    let regions = RegionSet::new(
        boxes.iter().enumerate().map(region).collect(),
        queries.clone(),
    );
    let dg = DependencyGraph::build(&regions, &mut SimClock::default(), &mut Stats::new());
    assemble_group(0, MappingSet::concat(D - 1, 1), &queries, regions, dg, true)
}

/// The tables, configs and sink a [`Run`] borrows.
pub(super) struct World {
    pub(super) r: Table,
    pub(super) t: Table,
    pub(super) workload: Workload,
    pub(super) exec: ExecConfig,
    pub(super) engine: EngineConfig,
    pub(super) sink: RecordingSink,
}

impl World {
    /// Two 60-row independent tables with two join columns, the default
    /// execution environment at a handful of cells per table, and `engine`.
    pub(super) fn new(engine: EngineConfig) -> Self {
        let gen = TableGenerator::new(60, 2, Distribution::Independent)
            .with_selectivities(&[0.2, 0.2])
            .with_seed(11);
        World {
            r: gen.generate("R"),
            t: gen.generate("T"),
            workload: Workload::new(vec![spec(0, DimMask::full(4))]),
            exec: ExecConfig::default().with_target_cells(60, 3),
            engine,
            sink: RecordingSink::new(),
        }
    }

    /// A run of `specs` over the world's tables, set up the way
    /// [`RunRequest::try_run`] does.
    pub(super) fn start(
        &mut self,
        specs: Vec<QuerySpec>,
        session_mode: bool,
    ) -> Run<'_, RecordingSink> {
        self.workload = Workload::new(specs);
        let request = RunRequest::new(
            "test",
            &self.r,
            &self.t,
            &self.workload,
            &self.exec,
            &self.engine,
        );
        Run::start(&request, None, session_mode, &mut self.sink)
    }

    /// A run over hand-built `groups` (see [`group_of`]) instead of the
    /// tables' own, with one query row per preference of the first group.
    pub(super) fn over(&mut self, groups: Vec<JoinGroup>) -> Run<'_, RecordingSink> {
        let specs: Vec<QuerySpec> = groups[0]
            .regions
            .queries()
            .iter()
            .map(|&(_, pref)| spec(0, pref))
            .collect();
        let mut run = self.start(specs.clone(), false);
        run.groups = groups.into_iter().map(GroupState::new).collect();
        run.queries = QueryTable::default();
        for spec in &specs {
            run.queries.admit(spec, &run.groups, 1.0, 0.0);
        }
        run
    }
}

impl<S: caqe_trace::TraceSink> Run<'_, S> {
    /// Plants a materialized tuple of region `origin` (group 0) at `point`,
    /// pending for `queries`; returns its tag. Provenance is `(tag, tag)`.
    pub(super) fn plant(&mut self, origin: u32, point: &[f64], queries: &[u16]) -> u64 {
        let gs = &mut self.groups[0];
        let tag = gs.g.arena.len() as u64;
        gs.g.arena.push(ArenaTuple {
            rid: tag,
            tid: tag,
            origin: RegionId(origin),
        });
        gs.g.points.push(point);
        gs.pending[origin as usize].push(PendingTuple {
            tag,
            entries: queries.iter().map(|&q| (QueryId(q), None)).collect(),
        });
        tag
    }
}
