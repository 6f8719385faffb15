//! Replayed layer calls: each layer's public functions timed on the
//! workload's own inputs, outside the engine. Every replay is repeated and
//! its median reported; each call leaves a `replay:<layer>` span.

use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::Inputs;
use caqe_core::group::{build_groups, JoinGroup};
use caqe_core::{prepare_inputs, EngineConfig, PreparedPlan, SchedulingPolicy};
use caqe_cuboid::{MinMaxCuboid, SharedSkylinePlan};
use caqe_data::validate_table;
use caqe_operators::{
    hash_join_project_store, skyline_sfs_store, IncrementalSkyline, JoinSpec, SigSkyline,
};
use caqe_parallel::Threads;
use caqe_partition::Partitioning;
use caqe_regions::{build_regions, DependencyGraph, RegionBuildInput};
use caqe_trace::NoopSink;
use caqe_types::{DimMask, DomKernel, PointStore, RegionId, SigQuantizer, SimClock, Stats};
use std::path::Path;

/// Calls per replayed function; the median is reported.
const REPLAY_REPS: usize = 3;
/// Join results the window and shared-plan replays insert (the first ones
/// the join produces). Bounds the replay on `corr_join`, whose unpruned
/// join is four times what the engine ever inserts.
const REPLAY_POINTS: usize = 200_000;
/// Tuples per `insert_batch` call, about what one region hands the plan.
const BATCH: usize = 8192;

/// Runs `f` [`REPLAY_REPS`] times as `replay:<name>` spans; median seconds
/// and the last result.
fn replay<T>(log: &mut SpanLog, name: &str, mut f: impl FnMut() -> T) -> (T, f64) {
    let label = format!("replay:{name}");
    let mut secs = Vec::with_capacity(REPLAY_REPS);
    let mut last = None;
    for _ in 0..REPLAY_REPS {
        let (out, s) = log.time(&label, None, 0, &mut f);
        secs.push(s);
        last = Some(out);
    }
    let Some(last) = last else {
        unreachable!("REPLAY_REPS > 0")
    };
    (last, median(&secs))
}

/// The first `limit` points of `store`.
fn head(store: &PointStore, limit: usize) -> PointStore {
    let mut out = PointStore::with_capacity(store.stride(), limit.min(store.len()));
    for p in store.iter().take(limit) {
        out.push(p);
    }
    out
}

fn insert_all(plan: &mut SharedSkylinePlan, points: &PointStore, stats: &mut Stats) {
    let mut clock = SimClock::default();
    let stride = points.stride();
    let flat = points.as_flat();
    for (i, chunk) in flat.chunks(BATCH * stride).enumerate() {
        plan.insert_batch(
            (i * BATCH) as u64,
            chunk,
            stride,
            Threads::default(),
            &mut clock,
            stats,
        );
    }
}

fn fresh_plan(g: &JoinGroup, prefs: &[DimMask], assume_dva: bool) -> SharedSkylinePlan {
    let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(prefs), assume_dva);
    if let Some((lo, hi)) = g.regions.mapped_bounds() {
        plan.enable_sig_cache(&lo, &hi);
    }
    plan
}

/// Times every layer below the engine loop and fills its metrics.
pub fn replay_layers(inp: &Inputs, log: &mut SpanLog, m: &mut Metrics) {
    let exec = &inp.exec;
    let session_mode = !inp.events.is_empty();

    // data / ingest
    let (_, s) = replay(log, "data.validate", || {
        (
            validate_table(&inp.r, exec.validation).is_ok(),
            validate_table(&inp.t, exec.validation).is_ok(),
        )
    });
    m.set("data.validate_s", s);
    m.set("data.rows", (inp.r.len() + inp.t.len()) as f64);
    let (_, s) = replay(log, "ingest.prepare", || {
        prepare_inputs(&inp.r, &inp.t, exec, 0, &mut NoopSink).is_ok()
    });
    m.set("ingest.prepare_s", s);

    // partition
    let ((part_r, part_t), s) = replay(log, "partition.build", || {
        (
            Partitioning::build(&inp.r, exec.quadtree),
            Partitioning::build(&inp.t, exec.quadtree),
        )
    });
    m.set("partition.build_s", s);
    m.set("partition.cells", (part_r.len() + part_t.len()) as f64);

    // group = regions + dependency graph + shared-plan set-up
    let (groups, s) = replay(log, "group.build", || {
        build_groups(
            &inp.workload,
            &part_r,
            &part_t,
            exec,
            true,
            true,
            session_mode,
            Threads::default(),
            &mut SimClock::default(),
            &mut Stats::new(),
            &mut NoopSink,
        )
    });
    m.set("group.build_s", s);

    let mut region_stats = Stats::new();
    let (sets, s) = replay(log, "regions.build", || {
        region_stats = Stats::new();
        groups
            .iter()
            .map(|g| {
                build_regions(
                    &RegionBuildInput {
                        part_r: &part_r,
                        part_t: &part_t,
                        join_col: g.join_col,
                        mapping: &g.mapping,
                        queries: g.regions.queries(),
                        coarse_pruning: true,
                        keep_empty: session_mode,
                    },
                    &mut SimClock::default(),
                    &mut region_stats,
                )
            })
            .collect::<Vec<_>>()
    });
    m.set("regions.build_s", s);
    let kept: usize = sets.iter().map(|r| r.len()).sum();
    let husks: usize = sets
        .iter()
        .flat_map(|r| r.regions())
        .filter(|r| r.serving.is_empty())
        .count();
    let dropped = region_stats.regions_pruned as usize;
    m.set("regions.count", (kept - husks) as f64);
    m.set(
        "regions.pruned_share",
        (dropped + husks) as f64 / (kept + dropped).max(1) as f64,
    );
    let (graphs, s) = replay(log, "depgraph.build", || {
        sets.iter()
            .map(|r| DependencyGraph::build(r, &mut SimClock::default(), &mut Stats::new()))
            .collect::<Vec<_>>()
    });
    m.set("depgraph.build_s", s);
    let edges: usize = graphs
        .iter()
        .zip(&sets)
        .map(|(dg, set)| {
            (0..set.len())
                .map(|i| dg.threats_in(RegionId(i as u32)).len())
                .sum::<usize>()
        })
        .sum();
    m.set("depgraph.edges", edges as f64);

    // operators, on the first join group's unpruned join
    let Some(g) = groups.first() else { return };
    let (join, s) = replay(log, "operators.join", || {
        hash_join_project_store(
            inp.r.records(),
            inp.t.records(),
            JoinSpec::on_column(g.join_col),
            &g.mapping,
            &mut SimClock::default(),
            &mut Stats::new(),
        )
    });
    m.set("operators.join_s", s);
    m.set("operators.join_results", join.len() as f64);

    let prefs: Vec<DimMask> = g.regions.queries().iter().map(|(_, p)| *p).collect();
    let Some(widest) = prefs.iter().copied().max_by_key(|p| p.len()) else {
        return;
    };
    let points = head(&join.store, REPLAY_POINTS);
    let inserts = points.len().max(1) as f64;
    let kernel = DomKernel::new(widest, points.stride());
    let (_, s) = replay(log, "operators.sfs", || {
        skyline_sfs_store(
            &points,
            &kernel,
            &mut SimClock::default(),
            &mut Stats::new(),
        )
        .len()
    });
    m.set("operators.sfs_s", s);

    let mut inc_stats = Stats::new();
    let (_, s) = replay(log, "operators.inc_insert", || {
        inc_stats = Stats::new();
        let mut clock = SimClock::default();
        let mut sky = IncrementalSkyline::new(widest);
        for (i, p) in points.iter().enumerate() {
            sky.insert(i as u64, p, &mut clock, &mut inc_stats);
        }
        sky.len()
    });
    m.set("operators.inc_insert_ns", s * 1e9 / inserts);
    m.set(
        "operators.dom_cmps_per_insert",
        inc_stats.dom_comparisons as f64 / inserts,
    );
    if let Some(quant) = SigQuantizer::from_store(&points, widest) {
        let (_, s) = replay(log, "operators.sig_insert", || {
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            let mut sky = SigSkyline::new(widest, quant.clone());
            for (i, p) in points.iter().enumerate() {
                sky.insert(i as u64, p, &mut clock, &mut stats);
            }
            sky.len()
        });
        m.set("operators.sig_insert_ns", s * 1e9 / inserts);
    }

    // cuboid: the shared plan the engine inserts into, and an admission's
    // backfill of one more preference from the same history
    let (plan, s) = replay(log, "cuboid.insert_batch", || {
        let mut plan = fresh_plan(g, &prefs, exec.assume_dva);
        insert_all(&mut plan, &points, &mut Stats::new());
        plan
    });
    m.set("cuboid.insert_batch_s", s);
    m.set("cuboid.insert_ns_per_tuple", s * 1e9 / inserts);
    m.set("cuboid.subspaces", plan.cuboid().len() as f64);
    // The arrival is the widest preference: no subspace the others keep
    // covers it, so its admission backfills a new top of the lattice.
    let earlier: Vec<DimMask> = prefs.iter().copied().filter(|p| *p != widest).collect();
    if !earlier.is_empty() {
        let arrival = widest;
        let mut base = fresh_plan(g, &earlier, exec.assume_dva);
        insert_all(&mut base, &points, &mut Stats::new());
        // Cloned ahead of the timed calls: the span is the admission alone.
        let mut copies: Vec<SharedSkylinePlan> = vec![base; REPLAY_REPS];
        let (_, s) = replay(log, "cuboid.admit_backfill", || {
            let Some(mut plan) = copies.pop() else { return };
            plan.admit_query(
                arrival,
                &points,
                &mut SimClock::default(),
                &mut Stats::new(),
            );
        });
        m.set("cuboid.admit_backfill_s", s);
    }
}

/// plan: cold build + memoize, save, load of the workload's own plan. Not
/// for `serve_restart`, whose `plan.*` metrics are the server's plan.
pub fn replay_plan(inp: &Inputs, out_dir: &Path, log: &mut SpanLog, m: &mut Metrics) {
    let exec = &inp.exec;
    let session_mode = !inp.events.is_empty();
    let engine = EngineConfig::caqe();
    let needs_dg = engine.progressive_emission
        || engine.dominance_discard
        || engine.policy != SchedulingPolicy::Fifo;
    let (plan, s) = replay(log, "plan.build", || {
        let mut plan = PreparedPlan::build(&inp.r, &inp.t, exec);
        plan.memoize(
            &inp.workload,
            exec,
            engine.coarse_pruning,
            needs_dg,
            session_mode,
        );
        plan
    });
    m.set("plan.build_s", s);
    let path = out_dir.join(format!("replay.{}.caqeplan", std::process::id()));
    let (saved, s) = replay(log, "plan.save", || plan.save(&path).is_ok());
    if saved {
        m.set("plan.save_s", s);
        m.set(
            "plan.bytes",
            std::fs::metadata(&path).map_or(0, |f| f.len()) as f64,
        );
        let (_, s) = replay(log, "plan.load", || {
            PreparedPlan::load(&path, &inp.r, &inp.t, exec).is_ok()
        });
        m.set("plan.load_s", s);
    }
    let _ = std::fs::remove_file(&path);
}
