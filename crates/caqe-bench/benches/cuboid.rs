//! Micro-benchmarks for the shared-plan machinery: min-max cuboid
//! construction, batched shared skyline insertion — the path the engine
//! runs — with and without Theorem 1's sharing (both halves), §6's row test
//! of a batch of row images, and region construction with the coarse
//! skyline.

use caqe_cuboid::{BatchOutcome, MinMaxCuboid, RowTests, SharedSkylinePlan};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{hash_join_project_store, JoinSpec, MappingSet};
use caqe_parallel::Threads;
use caqe_partition::{Partitioning, QuadTreeConfig};
use caqe_regions::{build_regions, DependencyGraph, RegionBuildInput};
use caqe_types::{DimMask, QueryId, SimClock, Stats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn workload_prefs() -> Vec<DimMask> {
    vec![
        DimMask::from_dims([0, 1]),
        DimMask::from_dims([1, 2, 3]),
        DimMask::from_dims([0, 1, 2, 3, 4]),
        DimMask::from_dims([2, 3]),
        DimMask::from_dims([0, 2, 4]),
        DimMask::from_dims([1, 2, 3, 4]),
        DimMask::from_dims([3, 4]),
        DimMask::from_dims([0, 1, 2]),
        DimMask::from_dims([0, 1, 3, 4]),
        DimMask::from_dims([1, 4]),
        DimMask::from_dims([2, 3, 4]),
    ]
}

fn bench_cuboid_build(c: &mut Criterion) {
    let prefs = workload_prefs();
    c.bench_function("minmax_cuboid_build_11q_5d", |b| {
        b.iter(|| black_box(MinMaxCuboid::build(&prefs)))
    });
}

/// `n` generated 5-dimensional tuples, flat.
fn generated(dist: Distribution, n: usize) -> Vec<f64> {
    TableGenerator::new(n, 5, dist)
        .generate("P")
        .records()
        .iter()
        .flat_map(|r| r.vals.iter().copied())
        .collect()
}

/// The 5-dimensional results of joining two generated 3-dimensional tables
/// of `rows` rows under the engine's mixed mapping, flat: tuples that share
/// a base row tie on its dimensions, as the engine's do.
fn joined(dist: Distribution, rows: usize) -> Vec<f64> {
    let mapping = MappingSet::mixed(3, 3, 5);
    let gen = TableGenerator::new(rows, 3, dist).with_selectivities(&[0.01]);
    let (r, t) = (gen.generate("R"), gen.generate("T"));
    let (mut clock, mut stats) = (SimClock::default(), Stats::new());
    let spec = JoinSpec::on_column(0);
    let join = hash_join_project_store(
        r.records(),
        t.records(),
        spec,
        &mapping,
        &mut clock,
        &mut stats,
    );
    join.store.as_flat().to_vec()
}

/// Times a plan that already holds the 5-dimensional tuples `warm` (a
/// clone, made inside the timed loop) taking the tuples `flat` in
/// `insert_batch` calls of `batch`, and, without Theorem 1's sharing, in
/// `backfill` calls over every window. The plan screens signatures over
/// the tuples' bounds, as every plan the engine runs does.
fn bench_insert_batches(
    c: &mut Criterion,
    group: &str,
    (warm, flat): (&[f64], &[f64]),
    batch: usize,
) {
    let prefs = workload_prefs();
    let stride = 5;
    let mut warmed = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
    let (mut lo, mut hi) = (vec![f64::INFINITY; stride], vec![f64::NEG_INFINITY; stride]);
    for p in warm.chunks(stride).chain(flat.chunks(stride)) {
        for (k, &v) in p.iter().enumerate() {
            (lo[k], hi[k]) = (lo[k].min(v), hi[k].max(v));
        }
    }
    warmed.enable_sig_cache(&lo, &hi);
    let (mut clock, mut stats) = (SimClock::default(), Stats::new());
    let mut outcome = BatchOutcome::default();
    warmed.insert_batch_into(0, warm, stride, &mut clock, &mut stats, &mut outcome);
    let tags = (warm.len() / stride) as u64;
    let mut group = c.benchmark_group(group);
    for shortcut in [true, false] {
        group.bench_with_input(
            BenchmarkId::new("theorem1", shortcut),
            &shortcut,
            |b, &shortcut| {
                b.iter(|| {
                    let mut plan = warmed.clone();
                    let mut clock = SimClock::default();
                    let mut stats = Stats::new();
                    for (i, vals) in flat.chunks(batch * stride).enumerate() {
                        let first = tags + (i * batch) as u64;
                        if shortcut {
                            black_box(plan.insert_batch(
                                first,
                                vals,
                                stride,
                                Threads::default(),
                                &mut clock,
                                &mut stats,
                            ));
                        } else {
                            let every = plan.all_windows();
                            plan.backfill(every, first, vals, stride, &mut clock, &mut stats);
                        }
                    }
                    stats.dom_comparisons
                })
            },
        );
    }
    group.finish();
}

fn bench_shared_insert(c: &mut Criterion) {
    // A small region's worth of join results per call: mid-sized windows.
    let group = "shared_plan_insert_batch_2000";
    let independent = generated(Distribution::Independent, 2000);
    bench_insert_batches(c, group, (&[], &independent), 64);
    // The engine's real batch on correlated data — one call, one big
    // region — where nearly every tuple meets windows of about one member.
    let group = "shared_plan_insert_batch_correlated_10000";
    let correlated = generated(Distribution::Correlated, 10_000);
    bench_insert_batches(c, group, (&[], &correlated), 10_000);
    // The last 4,000 of about 10,000 join results of anticorrelated tables,
    // into screened windows that hold the rest: the full-space window finds
    // a dominator for most candidates, and the front seldom is it — the
    // regime Theorem 1's top-down half is for. 1,000 is the mean batch of
    // an `anti_tuple` benchmark run.
    let group = "shared_plan_insert_batch_anticorrelated_4000";
    let anticorrelated = joined(Distribution::Anticorrelated, 1024);
    let split = anticorrelated.len() - 4000 * 5;
    let (warm, last) = anticorrelated.split_at(split);
    bench_insert_batches(c, group, (warm, last), 1000);
}

/// Times the row test on 1,024 row images — each R row over the lower corner
/// of one of 12 T cells, as the engine's best images are — against every
/// window of a plan seeded with the whole join, anticorrelated and
/// independent. Each row may examine 4 members per window.
fn bench_row_tests(c: &mut Criterion) {
    let prefs = workload_prefs();
    let mapping = MappingSet::mixed(3, 3, 5);
    let stride = mapping.output_dims();
    let mut group = c.benchmark_group("row_test_1024");
    for dist in [Distribution::Anticorrelated, Distribution::Independent] {
        let gen = TableGenerator::new(1024, 3, dist).with_selectivities(&[0.01]);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let (mut clock, mut stats) = (SimClock::default(), Stats::new());
        let spec = JoinSpec::on_column(0);
        let join = hash_join_project_store(
            r.records(),
            t.records(),
            spec,
            &mapping,
            &mut clock,
            &mut stats,
        );
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let vals = join.store.as_flat();
        let mut outcome = BatchOutcome::default();
        plan.insert_batch_into(0, vals, stride, &mut clock, &mut stats, &mut outcome);
        let cells = Partitioning::build(&t, QuadTreeConfig::with_cell_budget(12));
        let cells = cells.cells();
        let mut images = Vec::new();
        for (i, rec) in r.records().iter().enumerate() {
            let corner = cells[i % cells.len()].bounds.lo();
            mapping.apply_into(&rec.vals, corner, &mut images);
        }
        let windows = plan.all_windows();
        let budget = 4 * u64::from(windows.count_ones());
        let mut tests = RowTests::default();
        group.bench_function(BenchmarkId::from_parameter(format!("{dist:?}")), |b| {
            b.iter(|| {
                tests.clear();
                r.records().iter().for_each(|_| tests.push(budget));
                let (mut clock, mut stats) = (SimClock::default(), Stats::new());
                plan.dominated_rows(windows, &images, stride, &mut tests, &mut clock, &mut stats);
                black_box(stats.dom_comparisons)
            })
        });
    }
    group.finish();
}

fn bench_region_build(c: &mut Criterion) {
    let gen = TableGenerator::new(4000, 3, Distribution::Independent).with_selectivities(&[0.02]);
    let r = gen.generate("R");
    let t = gen.generate("T");
    let pr = Partitioning::build(&r, QuadTreeConfig::with_cell_budget(16));
    let pt = Partitioning::build(&t, QuadTreeConfig::with_cell_budget(16));
    let mapping = MappingSet::mixed(3, 3, 5);
    let queries: Vec<(QueryId, DimMask)> = workload_prefs()
        .into_iter()
        .enumerate()
        .map(|(i, m)| (QueryId(i as u16), m))
        .collect();
    let mut group = c.benchmark_group("lookahead");
    for prune in [true, false] {
        group.bench_with_input(
            BenchmarkId::new("regions+dg", prune),
            &prune,
            |b, &prune| {
                b.iter(|| {
                    let input = RegionBuildInput {
                        part_r: &pr,
                        part_t: &pt,
                        join_col: 0,
                        mapping: &mapping,
                        queries: &queries,
                        coarse_pruning: prune,
                        keep_empty: false,
                    };
                    let mut clock = SimClock::default();
                    let mut stats = Stats::new();
                    let set = build_regions(&input, &mut clock, &mut stats);
                    let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
                    black_box((set.len(), dg.threats_in(caqe_types::RegionId(0)).len()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cuboid_build,
    bench_shared_insert,
    bench_row_tests,
    bench_region_build
);
criterion_main!(benches);
