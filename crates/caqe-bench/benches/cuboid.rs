//! Micro-benchmarks for the shared-plan machinery: min-max cuboid
//! construction, batched shared skyline insertion — the path the engine
//! runs — with and without the Theorem 1 shortcut, and region construction
//! with the coarse skyline.

use caqe_cuboid::{MinMaxCuboid, SharedSkylinePlan};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::MappingSet;
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

/// Times a fresh plan taking `n` generated 5-dimensional tuples in
/// `insert_batch` calls of `batch`, with and without the Theorem 1 shortcut.
fn bench_insert_batches(
    c: &mut Criterion,
    group: &str,
    dist: Distribution,
    n: usize,
    batch: usize,
) {
    let prefs = workload_prefs();
    let stride = 5;
    let flat: Vec<f64> = TableGenerator::new(n, stride, dist)
        .generate("P")
        .records()
        .iter()
        .flat_map(|r| r.vals.iter().copied())
        .collect();
    let mut group = c.benchmark_group(group);
    for dva in [true, false] {
        group.bench_with_input(BenchmarkId::new("theorem1", dva), &dva, |b, &dva| {
            b.iter(|| {
                let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), dva);
                let mut clock = SimClock::default();
                let mut stats = Stats::new();
                for (i, vals) in flat.chunks(batch * stride).enumerate() {
                    black_box(plan.insert_batch(
                        (i * batch) as u64,
                        vals,
                        stride,
                        Threads::default(),
                        &mut clock,
                        &mut stats,
                    ));
                }
                stats.dom_comparisons
            })
        });
    }
    group.finish();
}

fn bench_shared_insert(c: &mut Criterion) {
    // A small region's worth of join results per call: mid-sized windows.
    let group = "shared_plan_insert_batch_2000";
    bench_insert_batches(c, group, Distribution::Independent, 2000, 64);
    // The engine's real batch on correlated data — one call, one big
    // region — where nearly every tuple meets windows of about one member.
    let group = "shared_plan_insert_batch_correlated_10000";
    bench_insert_batches(c, group, Distribution::Correlated, 10_000, 10_000);
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
    bench_region_build
);
criterion_main!(benches);
