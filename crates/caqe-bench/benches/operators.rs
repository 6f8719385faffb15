//! Micro-benchmarks for the single-query operators: skyline algorithms over
//! the three canonical distributions, joins, and quad-tree partitioning.

use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{
    hash_join_project_store, nested_loop_join_project, skyline_bnl_store, skyline_sfs_store,
    JoinSpec, MappingSet,
};
use caqe_partition::{Partitioning, QuadTreeConfig};
use caqe_types::{DimMask, DomKernel, PointStore, SimClock, Stats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn points(n: usize, d: usize, dist: Distribution) -> PointStore {
    let mut store = PointStore::with_capacity(d, n);
    for r in TableGenerator::new(n, d, dist).generate("B").records() {
        store.push(&r.vals);
    }
    store
}

fn bench_skylines(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyline");
    for dist in Distribution::ALL {
        let pts = points(2000, 4, dist);
        let kernel = DomKernel::new(DimMask::full(4), 4);
        group.bench_with_input(BenchmarkId::new("bnl", dist.label()), &pts, |b, pts| {
            b.iter(|| {
                let mut clock = SimClock::default();
                let mut stats = Stats::new();
                black_box(skyline_bnl_store(
                    pts, &kernel, None, &mut clock, &mut stats,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("sfs", dist.label()), &pts, |b, pts| {
            b.iter(|| {
                let mut clock = SimClock::default();
                let mut stats = Stats::new();
                black_box(skyline_sfs_store(pts, &kernel, &mut clock, &mut stats))
            })
        });
    }
    group.finish();
}

fn bench_joins(c: &mut Criterion) {
    let gen = TableGenerator::new(1000, 2, Distribution::Independent).with_selectivities(&[0.02]);
    let r = gen.generate("R");
    let t = gen.generate("T");
    let mapping = MappingSet::mixed(2, 2, 4);
    let mut group = c.benchmark_group("join");
    group.bench_function("hash", |b| {
        b.iter(|| {
            let mut clock = SimClock::default();
            let mut stats = Stats::new();
            black_box(hash_join_project_store(
                r.records(),
                t.records(),
                JoinSpec::on_column(0),
                &mapping,
                &mut clock,
                &mut stats,
            ))
        })
    });
    group.bench_function("nested_loop", |b| {
        b.iter(|| {
            let mut clock = SimClock::default();
            let mut stats = Stats::new();
            black_box(nested_loop_join_project(
                r.records(),
                t.records(),
                JoinSpec::on_column(0),
                &mapping,
                &mut clock,
                &mut stats,
            ))
        })
    });
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let t = TableGenerator::new(10_000, 3, Distribution::Independent).generate("R");
    let mut group = c.benchmark_group("quadtree");
    for cells in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("budget", cells), &cells, |b, &cells| {
            b.iter(|| {
                black_box(Partitioning::build(
                    &t,
                    QuadTreeConfig::with_cell_budget(cells),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_skylines, bench_joins, bench_partitioning);
criterion_main!(benches);
