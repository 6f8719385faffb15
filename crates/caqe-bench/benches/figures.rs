//! Wall-clock Criterion benchmarks of the paper's figure workloads at a
//! reduced scale: one benchmark per figure, timing each compared system on
//! the exact experimental cell its figure uses. (The figures themselves —
//! satisfaction values, counters, virtual times — are regenerated by the
//! `paper` binary's `fig9`/`fig10`/`fig11` sections; these benches track
//! the *wall cost* of running them so performance regressions in the
//! engine are caught.)

use caqe_baselines::all_strategies;
use caqe_bench::ExperimentConfig;
use caqe_core::ExecutionStrategy;
use caqe_data::Distribution;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn small_cell(dist: Distribution, contract: usize, queries: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(dist, contract);
    cfg.n = 600;
    cfg.workload_size = queries;
    cfg.cells_per_table = 8;
    cfg.reference_secs = Some(10.0);
    cfg
}

/// Figure 9 cells: all five systems per distribution under contract C2.
fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    for dist in Distribution::ALL {
        let cfg = small_cell(dist, 2, 6);
        let (r, t) = cfg.tables();
        let w = cfg.workload();
        let exec = cfg.exec();
        for strategy in all_strategies() {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), dist.label()),
                &(),
                |b, _| b.iter(|| black_box(strategy.run(&r, &t, &w, &exec)).total_results()),
            );
        }
    }
    group.finish();
}

/// Figure 10's cost regime: the C2 cell on independent data, timing the
/// full five-system comparison.
fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    let cfg = small_cell(Distribution::Independent, 2, 6);
    let (r, t) = cfg.tables();
    let w = cfg.workload();
    let exec = cfg.exec();
    group.bench_function("all_systems_independent", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for strategy in all_strategies() {
                total += strategy.run(&r, &t, &w, &exec).stats.join_results;
            }
            black_box(total)
        })
    });
    group.finish();
}

/// Figure 11's workload-size sweep: CAQE at |S_Q| ∈ {1, 6, 11}.
fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);
    for size in [1usize, 6, 11] {
        let cfg = small_cell(Distribution::Independent, 3, size);
        let (r, t) = cfg.tables();
        let w = cfg.workload();
        let exec = cfg.exec();
        group.bench_with_input(BenchmarkId::new("caqe", size), &(), |b, _| {
            b.iter(|| {
                black_box(caqe_core::EngineStrategy::CAQE.run(&r, &t, &w, &exec)).total_results()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig9, bench_fig10, bench_fig11);
criterion_main!(benches);
