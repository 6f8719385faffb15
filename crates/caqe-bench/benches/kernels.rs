//! Criterion micro-benchmarks of the live dominance, skyline and join
//! kernels: the flat `PointStore`/`DomKernel` paths (DESIGN.md §12), and
//! BNL and the incremental skyline window with and without their signature
//! screens (DESIGN.md §15, §17). Results and charges are asserted equal
//! elsewhere (`tests/property_kernels.rs`, `tests/property_skyline.rs`); CI
//! runs this suite in quick mode as a smoke test.

use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{
    hash_join_project_store, skyline_bnl_store, skyline_sfs_store, IncrementalSkyline, JoinSpec,
    MappingSet,
};
use caqe_types::sig::SigQuantizer;
use caqe_types::{DimMask, DomKernel, PointStore, SimClock, Stats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn points(n: usize, d: usize, dist: Distribution) -> Vec<Vec<f64>> {
    TableGenerator::new(n, d, dist)
        .generate("B")
        .records()
        .iter()
        .map(|r| r.vals.clone())
        .collect()
}

fn intern(pts: &[Vec<f64>], d: usize) -> PointStore {
    let mut store = PointStore::with_capacity(d, pts.len());
    for p in pts {
        store.push(p);
    }
    store
}

fn bench_skyline_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/skyline");
    for dist in Distribution::ALL {
        let pts = points(1500, 4, dist);
        let mask = DimMask::full(4);
        let store = intern(&pts, 4);
        let kernel = DomKernel::new(mask, 4);
        group.bench_with_input(
            BenchmarkId::new("flat_bnl", dist.label()),
            &store,
            |b, store| {
                b.iter(|| {
                    let mut clock = SimClock::default();
                    let mut stats = Stats::new();
                    black_box(skyline_bnl_store(
                        store, &kernel, None, &mut clock, &mut stats,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("flat_sfs", dist.label()),
            &store,
            |b, store| {
                b.iter(|| {
                    let mut clock = SimClock::default();
                    let mut stats = Stats::new();
                    black_box(skyline_sfs_store(store, &kernel, &mut clock, &mut stats))
                })
            },
        );
    }
    // JFSL's regime: a 5-dim full-space BNL over anticorrelated points,
    // whose window grows to ~1 200 members, with and without the signature
    // skip in its walk (DESIGN.md §17).
    let (d, mask) = (5, DimMask::full(5));
    let store = intern(&points(2000, d, Distribution::Anticorrelated), d);
    let kernel = DomKernel::new(mask, d);
    #[allow(clippy::expect_used)]
    let quant = SigQuantizer::from_store(&store, mask).expect("5 dims fit a signature");
    for (arm, screen) in [("unscreened", None), ("screened", Some(&quant))] {
        group.bench_function(BenchmarkId::new("flat_bnl_5d", arm), |b| {
            b.iter(|| {
                let mut clock = SimClock::default();
                let mut stats = Stats::new();
                black_box(skyline_bnl_store(
                    &store, &kernel, screen, &mut clock, &mut stats,
                ))
            })
        });
    }
    group.finish();
}

fn bench_incremental_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/incremental");
    // A 2-dim subspace of 4-dim points (a window of tens of members), and
    // the 5-dim full space of `anti_tuple`'s widest preference (hundreds,
    // where the reject and evict scans dominate).
    let shapes = [
        ("", 4, DimMask::from_dims([0, 2])),
        ("_5d", 5, DimMask::full(5)),
    ];
    for (suffix, d, mask) in shapes {
        let pts = points(2000, d, Distribution::Anticorrelated);
        let quant = {
            let store = intern(&pts, d);
            #[allow(clippy::expect_used)]
            SigQuantizer::from_store(&store, mask).expect("the subspace fits a signature")
        };
        // The same window, without and with its screen (which quantizes
        // each arriving point itself).
        for (name, screened) in [
            ("window_insert_stream", false),
            ("screened_insert_stream", true),
        ] {
            group.bench_function(format!("{name}{suffix}"), |b| {
                b.iter(|| {
                    let mut sky = if screened {
                        IncrementalSkyline::screened(mask, quant.clone())
                    } else {
                        IncrementalSkyline::new(mask)
                    };
                    let mut clock = SimClock::default();
                    let mut stats = Stats::new();
                    for (i, p) in pts.iter().enumerate() {
                        black_box(sky.insert(i as u64, p, &mut clock, &mut stats));
                    }
                    sky.len()
                })
            });
        }
    }
    bench_screened_rejects(&mut group);
    group.finish();
}

/// The regime `anti_tuple`'s windows live in: a 5-dim screened window of
/// ~700 anticorrelated members meets a stream of candidates that are all
/// rejected, three in four by one of its first eight members and the rest
/// by a member anywhere in it. Every candidate is rejected, so the window
/// never changes and is filled once, outside the timed loop.
fn bench_screened_rejects(group: &mut criterion::BenchmarkGroup<'_>) {
    let (d, mask) = (5, DimMask::full(5));
    // 1 000 points leave 713 members in the full-space window.
    let pts = points(1000, d, Distribution::Anticorrelated);
    #[allow(clippy::expect_used)]
    let quant = SigQuantizer::from_store(&intern(&pts, d), mask).expect("5 dims fit a signature");
    let mut sky = IncrementalSkyline::screened(mask, quant);
    let (mut clock, mut stats) = (SimClock::default(), Stats::new());
    for (i, p) in pts.iter().enumerate() {
        sky.insert(i as u64, p, &mut clock, &mut stats);
    }
    let members: Vec<&[f64]> = sky.entries().map(|(_, p)| p).collect();
    // Each candidate is its dominator plus a small positive step per dimension.
    let candidates: Vec<Vec<f64>> = (0..2000)
        .map(|i| {
            let k = if i % 4 == 3 {
                (i * 37) % members.len()
            } else {
                (i * 5) % 8
            };
            let step = 1e-3 * (1 + i % 7) as f64;
            members[k].iter().map(|v| v + step).collect()
        })
        .collect();
    group.bench_function("screened_reject_stream_5d", |b| {
        b.iter(|| {
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            for p in &candidates {
                black_box(sky.insert(u64::MAX, p, &mut clock, &mut stats));
            }
            stats.dom_comparisons
        })
    });
}

fn bench_join_kernels(c: &mut Criterion) {
    let gen = TableGenerator::new(1200, 2, Distribution::Independent)
        .with_selectivities(&[0.02])
        .with_seed(0xBE11C);
    let r = gen.generate("R");
    let t = gen.generate("T");
    let mapping = MappingSet::mixed(2, 2, 4);
    let spec = JoinSpec::on_column(0);
    let mut group = c.benchmark_group("kernels/join");
    group.bench_function("flat_sorted_runs", |b| {
        b.iter(|| {
            let mut clock = SimClock::default();
            let mut stats = Stats::new();
            black_box(hash_join_project_store(
                r.records(),
                t.records(),
                spec,
                &mapping,
                &mut clock,
                &mut stats,
            ))
            .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_skyline_kernels,
    bench_incremental_kernels,
    bench_join_kernels
);
criterion_main!(benches);
