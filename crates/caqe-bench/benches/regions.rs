//! Micro-benchmarks for the per-region upkeep of Algorithm 1 (§5.3–§6) at
//! the benchmark's `anti_lookahead` shape — anticorrelated, 1000 rows, a
//! 26-cell budget, 5 output dimensions, 11 queries, a few hundred regions
//! with ~10^5 Definition 9 edges: the Definition 11 threat counts, the §6
//! cell discard, the dependency graph's build and its removals. Each
//! iteration clones the built state first — a small share of the first two;
//! for the removals `depgraph_clone` is the baseline to subtract.

use caqe_data::{Distribution, TableGenerator};
use caqe_operators::MappingSet;
use caqe_partition::{Partitioning, QuadTreeConfig};
use caqe_regions::{
    build_regions, DependencyGraph, NewPoints, RegionBuildInput, RegionSet, ThreatCounts,
};
use caqe_types::{DimMask, QueryId, RegionId, SimClock, Stats};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn lookahead_state() -> (RegionSet, DependencyGraph) {
    let prefs = [
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
    ];
    let queries: Vec<(QueryId, DimMask)> = (0..).map(QueryId).zip(prefs).collect();
    // The benchmark's value draw (its `DEFAULT_SEED`).
    let gen = TableGenerator::new(1000, 3, Distribution::Anticorrelated)
        .with_selectivities(&[0.02])
        .with_seed(0xEDB7);
    let (r, t) = (gen.generate("R"), gen.generate("T"));
    let input = RegionBuildInput {
        part_r: &Partitioning::build(&r, QuadTreeConfig::with_cell_budget(26)),
        part_t: &Partitioning::build(&t, QuadTreeConfig::with_cell_budget(26)),
        join_col: 0,
        mapping: &MappingSet::mixed(3, 3, 5),
        queries: &queries,
        coarse_pruning: true,
        keep_empty: false,
    };
    let (mut clock, mut stats) = (SimClock::default(), Stats::new());
    let set = build_regions(&input, &mut clock, &mut stats);
    let dg = DependencyGraph::build(&set, &mut clock, &mut stats);
    (set, dg)
}

fn region_ids(set: &RegionSet) -> impl Iterator<Item = RegionId> {
    (0..set.len() as u32).map(RegionId)
}

fn bench_upkeep(c: &mut Criterion) {
    let (set, dg) = lookahead_state();
    let mut group = c.benchmark_group(&format!("upkeep_{}_regions", set.len()));

    // The first reconcile counts every edge; then the regions finish one at
    // a time, each followed by the reconcile the next ranking would ask for.
    group.bench_function("threat_counts_fill_and_drain", |b| {
        b.iter(|| {
            let mut set = set.clone();
            let mut table = ThreatCounts::default();
            table.reconcile(&set, &dg);
            for rid in region_ids(&set) {
                set.region_mut(rid).processed = true;
                table.reconcile(&set, &dg);
            }
            black_box(table)
        })
    });

    // Every region in turn discards along its out-edges with two new
    // skyline points per query: its best corner and its centre.
    group.bench_function("discard_dominated_cells", |b| {
        b.iter(|| {
            let mut set = set.clone();
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            for rid in region_ids(&set) {
                let bounds = &set.region(rid).bounds;
                let corners = [bounds.lo().to_vec(), bounds.center()];
                let news =
                    NewPoints::new(bounds.dims(), corners.iter().map(Vec::as_slice).collect());
                for e in dg.threats_out(rid) {
                    for lq in 0..set.queries().len() {
                        let (q, pref) = set.queries()[lq];
                        let peer = set.region_mut(e.peer);
                        if e.queries.contains(q) && peer.serving.contains(q) {
                            peer.discard_dominated(q, pref, &news, &mut clock, &mut stats);
                        }
                    }
                }
            }
            black_box((set, stats.region_comparisons))
        })
    });

    group.bench_function("depgraph_build", |b| {
        b.iter(|| {
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            black_box(DependencyGraph::build(&set, &mut clock, &mut stats))
        })
    });

    group.bench_function("depgraph_clone", |b| b.iter(|| black_box(dg.clone())));
    group.bench_function("depgraph_remove_all", |b| {
        b.iter(|| {
            let mut dg = dg.clone();
            let promoted: usize = region_ids(&set).map(|rid| dg.remove(rid).len()).sum();
            black_box((dg, promoted))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_upkeep);
criterion_main!(benches);
