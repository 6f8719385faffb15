//! Coarse-level join and skyline: building the region collection (§5.1–5.2).

use crate::region::{OutputRegion, RegionSet};
use caqe_cuboid::MinMaxCuboid;
use caqe_operators::MappingSet;
use caqe_partition::Partitioning;
use caqe_types::ids::QuerySet;
use caqe_types::{DimMask, DomKernel, QueryId, RegionId, SimClock, Stats};

/// Inputs for region construction for one join group: queries that share a
/// join condition and mapping functions but differ in skyline dimensions.
pub struct RegionBuildInput<'a> {
    /// Quad-tree partitioning of the R table.
    pub part_r: &'a Partitioning,
    /// Quad-tree partitioning of the T table.
    pub part_t: &'a Partitioning,
    /// Join column shared by the group's queries.
    pub join_col: usize,
    /// Mapping functions shared by the group's queries.
    pub mapping: &'a MappingSet,
    /// `(global query id, preference subspace)` of the group's queries.
    pub queries: &'a [(QueryId, DimMask)],
    /// Whether to run the coarse-level skyline (§5.2). CAQE and ProgXe+
    /// prune; the blind-pipelining S-JFSL baseline does not.
    pub coarse_pruning: bool,
    /// Keep regions whose serving set becomes empty instead of dropping
    /// them. Online sessions need this: a region pruned for today's queries
    /// may serve a query admitted tomorrow, and stable region ids let the
    /// session layer revive it in place.
    pub keep_empty: bool,
}

/// Builds the output regions of one join group.
///
/// 1. **Coarse join** (Example 15): a cell pair becomes a region iff its
///    signatures for the group's join column intersect — which guarantees
///    at least one real join result.
/// 2. **Coarse skyline** (§5.2, Example 16): bottom-up over the group's
///    min-max cuboid, a region fully dominated by another region in a
///    query's preference subspace is removed from that query's lineage;
///    Theorem 1 skips re-checking regions already known non-dominated from
///    a child subspace. Regions left serving no query are pruned and
///    counted in `stats.regions_pruned`.
///
/// Every region-level dominance test charges one comparison: CAQE pays for
/// its look-ahead in the same currency as everyone else.
pub fn build_regions(
    input: &RegionBuildInput<'_>,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> RegionSet {
    let RegionBuildInput {
        part_r,
        part_t,
        join_col,
        mapping,
        queries,
        coarse_pruning,
        keep_empty,
    } = input;

    let all_queries: QuerySet = queries.iter().map(|(q, _)| *q).collect();

    // Coarse-level join: enumerate feasible cell pairs.
    let mut regions: Vec<OutputRegion> = Vec::new();
    for rc in part_r.cells() {
        for tc in part_t.cells() {
            let common = rc
                .signature(*join_col)
                .intersection_size(tc.signature(*join_col));
            if common == 0 {
                continue;
            }
            let bounds = mapping.apply_bounds(&rc.bounds, &tc.bounds);
            // Expected matches assuming keys spread uniformly inside cells.
            let da = rc.signature(*join_col).len().max(1) as f64;
            let db = tc.signature(*join_col).len().max(1) as f64;
            let est_join = (common as f64) * (rc.len() as f64 / da) * (tc.len() as f64 / db);
            regions.push(OutputRegion::new(
                RegionId(regions.len() as u32),
                rc.id,
                tc.id,
                bounds,
                rc.len(),
                tc.len(),
                est_join.max(1.0),
                all_queries,
            ));
        }
    }

    if *coarse_pruning {
        coarse_skyline(&mut regions, queries, clock, stats);
    }

    // Drop regions serving nobody; reassign dense ids. Online sessions keep
    // the empty husks instead (`keep_empty`) — ids are already dense and a
    // later admission may revive them.
    if !*keep_empty {
        let before = regions.len();
        regions.retain(|r| !r.serving.is_empty());
        stats.regions_pruned += (before - regions.len()) as u64;
        for (i, r) in regions.iter_mut().enumerate() {
            r.id = RegionId(i as u32);
        }
    }

    RegionSet::new(regions, queries.to_vec())
}

/// Bottom-up coarse skyline over the group's min-max cuboid.
///
/// Per subspace the regions are processed in ascending monotone score of
/// their lower corner: a region can only be fully dominated by a region
/// that sorts earlier, and a region dominated by `j` is also dominated by
/// whatever dominates `j` — so each region need only be compared against
/// the current *window* of non-dominated regions (SFS-style).
fn coarse_skyline(
    regions: &mut [OutputRegion],
    queries: &[(QueryId, DimMask)],
    clock: &mut SimClock,
    stats: &mut Stats,
) {
    if regions.is_empty() {
        return;
    }
    // Build a *local* cuboid over the group's preferences.
    let prefs: Vec<DimMask> = queries.iter().map(|(_, m)| *m).collect();
    let cuboid = MinMaxCuboid::build(&prefs);
    let n = regions.len();
    // Flat row-major table of region upper corners for the packed corner
    // scan (DESIGN.md §15) — uncharged preprocessing, like the score
    // precompute below.
    let stride = regions[0].bounds.lo().len();
    let mut his: Vec<f64> = Vec::with_capacity(n * stride);
    for r in regions.iter() {
        his.extend_from_slice(r.bounds.hi());
    }
    // survivors[s] = bitvec over regions: non-dominated in subspace s.
    let mut survivors: Vec<Vec<bool>> = Vec::with_capacity(cuboid.len());

    for s in 0..cuboid.len() {
        let mask = cuboid.subspaces()[s];
        let children = cuboid.children(s);
        let kernel = DomKernel::new(mask, stride);
        let mut surv = vec![true; n];
        let mut order: Vec<usize> = (0..n).collect();
        // Precompute each region's lower-corner monotone score once —
        // O(n·d) instead of O(n log n · d) inside the sort comparator. The
        // dimension list is walked once per subspace, not once per access.
        let dims: Vec<usize> = mask.iter().collect();
        let scores: Vec<f64> = regions
            .iter()
            .map(|r| dims.iter().map(|&k| r.bounds.lo()[k]).sum())
            .collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        let mut window: Vec<usize> = Vec::new();
        for &i in &order {
            // Theorem 1 (region form): non-dominated in a kept child
            // subspace ⇒ non-dominated here.
            let skip_check = children.iter().any(|&c| survivors[c][i]);
            let mut dominated = false;
            if !skip_check {
                // The window only grows, so the scan needs nothing but the
                // first dominator position per 64-lane block; one region
                // test is charged per member up to and including it.
                let lo = regions[i].bounds.lo();
                let mut examined = 0u64;
                for chunk in window.chunks(64) {
                    let dom = kernel.dominate_block_corners(&his, stride, chunk, lo);
                    if dom != 0 {
                        examined += u64::from(dom.trailing_zeros()) + 1;
                        dominated = true;
                        break;
                    }
                    examined += chunk.len() as u64;
                }
                clock.charge_dom_cmps(examined);
                stats.region_comparisons += examined;
            }
            if dominated {
                surv[i] = false;
            } else {
                window.push(i);
            }
        }
        survivors.push(surv);
    }

    // A region serves query q only if it survives in subspace P_q.
    for (local, &(q, _)) in queries.iter().enumerate() {
        let s = cuboid.query_subspace(QueryId(local as u16));
        for (i, region) in regions.iter_mut().enumerate() {
            if !survivors[s][i] {
                region.kill_query(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_data::{Distribution, TableGenerator};
    use caqe_operators::MappingSet;
    use caqe_partition::{Partitioning, QuadTreeConfig};

    fn setup(n: usize, dist: Distribution) -> (Partitioning, Partitioning, MappingSet) {
        let r = TableGenerator::new(n, 2, dist)
            .with_selectivities(&[0.05])
            .generate("R");
        let t = TableGenerator::new(n, 2, dist)
            .with_selectivities(&[0.05])
            .generate("T");
        let cfg = QuadTreeConfig {
            max_leaf_size: n / 8,
            max_depth: 6,
            max_cells: usize::MAX,
        };
        (
            Partitioning::build(&r, cfg),
            Partitioning::build(&t, cfg),
            MappingSet::concat(2, 2),
        )
    }

    fn queries4() -> Vec<(QueryId, DimMask)> {
        vec![
            (QueryId(0), DimMask::from_dims([0, 1])),
            (QueryId(1), DimMask::from_dims([0, 1, 2])),
            (QueryId(2), DimMask::from_dims([1, 2])),
            (QueryId(3), DimMask::from_dims([1, 2, 3])),
        ]
    }

    #[test]
    fn feasible_pairs_become_regions() {
        let (pr, pt, m) = setup(400, Distribution::Independent);
        let qs = queries4();
        let input = RegionBuildInput {
            part_r: &pr,
            part_t: &pt,
            join_col: 0,
            mapping: &m,
            queries: &qs,
            coarse_pruning: true,
            keep_empty: false,
        };
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let set = build_regions(&input, &mut clock, &mut stats);
        assert!(!set.is_empty());
        // Dense ids.
        for (i, r) in set.regions().iter().enumerate() {
            assert_eq!(r.id.index(), i);
            assert!(!r.serving.is_empty());
            assert!(r.est_join >= 1.0);
        }
        // Look-ahead work was charged.
        assert!(stats.region_comparisons > 0);
        assert!(clock.ticks() > 0);
    }

    #[test]
    fn coarse_skyline_prunes_on_correlated_data() {
        // Correlated data: many regions fully dominated → heavy pruning.
        let (pr, pt, m) = setup(800, Distribution::Correlated);
        let qs = queries4();
        let input = RegionBuildInput {
            part_r: &pr,
            part_t: &pt,
            join_col: 0,
            mapping: &m,
            queries: &qs,
            coarse_pruning: true,
            keep_empty: false,
        };
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let set = build_regions(&input, &mut clock, &mut stats);
        let feasible_pairs = pr
            .cells()
            .iter()
            .flat_map(|a| pt.cells().iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.join_feasible(b, 0))
            .count();
        assert!(
            set.len() < feasible_pairs,
            "no pruning happened: {} regions from {} feasible pairs",
            set.len(),
            feasible_pairs
        );
        assert!(stats.regions_pruned > 0);
    }

    #[test]
    fn pruned_regions_cannot_contain_skyline_results() {
        // Soundness of the coarse skyline: for every query, the true
        // skyline of all join results must fall inside surviving regions.
        use caqe_operators::{hash_join_project, skyline_reference, JoinSpec};
        let n = 300;
        let r = TableGenerator::new(n, 2, Distribution::Independent)
            .with_selectivities(&[0.1])
            .generate("R");
        let t = TableGenerator::new(n, 2, Distribution::Independent)
            .with_selectivities(&[0.1])
            .generate("T");
        let cfg = QuadTreeConfig {
            max_leaf_size: n / 4,
            max_depth: 6,
            max_cells: usize::MAX,
        };
        let pr = Partitioning::build(&r, cfg);
        let pt = Partitioning::build(&t, cfg);
        let m = MappingSet::concat(2, 2);
        let qs = queries4();
        let input = RegionBuildInput {
            part_r: &pr,
            part_t: &pt,
            join_col: 0,
            mapping: &m,
            queries: &qs,
            coarse_pruning: true,
            keep_empty: false,
        };
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let set = build_regions(&input, &mut clock, &mut stats);

        let join = hash_join_project(
            r.records(),
            t.records(),
            JoinSpec::on_column(0),
            &m,
            &mut clock,
            &mut stats,
        );
        let points: Vec<Vec<f64>> = join.iter().map(|o| o.vals.clone()).collect();
        for (q, p) in &qs {
            let sky = skyline_reference(&points, *p);
            for &i in &sky {
                let covered = set
                    .regions()
                    .iter()
                    .any(|reg| reg.serving.contains(*q) && reg.bounds.contains_point(&points[i]));
                assert!(
                    covered,
                    "skyline point of {q} at {:?} not covered by any surviving region",
                    points[i]
                );
            }
        }
    }

    #[test]
    fn keep_empty_retains_fully_pruned_regions() {
        // Session mode keeps the empty husks so a later admission can
        // revive them; ids and ordering must match the pruned build's
        // survivors when filtered.
        let (pr, pt, m) = setup(800, Distribution::Correlated);
        let qs = queries4();
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let kept = build_regions(
            &RegionBuildInput {
                part_r: &pr,
                part_t: &pt,
                join_col: 0,
                mapping: &m,
                queries: &qs,
                coarse_pruning: true,
                keep_empty: true,
            },
            &mut clock,
            &mut stats,
        );
        let pruned = build_regions(
            &RegionBuildInput {
                part_r: &pr,
                part_t: &pt,
                join_col: 0,
                mapping: &m,
                queries: &qs,
                coarse_pruning: true,
                keep_empty: false,
            },
            &mut SimClock::default(),
            &mut Stats::new(),
        );
        assert!(kept.len() > pruned.len(), "expected empty husks retained");
        // Ids stay dense in both modes.
        for (i, r) in kept.regions().iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        let survivors: Vec<_> = kept
            .regions()
            .iter()
            .filter(|r| !r.serving.is_empty())
            .map(|r| (r.r_cell, r.t_cell, r.serving))
            .collect();
        let reference: Vec<_> = pruned
            .regions()
            .iter()
            .map(|r| (r.r_cell, r.t_cell, r.serving))
            .collect();
        assert_eq!(survivors, reference);
    }

    #[test]
    fn empty_partitionings_yield_empty_set() {
        let t = caqe_data::Table::new("E", 2, 1, vec![]);
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        let m = MappingSet::concat(2, 2);
        let qs = queries4();
        let input = RegionBuildInput {
            part_r: &p,
            part_t: &p,
            join_col: 0,
            mapping: &m,
            queries: &qs,
            coarse_pruning: true,
            keep_empty: false,
        };
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let set = build_regions(&input, &mut clock, &mut stats);
        assert!(set.is_empty());
    }
}
