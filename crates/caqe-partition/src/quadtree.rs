//! d-dimensional quad-tree partitioning of a base table (§5.1).
//!
//! The tree splits a node's value space at the midpoint of every dimension
//! simultaneously (so an internal node has up to `2^d` children). Splitting
//! proceeds *largest cell first* and stops when
//!
//! * every cell holds at most `max_leaf_size` tuples,
//! * `max_depth` is reached, or
//! * the total number of cells would exceed `max_cells` — the knob that
//!   keeps the look-ahead's (quadratic-in-cells) cost proportional to the
//!   tuple-level work it saves.
//!
//! Empty children are discarded; only non-empty leaves are materialized as
//! [`LeafCell`]s.

use crate::cell::LeafCell;
use caqe_data::Table;
use caqe_types::{CellId, Rect, Value};
use std::collections::BinaryHeap;

/// Tuning knobs for quad-tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeConfig {
    /// Maximum number of tuples per leaf before a split is attempted.
    pub max_leaf_size: usize,
    /// Maximum recursion depth (guards against degenerate distributions).
    pub max_depth: usize,
    /// Upper bound on the number of leaf cells. Splitting is largest-first,
    /// so the budget is spent where it buys the most resolution.
    pub max_cells: usize,
}

impl Default for QuadTreeConfig {
    fn default() -> Self {
        QuadTreeConfig {
            max_leaf_size: 256,
            max_depth: 8,
            max_cells: usize::MAX,
        }
    }
}

impl QuadTreeConfig {
    /// A configuration that targets roughly `cells` leaves regardless of
    /// table size or dimensionality: split largest-first under a hard cell
    /// budget.
    pub fn with_cell_budget(cells: usize) -> Self {
        QuadTreeConfig {
            max_leaf_size: 4,
            max_depth: 16,
            max_cells: cells.max(1),
        }
    }
}

/// A node awaiting a split decision, ordered by population so the heap
/// yields the largest cell first. Equal populations tie-break on the
/// explicit creation sequence number (earlier-created pops first): a
/// `BinaryHeap` gives no ordering guarantee between equal keys, so without
/// the tie-break the final cell-id assignment would hinge on heap
/// internals — a latent determinism hazard for everything keyed by
/// [`CellId`] (traces, region ids, sharded-insert ownership).
struct PendingNode {
    bounds: Rect,
    rows: Vec<usize>,
    depth: usize,
    /// Creation sequence number; total order with `rows.len()`.
    seq: u64,
}

impl PartialEq for PendingNode {
    fn eq(&self, other: &Self) -> bool {
        self.rows.len() == other.rows.len() && self.seq == other.seq
    }
}
impl Eq for PendingNode {}
impl PartialOrd for PendingNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: larger population first, then *smaller* seq first.
        self.rows
            .len()
            .cmp(&other.rows.len())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The quad-tree partitioning of one table: its non-empty leaf cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    cells: Vec<LeafCell>,
    table_len: usize,
}

impl Partitioning {
    /// Partitions `table` under `config`.
    ///
    /// An empty table yields an empty partitioning.
    pub fn build(table: &Table, config: QuadTreeConfig) -> Self {
        assert!(config.max_leaf_size >= 1);
        assert!(config.max_cells >= 1);
        let mut finals: Vec<(Rect, Vec<usize>)> = Vec::new();
        let mut heap: BinaryHeap<PendingNode> = BinaryHeap::new();

        let mut next_seq = 0u64;
        if !table.is_empty() {
            // Allowed survivor: guarded by the emptiness check one line up.
            #[allow(clippy::expect_used)]
            heap.push(PendingNode {
                bounds: table.value_bounds().expect("non-empty table"),
                rows: (0..table.len()).collect(),
                depth: 0,
                seq: next_seq,
            });
            next_seq += 1;
        }

        while let Some(node) = heap.pop() {
            let splittable = node.rows.len() > config.max_leaf_size
                && node.depth < config.max_depth
                && (0..table.dims()).any(|k| node.bounds.extent(k) > 0.0);
            if !splittable {
                finals.push((node.bounds, node.rows));
                continue;
            }
            let children = split(table, &node);
            match children {
                None => finals.push((node.bounds, node.rows)),
                Some(kids) => {
                    // Enforce the cell budget: the split replaces one cell
                    // with `kids.len()`.
                    let total = finals.len() + heap.len() + kids.len();
                    if total > config.max_cells {
                        finals.push((node.bounds, node.rows));
                        // Budget exhausted: nothing further may split either.
                        while let Some(rest) = heap.pop() {
                            finals.push((rest.bounds, rest.rows));
                        }
                        break;
                    }
                    let depth = node.depth + 1;
                    for (bounds, rows) in kids {
                        heap.push(PendingNode {
                            bounds,
                            rows,
                            depth,
                            seq: next_seq,
                        });
                        next_seq += 1;
                    }
                }
            }
        }

        let cells = finals
            .into_iter()
            .enumerate()
            .map(|(i, (_bounds, rows))| LeafCell::build(CellId(i as u32), table, rows))
            .collect();
        Partitioning {
            cells,
            table_len: table.len(),
        }
    }

    /// The leaf cells.
    pub fn cells(&self) -> &[LeafCell] {
        &self.cells
    }

    /// Number of leaf cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &LeafCell {
        &self.cells[id.index()]
    }

    /// Total number of tuples across all cells (== source table size).
    pub fn total_rows(&self) -> usize {
        self.table_len
    }
}

/// Splits a node at its midpoint into up to `2^d` non-empty children.
/// Returns `None` for a degenerate split (everything lands in one child).
#[allow(clippy::needless_range_loop)] // per-dimension bit tests read best indexed
fn split(table: &Table, node: &PendingNode) -> Option<Vec<(Rect, Vec<usize>)>> {
    let d = table.dims();
    let mid: Vec<Value> = node.bounds.center();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); 1 << d];
    for &i in &node.rows {
        let vals = &table.record(i).vals;
        let mut code = 0usize;
        for k in 0..d {
            if vals[k] > mid[k] {
                code |= 1 << k;
            }
        }
        buckets[code].push(i);
    }
    if buckets.iter().filter(|b| !b.is_empty()).count() <= 1 {
        return None;
    }
    let mut kids = Vec::new();
    for (code, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for k in 0..d {
            if (code >> k) & 1 == 1 {
                lo.push(mid[k]);
                hi.push(node.bounds.hi()[k]);
            } else {
                lo.push(node.bounds.lo()[k]);
                hi.push(mid[k]);
            }
        }
        kids.push((Rect::new(lo, hi), bucket));
    }
    Some(kids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_data::{Distribution, Record, TableGenerator};

    #[test]
    fn all_rows_covered_exactly_once() {
        let t = TableGenerator::new(2000, 3, Distribution::Independent).generate("R");
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        let mut seen = vec![false; t.len()];
        for cell in p.cells() {
            for &r in &cell.rows {
                assert!(!seen[r], "row {r} in two cells");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(p.total_rows(), t.len());
    }

    #[test]
    fn leaf_size_respected_where_splittable() {
        let cfg = QuadTreeConfig {
            max_leaf_size: 64,
            max_depth: 16,
            max_cells: usize::MAX,
        };
        let t = TableGenerator::new(4000, 2, Distribution::Independent).generate("R");
        let p = Partitioning::build(&t, cfg);
        for cell in p.cells() {
            assert!(cell.len() <= 64, "cell of size {}", cell.len());
        }
        assert!(p.len() >= 4000 / 64);
    }

    #[test]
    fn cell_budget_is_respected() {
        let t = TableGenerator::new(5000, 3, Distribution::Independent).generate("R");
        for budget in [1, 8, 12, 40, 100] {
            let p = Partitioning::build(&t, QuadTreeConfig::with_cell_budget(budget));
            assert!(
                p.len() <= budget,
                "budget {budget} exceeded: {} cells",
                p.len()
            );
            // The budget should be mostly used (within one 2^d fan-out).
            if budget >= 8 {
                assert!(
                    p.len() * 8 >= budget,
                    "budget {budget} underused: {} cells",
                    p.len()
                );
            }
            // Coverage is preserved.
            let covered: usize = p.cells().iter().map(|c| c.len()).sum();
            assert_eq!(covered, t.len());
        }
    }

    #[test]
    fn largest_first_balances_cell_sizes() {
        let t = TableGenerator::new(4000, 2, Distribution::Independent).generate("R");
        let p = Partitioning::build(&t, QuadTreeConfig::with_cell_budget(32));
        let max = p.cells().iter().map(|c| c.len()).max().unwrap();
        let avg = t.len() / p.len();
        // No cell should dwarf the average after largest-first splitting.
        assert!(max <= avg * 8, "max {max} vs avg {avg}");
    }

    #[test]
    fn bounds_contain_members() {
        let t = TableGenerator::new(1000, 4, Distribution::Anticorrelated).generate("R");
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        for cell in p.cells() {
            for &r in &cell.rows {
                assert!(cell.bounds.contains_point(&t.record(r).vals));
            }
        }
    }

    #[test]
    fn ids_are_dense() {
        let t = TableGenerator::new(500, 2, Distribution::Correlated).generate("R");
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        for (i, cell) in p.cells().iter().enumerate() {
            assert_eq!(cell.id.index(), i);
            assert!(!p.cell(cell.id).is_empty());
        }
    }

    #[test]
    fn duplicate_points_terminate_via_degenerate_split_guard() {
        let recs = (0..100)
            .map(|i| Record::new(i, vec![5.0, 5.0], vec![0]))
            .collect();
        let t = Table::new("D", 2, 1, recs);
        let cfg = QuadTreeConfig {
            max_leaf_size: 10,
            max_depth: 30,
            max_cells: usize::MAX,
        };
        let p = Partitioning::build(&t, cfg);
        assert_eq!(p.len(), 1);
        assert_eq!(p.cells()[0].len(), 100);
    }

    #[test]
    fn equal_population_ties_pop_in_creation_order() {
        // Four clusters of identical size at the quadrant corners: the
        // first split creates four equal-population children, none of
        // which can split further (duplicate points → degenerate split),
        // so every pending node finalizes through an equal-population
        // heap pop. The explicit seq tie-break pins the pop order to
        // creation order — the child bucket-code order of `split` — no
        // matter how `BinaryHeap` arbitrates equal keys internally.
        let centers = [(1.0, 1.0), (9.0, 1.0), (1.0, 9.0), (9.0, 9.0)];
        let mut recs = Vec::new();
        for &(x, y) in &centers {
            for _ in 0..25 {
                recs.push(Record::new(recs.len() as u64, vec![x, y], vec![0]));
            }
        }
        let t = Table::new("Q", 2, 1, recs);
        let cfg = QuadTreeConfig {
            max_leaf_size: 10,
            max_depth: 8,
            max_cells: usize::MAX,
        };
        let p = Partitioning::build(&t, cfg);
        assert_eq!(p.len(), 4);
        for (i, &(x, y)) in centers.iter().enumerate() {
            assert_eq!(p.cells()[i].id.index(), i);
            assert_eq!(p.cells()[i].len(), 25);
            let lo = p.cells()[i].bounds.lo();
            assert!(
                lo[0] <= x && x <= p.cells()[i].bounds.hi()[0],
                "cell {i} does not cover cluster x={x}"
            );
            assert!(
                lo[1] <= y && y <= p.cells()[i].bounds.hi()[1],
                "cell {i} does not cover cluster y={y}"
            );
        }
    }

    #[test]
    fn empty_table_empty_partitioning() {
        let t = Table::new("E", 2, 0, vec![]);
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        assert!(p.is_empty());
        assert_eq!(p.total_rows(), 0);
    }

    #[test]
    fn small_table_single_cell() {
        let t = TableGenerator::new(10, 2, Distribution::Independent).generate("R");
        let p = Partitioning::build(&t, QuadTreeConfig::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p.cells()[0].len(), 10);
    }

    use caqe_data::Table;
}
