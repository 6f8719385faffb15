//! Equi-join operators fused with projection.
//!
//! The paper's queries join two base tables on a categorical join condition
//! (`JC_1`, `JC_2`, … — e.g. `r_country = t_country`, Example 14) and then
//! project each join result into the output space via the mapping functions.
//! Both steps are fused here so intermediate join tuples never need a second
//! pass, and so the virtual clock charges probes and mapping evaluations at
//! the moment they happen.
//!
//! The build side is indexed with a [`SortedJoinIndex`] — stable-sorted
//! `(key, row)` runs probed by binary search — rather than a hash map:
//! iteration order is then a pure function of the input (build order within
//! each key), which the determinism contract requires on traced paths, and
//! probing allocates nothing. The hash join gathers its build side once in
//! index order, so each probe's matches are one contiguous run, and projects
//! once per base row: each R row's [`MappingSet::partial_into`] (the offset
//! plus its R terms) is computed once and every result is finished from it
//! with [`MappingSet::finish_into`], bit-equal to `apply_into`. It hands each
//! result to a [`JoinSink`] the moment it is produced
//! ([`hash_join_project_into`]), so a consumer that needs only a bounded
//! block of rows at a time — JFSL's BNL windows — never holds the whole
//! join. [`hash_join_project_store`] is the sink that keeps every result in
//! a flat [`PointStore`]. The [`OutTuple`]-returning nested-loop join is the
//! definitional oracle.

use crate::mapping::MappingSet;
use caqe_data::Record;
use caqe_types::{PointStore, SimClock, Stats, Value};
use std::ops::Range;

/// A join condition: equality on join column `column` of both tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinSpec {
    /// Index of the join column (the paper's `JC_i`).
    pub column: usize,
}

impl JoinSpec {
    /// Join condition over column `column`.
    pub fn on_column(column: usize) -> Self {
        JoinSpec { column }
    }

    /// Whether the pair satisfies the join predicate.
    #[inline]
    pub fn matches(&self, r: &Record, t: &Record) -> bool {
        r.key(self.column) == t.key(self.column)
    }
}

/// A projected join result: provenance ids plus the output-space point.
#[derive(Debug, Clone, PartialEq)]
pub struct OutTuple {
    /// Id of the contributing R record.
    pub rid: u64,
    /// Id of the contributing T record.
    pub tid: u64,
    /// The output-space attribute vector `X`.
    pub vals: Vec<Value>,
}

/// Join output in flat layout: one provenance pair per point, with the
/// output-space points interned in a [`PointStore`] (pair `i` ↔ point `i`).
#[derive(Debug, Clone, Default)]
pub struct JoinOutput {
    /// `(rid, tid)` provenance per join result, in production order.
    pub pairs: Vec<(u64, u64)>,
    /// The projected output-space points, same order as `pairs`.
    pub store: PointStore,
}

impl JoinOutput {
    /// Number of join results.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the join produced nothing.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// An equi-join build index with *deterministic* probe order: rows are
/// stable-sorted by key, so the rows matching any key come back in build
/// order — exactly the order a `HashMap<key, Vec<row>>` built by appending
/// would yield, but with no hashing, no per-key allocation and no
/// iteration-order hazard. Probes are two binary searches (equal range).
#[derive(Debug, Clone)]
pub struct SortedJoinIndex {
    /// `(key, row)` pairs sorted by key; ties keep build order.
    entries: Vec<(u32, u32)>,
}

impl SortedJoinIndex {
    /// Indexes `rows.len()` rows by the key extracted from each.
    pub fn build(n: usize, key_of: impl Fn(usize) -> u32) -> Self {
        let mut entries: Vec<(u32, u32)> = (0..n).map(|i| (key_of(i), i as u32)).collect();
        entries.sort_by_key(|&(k, _)| k);
        SortedJoinIndex { entries }
    }

    /// Where the build rows matching `key` sit in the index: one contiguous
    /// run, in build order ([`Self::rows`] reads them; a caller that
    /// gathered the build side in index order reads the same run of it).
    #[inline]
    pub fn range(&self, key: u32) -> Range<usize> {
        let lo = self.entries.partition_point(|&(k, _)| k < key);
        let hi = self.entries.partition_point(|&(k, _)| k <= key);
        lo..hi
    }

    /// The build rows at `range` of the index (one [`Self::range`] gave), in
    /// build order.
    #[inline]
    pub fn rows(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.entries[range].iter().map(|&(_, row)| row as usize)
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Nested-loop equi-join fused with projection.
///
/// Charges one `join_probe` per candidate pair and one `map_eval` per output
/// attribute of each match; counts mirror the charges in `stats`.
pub fn nested_loop_join_project(
    left: &[Record],
    right: &[Record],
    spec: JoinSpec,
    mapping: &MappingSet,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<OutTuple> {
    let mut out = Vec::new();
    for r in left {
        for t in right {
            clock.charge_join_probes(1);
            stats.join_probes += 1;
            if spec.matches(r, t) {
                let k = mapping.output_dims() as u64;
                clock.charge_map_evals(k);
                stats.map_evals += k;
                stats.join_results += 1;
                out.push(OutTuple {
                    rid: r.id,
                    tid: t.id,
                    vals: mapping.apply(&r.vals, &t.vals),
                });
            }
        }
    }
    out
}

/// Where a join's projected results go, one at a time in production order.
pub trait JoinSink {
    /// Takes one join result: the contributing R and T ids and `point`,
    /// which appends the result's output-space values to a buffer.
    fn push(&mut self, rid: u64, tid: u64, point: impl FnOnce(&mut Vec<Value>));
}

/// Materialises the join: every result stays, in production order.
impl JoinSink for JoinOutput {
    #[inline]
    fn push(&mut self, rid: u64, tid: u64, point: impl FnOnce(&mut Vec<Value>)) {
        self.pairs.push((rid, tid));
        self.store.push_with(point);
    }
}

/// Hash equi-join fused with projection, every result handed to `sink` the
/// moment it is produced. Builds on the smaller side.
///
/// The build side is gathered once in [`SortedJoinIndex`] order — ids,
/// plus each R row's [`MappingSet::partial_into`] when R builds, or its T
/// values when T does — so a probe row's matches are one contiguous run.
/// An R probe row's partial is computed once for all its matches. Every
/// result is finished from its R row's partial, bit-equal to
/// [`MappingSet::apply_into`].
///
/// Probe cost: one `join_probe` per (probe tuple × matching build tuple),
/// plus one per probe tuple for the index lookup itself — a deliberately
/// cheaper profile than the nested-loop join, reflecting the paper's
/// assumption that join computation is shared efficiently. A probe row's
/// charges are made at once; ticks and counters are integer sums, and the
/// sink never reads the clock.
pub fn hash_join_project_into(
    left: &[Record],
    right: &[Record],
    spec: JoinSpec,
    mapping: &MappingSet,
    clock: &mut SimClock,
    stats: &mut Stats,
    sink: &mut impl JoinSink,
) {
    let (build, probe, build_is_left) = if left.len() <= right.len() {
        (left, right, true)
    } else {
        (right, left, false)
    };
    let index = SortedJoinIndex::build(build.len(), |i| build[i].key(spec.column));
    let k = mapping.output_dims();
    // Per build row, in index order: its R partial (R builds) or its T
    // values (T builds), `width` values each.
    let width = if build_is_left { k } else { mapping.dims_t() };
    let mut ids = Vec::with_capacity(build.len());
    let mut gathered = Vec::with_capacity(build.len() * width);
    for row in index.rows(0..index.len()) {
        let b = &build[row];
        ids.push(b.id);
        if build_is_left {
            mapping.partial_into(&b.vals, &mut gathered);
        } else {
            debug_assert_eq!(b.vals.len(), width);
            gathered.extend_from_slice(&b.vals);
        }
    }
    let mut partial = Vec::with_capacity(k);
    for p in probe {
        let run = index.range(p.key(spec.column));
        let m = run.len() as u64;
        clock.charge_join_probes(1 + m);
        stats.join_probes += 1 + m;
        if m == 0 {
            continue;
        }
        clock.charge_map_evals(k as u64 * m);
        stats.map_evals += k as u64 * m;
        stats.join_results += m;
        let vals = &gathered[run.start * width..run.end * width];
        if build_is_left {
            // `width` is `k`, at least 1.
            for (&rid, r_partial) in ids[run].iter().zip(vals.chunks_exact(width)) {
                sink.push(rid, p.id, |dst| {
                    mapping.finish_into(r_partial, &p.vals, dst)
                });
            }
        } else {
            partial.clear();
            mapping.partial_into(&p.vals, &mut partial);
            // Not `chunks_exact`: a T side with no attributes has width 0.
            for (i, &tid) in ids[run].iter().enumerate() {
                let t_vals = &vals[i * width..(i + 1) * width];
                sink.push(p.id, tid, |dst| mapping.finish_into(&partial, t_vals, dst));
            }
        }
    }
}

/// Hash equi-join fused with projection, flat output: a [`JoinOutput`]
/// filled through [`hash_join_project_into`] (identical charges and
/// output order).
pub fn hash_join_project_store(
    left: &[Record],
    right: &[Record],
    spec: JoinSpec,
    mapping: &MappingSet,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> JoinOutput {
    let mut out = JoinOutput {
        pairs: Vec::new(),
        store: PointStore::new(mapping.output_dims()),
    };
    hash_join_project_into(left, right, spec, mapping, clock, stats, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingSet;

    fn rec(id: u64, vals: &[Value], key: u32) -> Record {
        Record::new(id, vals.to_vec(), vec![key])
    }

    fn setup() -> (Vec<Record>, Vec<Record>, MappingSet) {
        let left = vec![
            rec(0, &[1.0, 2.0], 7),
            rec(1, &[3.0, 4.0], 8),
            rec(2, &[5.0, 6.0], 7),
        ];
        let right = vec![rec(10, &[9.0], 7), rec(11, &[8.0], 9)];
        (left, right, MappingSet::concat(2, 1))
    }

    #[test]
    fn nested_loop_finds_all_matches() {
        let (l, r, m) = setup();
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let out =
            nested_loop_join_project(&l, &r, JoinSpec::on_column(0), &m, &mut clock, &mut stats);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.join_results, 2);
        assert_eq!(stats.join_probes, 6);
        assert!(out.iter().any(|o| o.rid == 0 && o.tid == 10));
        assert!(out.iter().any(|o| o.rid == 2 && o.tid == 10));
        assert_eq!(
            out.iter().find(|o| o.rid == 0).unwrap().vals,
            vec![1.0, 2.0, 9.0]
        );
        assert!(clock.ticks() > 0);
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        let (l, r, m) = setup();
        let spec = JoinSpec::on_column(0);
        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        let mut a = nested_loop_join_project(&l, &r, spec, &m, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        let b = hash_join_project_store(&l, &r, spec, &m, &mut c2, &mut s2);
        let mut b: Vec<OutTuple> = b
            .pairs
            .iter()
            .zip(b.store.iter())
            .map(|(&(rid, tid), vals)| OutTuple {
                rid,
                tid,
                vals: vals.to_vec(),
            })
            .collect();
        let key = |o: &OutTuple| (o.rid, o.tid);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert_eq!(s1.join_results, s2.join_results);
        // Hash join probes fewer candidate pairs.
        assert!(s2.join_probes <= s1.join_probes);
    }

    #[test]
    fn sorted_index_preserves_build_order_within_key() {
        let keys = [5u32, 3, 5, 5, 3, 9];
        let idx = SortedJoinIndex::build(keys.len(), |i| keys[i]);
        assert_eq!(idx.len(), 6);
        assert!(!idx.is_empty());
        let matches = |key| idx.rows(idx.range(key)).collect::<Vec<_>>();
        assert_eq!(matches(5), vec![0, 2, 3]);
        assert_eq!(matches(3), vec![1, 4]);
        assert_eq!(matches(9), vec![5]);
        assert!(idx.range(7).is_empty());
        // The whole index reads back key by key, build order within each.
        assert_eq!(
            idx.rows(0..idx.len()).collect::<Vec<_>>(),
            vec![1, 4, 0, 2, 3, 5]
        );
    }

    #[test]
    fn empty_inputs() {
        let (_, r, m) = setup();
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let out =
            nested_loop_join_project(&[], &r, JoinSpec::on_column(0), &m, &mut clock, &mut stats);
        assert!(out.is_empty());
        assert_eq!(stats.join_probes, 0);
        let out2 =
            hash_join_project_store(&[], &r, JoinSpec::on_column(0), &m, &mut clock, &mut stats);
        assert!(out2.is_empty());
    }

    #[test]
    fn t_side_without_attributes_builds() {
        // T is shorter, so it builds, with zero values per row.
        let l = vec![rec(0, &[1.0], 4), rec(1, &[2.0], 4), rec(2, &[3.0], 5)];
        let r = vec![rec(10, &[], 4), rec(11, &[], 4)];
        let m = MappingSet::concat(1, 0);
        let spec = JoinSpec::on_column(0);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let out = hash_join_project_store(&l, &r, spec, &m, &mut clock, &mut stats);
        assert_eq!(out.pairs, vec![(0, 10), (0, 11), (1, 10), (1, 11)]);
        assert_eq!(out.store.as_flat(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn no_matches_yields_empty() {
        let l = vec![rec(0, &[1.0], 1)];
        let r = vec![rec(1, &[2.0], 2)];
        let m = MappingSet::concat(1, 1);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let out =
            hash_join_project_store(&l, &r, JoinSpec::on_column(0), &m, &mut clock, &mut stats);
        assert!(out.is_empty());
        assert_eq!(stats.join_results, 0);
    }
}
