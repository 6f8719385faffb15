//! Property tests for the `Stats` / `PerQueryStats` merge algebra.
//!
//! A memo replay folds a recorded group-build `Stats` delta into the run's
//! totals with `+=` (as the retired parallel layer folded per-shard deltas),
//! and the metrics layer re-derives the same totals from traces — both are
//! only sound if the merge is associative and (for the commutative counter
//! fields) insensitive to shard order. `utility_sum`
//! is the one `f64` in the structure; the engine keeps it exactly
//! mergeable by only ever adding dyadic-rational utilities here, so the
//! generators below draw multiples of 0.25 — for which f64 addition is
//! exact — and demand *bit* equality, not approximate equality.

use caqe::types::{PerQueryStats, Stats};
use proptest::prelude::*;

/// The 26 global `u64` counters, bounded so sums of a handful of shards
/// cannot overflow.
fn arb_counters() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 40), 26..=26)
}

/// Per-query entries with exactly-representable dyadic utility sums.
fn arb_per_query() -> impl Strategy<Value = Vec<PerQueryStats>> {
    proptest::collection::vec((0u64..1000, 0u32..4000), 0..6).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(tuples_emitted, quarter_utils)| PerQueryStats {
                tuples_emitted,
                utility_sum: quarter_utils as f64 * 0.25,
            })
            .collect()
    })
}

fn arb_stats() -> impl Strategy<Value = Stats> {
    (arb_counters(), arb_per_query()).prop_map(|(c, per_query)| Stats {
        join_probes: c[0],
        join_results: c[1],
        dom_comparisons: c[2],
        region_comparisons: c[3],
        map_evals: c[4],
        tuples_emitted: c[5],
        regions_processed: c[6],
        regions_pruned: c[7],
        tuples_discarded: c[8],
        region_retries: c[9],
        regions_quarantined: c[10],
        regions_shed: c[11],
        ingest_quarantined: c[12],
        ingest_clamped: c[13],
        build_ticks: c[14],
        probe_ticks: c[15],
        insert_ticks: c[16],
        emit_ticks: c[17],
        build_dom_cmps: c[18],
        insert_dom_cmps: c[19],
        emit_region_cmps: c[20],
        arena_tuples: c[21],
        plan_points_interned: c[22],
        sig_builds: c[23],
        presort_cache_hits: c[24],
        presort_cache_misses: c[25],
        per_query,
    })
}

fn merged(parts: &[Stats]) -> Stats {
    let mut acc = Stats::new();
    for p in parts {
        acc += p.clone();
    }
    acc
}

/// Bit-exact equality including the f64 utility sums.
fn assert_stats_eq(a: &Stats, b: &Stats, label: &str) {
    assert_eq!(a.counters(), b.counters(), "{label}: counters diverged");
    assert_eq!(a.per_query.len(), b.per_query.len(), "{label}: query count");
    for (i, (qa, qb)) in a.per_query.iter().zip(&b.per_query).enumerate() {
        assert_eq!(
            qa.utility_sum.to_bits(),
            qb.utility_sum.to_bits(),
            "{label}: q{i} utility bits diverged"
        );
    }
}

proptest! {
    /// `(a + b) + c == a + (b + c)`: shard folds can be regrouped freely.
    #[test]
    fn merge_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        let mut left = a.clone();
        left += b.clone();
        left += c.clone();

        let mut bc = b.clone();
        bc += c.clone();
        let mut right = a.clone();
        right += bc;

        assert_stats_eq(&left, &right, "associativity");
        prop_assert_eq!(left, right);
    }

    /// Any permutation of the shard list merges to the same totals — the
    /// chunk-index merge order is a determinism convention, not a
    /// correctness requirement, for the commutative fields.
    #[test]
    fn merge_is_order_insensitive(
        parts in proptest::collection::vec(arb_stats(), 1..5),
        rot in 0usize..5,
        swap in 0usize..5,
    ) {
        let base = merged(&parts);

        let mut rotated = parts.clone();
        rotated.rotate_left(rot % parts.len());
        assert_stats_eq(&base, &merged(&rotated), "rotation");
        prop_assert_eq!(&base, &merged(&rotated));

        let mut swapped = parts.clone();
        let n = swapped.len();
        swapped.swap(swap % n, (swap + 1) % n);
        assert_stats_eq(&base, &merged(&swapped), "swap");
        prop_assert_eq!(&base, &merged(&swapped));
    }

    /// `Stats::new()` is the merge identity on both sides, including the
    /// per-query growth path (`x += zero` and `zero += x`).
    #[test]
    fn zero_is_identity(x in arb_stats()) {
        let mut left = x.clone();
        left += Stats::new();
        prop_assert_eq!(&left, &x);

        let mut right = Stats::new();
        right += x.clone();
        assert_stats_eq(&right, &x, "identity");
        prop_assert_eq!(&right, &x);
    }
}
