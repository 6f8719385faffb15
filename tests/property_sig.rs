//! Property-based tests of signature screening (DESIGN.md §17): the block
//! skips and the strict-below proof must be *sound* against the exact float
//! dominance relation on arbitrary inputs, and the shared plan must be
//! observationally identical — results, charged comparisons, virtual ticks
//! — screened or not, however its input is cut into calls. (The single
//! window's own suite is `property_skyline.rs`.)

use caqe::cuboid::{MinMaxCuboid, SharedInsert, SharedSkylinePlan};
use caqe::operators::skyline_reference;
use caqe::parallel::Threads;
use caqe::types::sig::{
    first_may_be_dominated, first_may_dominate, first_may_relate, sig_strictly_below, SigQuantizer,
    SIG_POISON,
};
use caqe::types::{relate_in, DimMask, DomRelation, PointStore, QueryId, SimClock, Stats, Value};
use proptest::prelude::*;

/// Lattice-valued rows at a fixed stride `d`: coarse values force ties and
/// duplicates, and about one value in eleven is NaN, scattered over rows
/// and dimensions.
fn rows_strategy(d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u8..11).prop_map(|v| {
                if v == 10 {
                    Value::NAN
                } else {
                    f64::from(v) / 3.0
                }
            }),
            d..=d,
        ),
        1..80,
    )
}

fn store_of(rows: &[Vec<f64>]) -> PointStore {
    let mut store = PointStore::new(rows[0].len());
    for r in rows {
        store.push(r);
    }
    store
}

/// A random non-empty subspace of `d` dimensions.
fn mask_for(d: usize, bits: u32) -> DimMask {
    let m = bits % ((1u32 << d) - 1) + 1;
    DimMask(m)
}

/// The subspace `bits` picks, its quantizer over `rows` and every row's
/// signature; `None` when the subspace has no finite value to quantize.
fn quantized(rows: &[Vec<f64>], bits: u32) -> Option<(DimMask, SigQuantizer, Vec<u64>)> {
    let mask = mask_for(rows[0].len(), bits);
    let quant = SigQuantizer::from_store(&store_of(rows), mask)?;
    let sigs = rows.iter().map(|r| quant.sig(r)).collect();
    Some((mask, quant, sigs))
}

/// Every member a skip passes over, as the window's scans call it: skip
/// from the start, step past the member it stops on, skip again.
fn passed_over(sigs: &[u64], skip: impl Fn(&[u64]) -> usize) -> Vec<usize> {
    let mut passed = Vec::new();
    let mut k = 0;
    while k < sigs.len() {
        let n = skip(&sigs[k..]);
        passed.extend(k..k + n);
        k += n + 1;
    }
    passed
}

proptest! {
    /// No member the dominator skip passes over dominates the candidate
    /// under `relate_in` — on every stride 2..=8, with ties, duplicates and
    /// scattered NaN, from every offset a scan can resume at.
    #[test]
    fn dominator_skip_passes_no_dominator(
        rows in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
    ) {
        let Some((mask, quant, sigs)) = quantized(&rows, bits) else {
            return Ok(()); // nothing finite to quantize
        };
        let h = quant.high_mask();
        for (c, cand) in rows.iter().enumerate() {
            for m in passed_over(&sigs, |s| first_may_dominate(s, sigs[c], h)) {
                prop_assert!(
                    relate_in(&rows[m], cand, mask) != DomRelation::Dominates,
                    "member {} passed over, but it dominates candidate {} over {}",
                    m, c, mask
                );
            }
        }
    }

    /// No member the victim skip passes over is dominated by the candidate.
    #[test]
    fn victim_skip_passes_no_victim(
        rows in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
    ) {
        let Some((mask, quant, sigs)) = quantized(&rows, bits) else {
            return Ok(());
        };
        let h = quant.high_mask();
        for (c, cand) in rows.iter().enumerate() {
            for m in passed_over(&sigs, |s| first_may_be_dominated(s, sigs[c], h)) {
                prop_assert!(
                    relate_in(cand, &rows[m], mask) != DomRelation::Dominates,
                    "member {} passed over, but candidate {} dominates it over {}",
                    m, c, mask
                );
            }
        }
    }

    /// Every member the two-sided skip passes over is `Incomparable` with
    /// the candidate: neither dominates, and they are not equal.
    #[test]
    fn relate_skip_passes_only_incomparables(
        rows in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
    ) {
        let Some((mask, quant, sigs)) = quantized(&rows, bits) else {
            return Ok(());
        };
        let h = quant.high_mask();
        for (c, cand) in rows.iter().enumerate() {
            for m in passed_over(&sigs, |s| first_may_relate(s, sigs[c], h)) {
                prop_assert_eq!(
                    relate_in(&rows[m], cand, mask),
                    DomRelation::Incomparable,
                    "member {} passed over candidate {} over {}",
                    m, c, mask
                );
            }
        }
    }

    /// The strict-below proof implies `Dominates`.
    #[test]
    fn strict_below_proof_implies_dominates(
        rows in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
    ) {
        let Some((mask, quant, sigs)) = quantized(&rows, bits) else {
            return Ok(());
        };
        let h = quant.high_mask();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                if sig_strictly_below(sigs[i], sigs[j], h) {
                    prop_assert_eq!(
                        relate_in(a, b, mask),
                        DomRelation::Dominates,
                        "pair ({}, {}) proven over {}",
                        i, j, mask
                    );
                }
            }
        }
    }

    /// A poisoned signature, on either side, is never skipped and never
    /// proven: not as a member, not as the candidate, and not under the
    /// degenerate `high_mask = 0` no caller should ever pass.
    #[test]
    fn poison_is_never_skipped_nor_proven(
        rows in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
        (pick, at) in (0usize..80, 0usize..80),
    ) {
        let clean: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|v| if v.is_nan() { 0.0 } else { *v }).collect())
            .collect();
        let Some((mask, quant, mut sigs)) = quantized(&clean, bits) else {
            return Ok(());
        };
        let h = quant.high_mask();
        // NaN in one masked dimension collapses a signature to SIG_POISON.
        let k = mask.iter().next().expect("non-empty mask");
        let mut nan_point = clean[pick % clean.len()].clone();
        nan_point[k] = Value::NAN;
        prop_assert_eq!(quant.sig(&nan_point), SIG_POISON);

        let at = at % (sigs.len() + 1);
        sigs.insert(at, SIG_POISON);
        for &c in sigs.iter().filter(|&&s| s != SIG_POISON) {
            prop_assert!(first_may_dominate(&sigs, c, h) <= at, "poisoned member passed over");
            prop_assert!(first_may_be_dominated(&sigs, c, h) <= at, "poisoned member passed over");
            prop_assert!(first_may_relate(&sigs, c, h) <= at, "poisoned member passed over");
            prop_assert_eq!(first_may_relate(&sigs, c, 0), 0, "skipped under high = 0");
            for (a, b) in [(c, SIG_POISON), (SIG_POISON, c)] {
                prop_assert!(!sig_strictly_below(a, b, h), "poison proven");
                prop_assert!(!sig_strictly_below(a, b, 0), "poison proven under high = 0");
            }
        }
        prop_assert_eq!(first_may_dominate(&sigs, SIG_POISON, h), 0, "poisoned candidate skipped");
        prop_assert_eq!(first_may_be_dominated(&sigs, SIG_POISON, h), 0, "poisoned candidate skipped");
        prop_assert!(!sig_strictly_below(SIG_POISON, SIG_POISON, h));
        prop_assert!(!sig_strictly_below(SIG_POISON, SIG_POISON, 0));
        prop_assert_eq!(first_may_dominate(&sigs, SIG_POISON, 0), 0);
        prop_assert_eq!(first_may_be_dominated(&sigs, SIG_POISON, 0), 0);
        prop_assert_eq!(first_may_relate(&sigs, SIG_POISON, h), 0, "poisoned candidate skipped");
        prop_assert_eq!(first_may_relate(&sigs, SIG_POISON, 0), 0);
    }

    /// The shared plan's signature screens are observationally invisible,
    /// and so is how the tuple stream is cut: screened or not, with one-tuple `insert` calls and `insert_batch` calls
    /// interleaved (each window keeps its signatures in lockstep through
    /// both), the plan matches an unscreened one-tuple-at-a-time plan
    /// byte-for-byte — results, ticks, observable stats and every query's
    /// members — and every query ends on its Definition 2 skyline.
    #[test]
    fn plan_sig_cache_is_invisible(
        rows in proptest::collection::vec(
            proptest::collection::vec((0u8..12).prop_map(|v| v as f64), 4..=4),
            4..60,
        ),
        pref_bits in proptest::collection::vec(1u32..16, 1..4),
        cuts in proptest::collection::vec(1usize..9, 1..12),
        screened in any::<bool>(),
    ) {
        let prefs: Vec<DimMask> = pref_bits.iter().map(|&b| mask_for(4, b)).collect();
        let mut serial = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), false);
        let mut sc = SimClock::default();
        let mut ss = Stats::new();
        let serial_results: Vec<SharedInsert> = rows
            .iter()
            .enumerate()
            .map(|(i, p)| serial.insert(i as u64, p, &mut sc, &mut ss))
            .collect();
        for (q, &pref) in prefs.iter().enumerate() {
            let mut got = serial.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let want: Vec<u64> = skyline_reference(&rows, pref).into_iter().map(|i| i as u64).collect();
            prop_assert_eq!(got, want, "query {} is not its reference skyline", q);
        }
        let stride = 4;
        let flat: Vec<Value> = rows.iter().flatten().copied().collect();
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), false);
        if screened {
            plan.enable_sig_cache(&[0.0; 4], &[12.0; 4]);
        }
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut results = Vec::new();
        let mut off = 0usize;
        // A cut of one goes through the one-tuple door, anything longer
        // through a batch that sees carried members.
        for &cut in cuts.iter().cycle() {
            if off == rows.len() {
                break;
            }
            let take = cut.min(rows.len() - off);
            if take == 1 {
                results.push(plan.insert(off as u64, &rows[off], &mut clock, &mut stats));
            } else {
                results.extend(plan.insert_batch(
                    off as u64,
                    &flat[off * stride..(off + take) * stride],
                    stride,
                    Threads::default(),
                    &mut clock,
                    &mut stats,
                ));
            }
            off += take;
        }
        prop_assert_eq!(&results, &serial_results, "results diverged");
        prop_assert_eq!(clock.ticks(), sc.ticks(), "ticks diverged");
        prop_assert_eq!(stats.observable(), ss.observable(), "observable stats diverged");
        prop_assert_eq!(stats.sig_builds > 0, screened);
        for q in 0..prefs.len() {
            let qid = QueryId(q as u16);
            prop_assert_eq!(
                plan.query_skyline_entries(qid),
                serial.query_skyline_entries(qid),
                "query {} members diverged", q
            );
        }
    }
}
