//! Property-based tests of signature screening (DESIGN.md §17): the SWAR
//! signature relation must be *sound* against the exact float dominance
//! relation on arbitrary inputs, and the shared plan must be observationally
//! identical — results, charged comparisons, virtual ticks — screened or
//! not, however its input is cut into calls. (The single window's own
//! suite is `property_skyline.rs`.)

use caqe::cuboid::{MinMaxCuboid, SharedInsert, SharedSkylinePlan};
use caqe::operators::skyline_reference;
use caqe::parallel::Threads;
use caqe::types::sig::{sig_relate, SigQuantizer, SIG_POISON};
use caqe::types::{relate_in, DimMask, PointStore, QueryId, SimClock, Stats, Value};
use proptest::prelude::*;

/// Lattice-valued rows at a fixed stride `d`: coarse values force ties and
/// duplicates; `nan_mask` poisons dimension `k` of every row for each set
/// bit `k` (uniform poison keeps dominance a strict partial order, which
/// the scalar reference relies on).
fn rows_strategy(d: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, u32)> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u8..10).prop_map(|v| v as f64 / 3.0), d..=d),
            1..80,
        ),
        0u32..(1 << d.min(3)),
    )
}

fn store_of(rows: &[Vec<f64>], nan_mask: u32, d: usize) -> PointStore {
    let mut store = PointStore::new(d);
    let mut row = vec![0.0; d];
    for r in rows {
        row.copy_from_slice(r);
        for (k, v) in row.iter_mut().enumerate() {
            if nan_mask & (1 << k) != 0 {
                *v = Value::NAN;
            }
        }
        store.push(&row);
    }
    store
}

/// A random non-empty subspace of `d` dimensions.
fn mask_for(d: usize, bits: u32) -> DimMask {
    let m = bits % ((1u32 << d) - 1) + 1;
    DimMask(m)
}

proptest! {
    /// Soundness: whenever `sig_relate` returns a proven verdict for a pair
    /// of quantized signatures, the exact float relation agrees — on every
    /// stride 2..=8, with ties, duplicates and NaN-poisoned dimensions.
    #[test]
    fn sig_relate_is_sound_against_relate_in(
        (rows, nan_mask) in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
    ) {
        let d = rows[0].len();
        let store = store_of(&rows, nan_mask, d);
        let mask = mask_for(d, bits);
        let Some(quant) = SigQuantizer::from_store(&store, mask) else {
            return Ok(()); // unquantizable subspace: nothing to prove
        };
        let h = quant.high_mask();
        let sigs: Vec<u64> = (0..store.len()).map(|i| quant.sig(store.at(i))).collect();
        for i in 0..store.len() {
            for j in 0..store.len() {
                if let Some(v) = sig_relate(sigs[i], sigs[j], h) {
                    prop_assert_eq!(
                        v,
                        relate_in(store.at(i), store.at(j), mask),
                        "proven verdict wrong for pair ({}, {}) over {}",
                        i, j, mask
                    );
                }
            }
        }
    }

    /// NaN on *both* sides: two poisoned points have no provable relation
    /// in either direction — `sig_relate` must refuse a verdict for
    /// poison-vs-poison (and poison-vs-clean) under every quantizer, and
    /// under the degenerate `high_mask = 0` no caller should ever pass.
    #[test]
    fn poison_vs_poison_refuses_a_verdict(
        (rows, _) in (2usize..=8).prop_flat_map(rows_strategy),
        bits in 1u32..256,
        (i_pick, j_pick) in (0usize..80, 0usize..80),
    ) {
        let d = rows[0].len();
        let clean = store_of(&rows, 0, d);
        let mask = mask_for(d, bits);
        let Some(quant) = SigQuantizer::from_store(&clean, mask) else {
            return Ok(());
        };
        let h = quant.high_mask();
        // Poison one masked dimension of two arbitrary rows: their
        // signatures both collapse to SIG_POISON.
        let k = (0..d).find(|k| mask.contains(*k)).expect("non-empty mask");
        let (i, j) = (i_pick % rows.len(), j_pick % rows.len());
        let mut a_point = rows[i].clone();
        let mut b_point = rows[j].clone();
        a_point[k] = Value::NAN;
        b_point[k] = Value::NAN;
        let a = quant.sig(&a_point);
        let b = quant.sig(&b_point);
        prop_assert_eq!(a, SIG_POISON);
        prop_assert_eq!(b, SIG_POISON);
        prop_assert_eq!(sig_relate(a, b, h), None, "poison vs poison proved a verdict");
        // Poison against a clean signature, both directions.
        let c = quant.sig(&rows[j]);
        prop_assert_eq!(sig_relate(a, c, h), None, "poison vs clean proved a verdict");
        prop_assert_eq!(sig_relate(c, b, h), None, "clean vs poison proved a verdict");
        // Hardened path: even a (hypothetical) caller passing high = 0
        // must not extract a verdict from two poison values.
        prop_assert_eq!(sig_relate(SIG_POISON, SIG_POISON, 0), None);
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
