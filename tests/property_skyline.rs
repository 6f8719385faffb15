//! Property-based tests of the core skyline machinery: every algorithm and
//! shared structure must agree with the definitional oracle on arbitrary
//! inputs.

use caqe::cuboid::{MinMaxCuboid, SharedSkylinePlan};
use caqe::operators::{
    skyline_bnl, skyline_reference, skyline_sfs, IncrementalSkyline, InsertOutcome,
};
use caqe::types::sig::SigQuantizer;
use caqe::types::{dominates_in, DimMask, PointStore, QueryId, SimClock, Stats};
use proptest::prelude::*;

/// Up to 60 points in up to 4 dimensions, values on a small lattice so that
/// ties and duplicates are exercised.
fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=4).prop_flat_map(|d| {
        proptest::collection::vec(
            proptest::collection::vec((0u8..12).prop_map(|v| v as f64), d..=d),
            0..60,
        )
    })
}

/// A random non-empty subspace of `d` dimensions.
fn mask_for(d: usize, bits: u32) -> DimMask {
    let m = bits % ((1 << d) as u32);
    if m == 0 {
        DimMask::full(d)
    } else {
        DimMask(m)
    }
}

/// Overwrites column `k` of every point with NaN for each set bit `k` of
/// `nan_bits`. A *uniformly* poisoned column ties everywhere, so dominance
/// degenerates to the remaining dimensions and stays a strict partial order
/// (NaN in only some rows would break transitivity, and with it the very
/// notion of a skyline the reference defines).
fn poison_columns(mut points: Vec<Vec<f64>>, nan_bits: u32) -> Vec<Vec<f64>> {
    for p in &mut points {
        for (k, v) in p.iter_mut().enumerate() {
            if nan_bits & (1 << k) != 0 {
                *v = f64::NAN;
            }
        }
    }
    points
}

/// Streams `points` into `sky` in order, tag == index.
fn stream(
    sky: &mut IncrementalSkyline,
    points: &[Vec<f64>],
) -> (Vec<InsertOutcome>, SimClock, Stats) {
    let mut clock = SimClock::default();
    let mut stats = Stats::new();
    let outcomes = points
        .iter()
        .enumerate()
        .map(|(i, p)| sky.insert(i as u64, p, &mut clock, &mut stats))
        .collect();
    (outcomes, clock, stats)
}

/// The degenerate table: each input through the plain window, the screened
/// window and a one-query shared plan (Theorem 1 off — the values tie),
/// against the definitional reference.
#[test]
fn degenerate_inputs_keep_the_window_exact() {
    let nan = f64::NAN;
    let table: Vec<(&str, Vec<Vec<f64>>, DimMask)> = vec![
        ("empty input", vec![], DimMask::full(2)),
        (
            "all-identical points",
            vec![vec![2.0, 2.0, 2.0]; 7],
            DimMask::full(3),
        ),
        (
            "one preference dimension",
            vec![
                vec![3.0, 9.0],
                vec![1.0, 8.0],
                vec![1.0, 0.0],
                vec![2.0, 1.0],
            ],
            DimMask::singleton(0),
        ),
        (
            "duplicate values without DVA",
            vec![
                vec![1.0, 2.0],
                vec![1.0, 2.0],
                vec![1.0, 3.0],
                vec![0.0, 3.0],
                vec![1.0, 1.0],
            ],
            DimMask::full(2),
        ),
        (
            "a uniformly-NaN column",
            vec![
                vec![nan, 1.0, 1.0],
                vec![nan, 2.0, 2.0],
                vec![nan, 0.5, 3.0],
                vec![nan, 0.5, 0.5],
            ],
            DimMask::full(3),
        ),
    ];
    for (name, points, mask) in table {
        let want: Vec<u64> = skyline_reference(&points, mask)
            .into_iter()
            .map(|i| i as u64)
            .collect();
        let sorted = |mut tags: Vec<u64>| {
            tags.sort_unstable();
            tags
        };
        let mut plain = IncrementalSkyline::new(mask);
        let (outcomes, clock, stats) = stream(&mut plain, &points);
        assert_eq!(sorted(plain.tags().collect()), want, "{name}: plain window");

        let stride = mask.iter().last().map_or(0, |k| k + 1);
        let quant = SigQuantizer::from_bounds(mask, &vec![0.0; stride], &vec![4.0; stride])
            .expect("a quantizable subspace");
        let mut screened = IncrementalSkyline::screened(mask, quant);
        let (screened_outcomes, screened_clock, screened_stats) = stream(&mut screened, &points);
        assert_eq!(screened_outcomes, outcomes, "{name}: screened outcomes");
        assert_eq!(
            screened.tags().collect::<Vec<_>>(),
            plain.tags().collect::<Vec<_>>(),
            "{name}"
        );
        assert_eq!(
            screened_clock.ticks(),
            clock.ticks(),
            "{name}: screened ticks"
        );
        assert_eq!(screened_stats.observable(), stats.observable(), "{name}");

        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&[mask]), false);
        let (mut plan_clock, mut plan_stats) = (SimClock::default(), Stats::new());
        for (i, p) in points.iter().enumerate() {
            plan.insert(i as u64, p, &mut plan_clock, &mut plan_stats);
        }
        assert_eq!(
            sorted(plan.query_skyline_tags(QueryId(0))),
            want,
            "{name}: shared plan"
        );
    }
}

proptest! {
    #[test]
    fn bnl_and_sfs_match_reference(points in points_strategy(), bits in 0u32..16) {
        let d = points.first().map_or(1, |p| p.len());
        let mask = mask_for(d, bits);
        let reference = skyline_reference(&points, mask);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let bnl = skyline_bnl(&points, mask, &mut clock, &mut stats);
        let sfs = skyline_sfs(&points, mask, &mut clock, &mut stats);
        prop_assert_eq!(&bnl, &reference);
        prop_assert_eq!(&sfs, &reference);
    }

    #[test]
    fn skyline_is_minimal_and_complete(points in points_strategy(), bits in 0u32..16) {
        let d = points.first().map_or(1, |p| p.len());
        let mask = mask_for(d, bits);
        let sky = skyline_reference(&points, mask);
        // No member is dominated by any point.
        for &i in &sky {
            for q in &points {
                prop_assert!(!dominates_in(q, &points[i], mask));
            }
        }
        // Every non-member is dominated by some member.
        let member: std::collections::BTreeSet<usize> = sky.iter().copied().collect();
        for (i, p) in points.iter().enumerate() {
            if !member.contains(&i) {
                prop_assert!(
                    sky.iter().any(|&s| dominates_in(&points[s], p, mask)),
                    "non-member {i} not dominated"
                );
            }
        }
    }

    // --- The incremental window's definitional suite: what it keeps, what
    // it throws out, and that screening is invisible (the plan-level half —
    // call cuts and thread counts — is `property_sig.rs`). ---

    #[test]
    fn incremental_skyline_matches_reference(
        points in points_strategy(),
        bits in 0u32..16,
        nan_bits in 0u32..16,
    ) {
        let d = points.first().map_or(1, |p| p.len());
        let mask = mask_for(d, bits);
        let points = poison_columns(points, nan_bits);
        let mut sky = IncrementalSkyline::new(mask);
        stream(&mut sky, &points);
        // Equal points do not dominate each other: every duplicate stays.
        let mut got: Vec<u64> = sky.tags().collect();
        got.sort_unstable();
        let want: Vec<u64> = skyline_reference(&points, mask).iter().map(|&i| i as u64).collect();
        prop_assert_eq!(got, want);
        for (tag, p) in sky.entries() {
            prop_assert_eq!(p.len(), d);
            prop_assert!(p.iter().zip(&points[tag as usize]).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn incremental_evictions_are_sound(points in points_strategy(), bits in 0u32..16) {
        // Whatever got evicted must be dominated by the point that evicted
        // it; whatever is Dominated on insert must have a dominator inside.
        let d = points.first().map_or(1, |p| p.len());
        let mask = mask_for(d, bits);
        let mut sky = IncrementalSkyline::new(mask);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        for (i, p) in points.iter().enumerate() {
            let before = sky.len() as u64;
            let charged = stats.dom_comparisons;
            match sky.insert(i as u64, p, &mut clock, &mut stats) {
                InsertOutcome::Added { removed } => {
                    for tag in removed {
                        prop_assert!(dominates_in(p, &points[tag as usize], mask));
                    }
                }
                InsertOutcome::Dominated => {
                    prop_assert!(sky
                        .entries()
                        .any(|(_, q)| dominates_in(q, p, mask)));
                }
            }
            // One charge per examined member, and a member is examined at
            // most once per scan (reject, then evict).
            prop_assert!(stats.dom_comparisons - charged <= 2 * before);
        }
        prop_assert_eq!(clock.ticks(), stats.dom_comparisons);
    }

    #[test]
    fn screened_window_matches_unscreened(
        points in points_strategy(),
        bits in 0u32..16,
        nan_bits in 0u32..16,
    ) {
        // Same outcome per step, same member order, same charged
        // comparisons, same virtual ticks — with ties, duplicates and
        // uniformly poisoned columns (whose signatures all fall back to the
        // float test).
        let d = points.first().map_or(1, |p| p.len());
        let mask = mask_for(d, bits);
        let points = poison_columns(points, nan_bits);
        let mut store = PointStore::new(d);
        for p in &points {
            store.push(p);
        }
        let Some(quant) = SigQuantizer::from_store(&store, mask) else {
            return Ok(()); // empty input: nothing to quantize
        };
        let mut plain = IncrementalSkyline::new(mask);
        let mut screened = IncrementalSkyline::screened(mask, quant);
        let (outcomes, c1, s1) = stream(&mut plain, &points);
        let (screened_outcomes, c2, s2) = stream(&mut screened, &points);
        prop_assert_eq!(outcomes, screened_outcomes);
        prop_assert_eq!(plain.tags().collect::<Vec<_>>(), screened.tags().collect::<Vec<_>>());
        prop_assert_eq!(c1.ticks(), c2.ticks());
        prop_assert_eq!(s1.observable(), s2.observable());
        prop_assert_eq!(s1.sig_builds, 0);
        prop_assert_eq!(s2.sig_builds, points.len() as u64);
    }

    #[test]
    fn shared_plan_matches_reference_per_query(
        points in points_strategy(),
        pref_bits in proptest::collection::vec(1u32..16, 1..5),
    ) {
        let d = points.first().map_or(2, |p| p.len()).max(2);
        // Regenerate points at fixed arity d for the workload.
        let points: Vec<Vec<f64>> = points
            .into_iter()
            .map(|mut p| {
                p.resize(d, 1.0);
                p
            })
            .collect();
        let prefs: Vec<DimMask> = pref_bits
            .iter()
            .map(|&b| mask_for(d, b))
            .collect();
        // Ties are possible on the lattice: DVA shortcuts must stay off.
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid, false);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        for (i, p) in points.iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
        }
        for (qi, &pref) in prefs.iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(qi as u16));
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_reference(&points, pref)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "query {} over {}", qi, pref);
        }
    }

    #[test]
    fn theorem1_subspace_monotonicity(points in points_strategy(), bits in 1u32..15) {
        // Under distinct values, SKY_U ⊆ SKY_V for U ⊂ V. Our lattice
        // points have ties, so restrict to deduplicated dimension values.
        let d = points.first().map_or(2, |p| p.len()).max(2);
        // Perturb to break ties deterministically.
        let points: Vec<Vec<f64>> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (0..d)
                    .map(|k| p.get(k).copied().unwrap_or(0.0) + (i as f64) * 1e-7)
                    .collect()
            })
            .collect();
        let v = DimMask::full(d);
        let u = mask_for(d, bits);
        prop_assume!(u.is_strict_subset_of(v));
        let sky_u: std::collections::BTreeSet<usize> =
            skyline_reference(&points, u).into_iter().collect();
        let sky_v: std::collections::BTreeSet<usize> =
            skyline_reference(&points, v).into_iter().collect();
        prop_assert!(sky_u.is_subset(&sky_v), "Theorem 1 violated");
    }
}
