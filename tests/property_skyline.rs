//! Property-based tests of the core skyline machinery: every algorithm and
//! shared structure must agree with the definitional oracle on arbitrary
//! inputs.

use caqe::cuboid::{MinMaxCuboid, SharedInsert, SharedSkylinePlan};
use caqe::operators::{
    skyline_bnl, skyline_reference, skyline_sfs, IncrementalSkyline, InsertOutcome, SkylineWindow,
};
use caqe::parallel::Threads;
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
    // call cuts — is `property_sig.rs`). ---

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

/// What `SharedSkylinePlan`'s batched replay must reproduce: one unscreened
/// [`SkylineWindow`] per cuboid subspace, every tuple taken one at a time,
/// bottom-up, through `SkylineWindow::insert` and nothing else.
struct OneAtATime {
    cuboid: MinMaxCuboid,
    windows: Vec<SkylineWindow>,
    /// Every tuple seen; a member's handle is its row.
    rows: PointStore,
    assume_dva: bool,
}

impl OneAtATime {
    fn new(cuboid: MinMaxCuboid, stride: usize, assume_dva: bool) -> Self {
        let windows = cuboid
            .subspaces()
            .iter()
            .map(|&m| SkylineWindow::new(m))
            .collect();
        OneAtATime {
            cuboid,
            windows,
            rows: PointStore::new(stride),
            assume_dva,
        }
    }

    fn insert(&mut self, point: &[f64], clock: &mut SimClock, stats: &mut Stats) -> SharedInsert {
        let tag = self.rows.len() as u64;
        let handle = self.rows.push(point);
        let (rows, cuboid) = (&self.rows, &self.cuboid);
        let before = stats.dom_comparisons;
        let mut added_mask = 0u64;
        let mut query_evictions = Vec::new();
        for (i, win) in self.windows.iter_mut().enumerate() {
            let survivor = self.assume_dva
                && cuboid
                    .children(i)
                    .iter()
                    .any(|&c| added_mask & (1 << c) != 0);
            let outcome = win.insert(tag, point, handle, survivor, |p| rows.get(p), stats);
            let InsertOutcome::Added { removed } = outcome else {
                continue;
            };
            added_mask |= 1 << i;
            if !removed.is_empty() {
                let owners = (0..cuboid.num_queries() as u16)
                    .map(QueryId)
                    .filter(|&q| cuboid.query_subspace(q) == i);
                query_evictions.extend(owners.map(|q| (q, removed.clone())));
            }
        }
        clock.charge_dom_cmps(stats.dom_comparisons - before);
        stats.plan_points_interned += u64::from(added_mask != 0);
        let in_query_sky = (0..cuboid.num_queries() as u16)
            .map(|q| added_mask & (1 << cuboid.query_subspace(QueryId(q))) != 0)
            .collect();
        SharedInsert {
            added_mask,
            in_query_sky,
            query_evictions,
        }
    }

    fn query_tags(&self, q: QueryId) -> Vec<u64> {
        self.windows[self.cuboid.query_subspace(q)]
            .members()
            .map(|(tag, _)| tag)
            .collect()
    }
}

/// 150–400 four-dimensional rows with values in `0..=41`, either
/// *correlated* (a shared level plus coarse per-dimension noise: the
/// window's front dominates nearly everything, and values tie) or on a small
/// integer grid (heavy ties, duplicates).
fn front_screen_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let correlated =
        (0u8..40, proptest::collection::vec(0u8..8, 4..=4)).prop_map(|(level, noise)| {
            noise
                .iter()
                .map(|&e| f64::from(level) + f64::from(e) / 4.0)
                .collect::<Vec<f64>>()
        });
    let grid = proptest::collection::vec((0u8..6).prop_map(f64::from), 4..=4);
    prop_oneof![
        proptest::collection::vec(correlated, 150..400),
        proptest::collection::vec(grid, 150..400),
    ]
}

/// Plants the rows the front screen's guard rules exist for into a stream
/// of non-negative rows.
fn plant_front_screen_cases(rows: &mut [Vec<f64>]) {
    let n = rows.len();
    let inf = f64::INFINITY;
    // Alone in its windows until row 1 arrives, which it dominates on the
    // float test — but over dimension 0 its score is NaN, sorted as +inf,
    // and a one-at-a-time insert of row 1 never meets it.
    rows[0] = vec![f64::NAN, 0.0, 0.0, 0.0];
    // Dominates everything before it: every window's front is evicted.
    rows[n / 3] = vec![-1.0; 4];
    // Ties with that front wherever dimension 3 is left out, so under DVA
    // Theorem 1 vouches for it in the parents — where the front dominates it.
    rows[n / 3 + 5] = vec![-1.0, -1.0, -1.0, 0.0];
    // A finite front dominates it; its own score is +inf.
    rows[n / 2] = vec![inf, 0.0, 0.0, 0.0];
    // The new lowest score of every window over dimension 0 and another,
    // evicting nothing there: later rows meet it before their dominator.
    rows[2 * n / 3] = vec![-1000.0, 50.0, 50.0, 50.0];
    // Non-finite fronts (score -inf; NaN where +inf meets -inf), late
    // enough that most of the stream was screened.
    rows[n - 9] = vec![0.0, -inf, 0.0, 0.0];
    rows[n - 5] = vec![inf, -inf, 1.0, 1.0];
}

/// 100–400 anticorrelated rows at a stride of 2–6: each row spreads a
/// budget of 60 over its dimensions, rounded to integers (ties and
/// duplicates stay common), so a full-space window holds dozens to hundreds
/// of members — many 8-lane signature chunks. A handful of scattered values
/// are NaN; screened ≡ unscreened needs no transitivity.
fn anticorrelated_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=6).prop_flat_map(|d| {
        (
            proptest::collection::vec(proptest::collection::vec(1u16..100, d..=d), 100..400),
            proptest::collection::vec((0usize..400, 0..d), 0..6),
        )
            .prop_map(|(weights, nans)| {
                let mut rows: Vec<Vec<f64>> = weights
                    .iter()
                    .map(|w| {
                        let total: f64 = w.iter().map(|&x| f64::from(x)).sum();
                        w.iter()
                            .map(|&x| (f64::from(x) * 60.0 / total).round())
                            .collect()
                    })
                    .collect();
                let n = rows.len();
                for (r, k) in nans {
                    rows[r % n][k] = f64::NAN;
                }
                rows
            })
    })
}

/// The window by its definition, one member at a time and nothing else: no
/// signatures, no skips, no binary search. Members ascend by score (a NaN
/// score filed as `+inf`), a newcomer goes in front of its ties; the reject
/// scan walks the `score ≤` prefix and is charged up to its first dominator
/// or the whole prefix, and the sweep is charged the whole `score ≥` suffix.
struct MemberAtATime {
    mask: DimMask,
    /// `(score, tag, point)`.
    members: Vec<(f64, u64, Vec<f64>)>,
}

impl MemberAtATime {
    /// The outcome of inserting `point` and the comparisons it is charged.
    fn insert(&mut self, tag: u64, point: &[f64]) -> (InsertOutcome, u64) {
        let score = match self.mask.iter().map(|k| point[k]).sum::<f64>() {
            s if s.is_nan() => f64::INFINITY,
            s => s,
        };
        let prefix = self.members.iter().take_while(|m| m.0 <= score).count();
        for (k, m) in self.members[..prefix].iter().enumerate() {
            if dominates_in(&m.2, point, self.mask) {
                return (InsertOutcome::Dominated, k as u64 + 1);
            }
        }
        let pos = self.members.iter().take_while(|m| m.0 < score).count();
        let suffix = self.members.split_off(pos);
        let charge = (prefix + suffix.len()) as u64;
        let mut removed = Vec::new();
        for m in suffix {
            if dominates_in(point, &m.2, self.mask) {
                removed.push(m.1);
            } else {
                self.members.push(m);
            }
        }
        self.members.insert(pos, (score, tag, point.to_vec()));
        (InsertOutcome::Added { removed }, charge)
    }

    fn tags(&self) -> Vec<u64> {
        self.members.iter().map(|m| m.1).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SkylineWindow::insert`, plain and screened, against the
    /// member-at-a-time definition: per step the outcome (`removed` order
    /// included), the comparisons charged and the member order. Screened ≡
    /// unscreened cannot catch a bound both share; this can. The first row
    /// is all zeros but NaN in the mask's first dimension: its score files it
    /// at the tail, and the float test alone would call it a dominator of
    /// nearly every later row.
    #[test]
    fn window_charges_match_a_member_at_a_time_reference(
        rows in anticorrelated_rows(),
        full in any::<bool>(),
        bits in 0u32..64,
    ) {
        let d = rows[0].len();
        let mask = if full { DimMask::full(d) } else { mask_for(d, bits) };
        let mut rows = rows;
        rows[0] = vec![0.0; d];
        rows[0][mask.iter().next().expect("a non-empty mask")] = f64::NAN;
        let mut store = PointStore::new(d);
        for p in &rows {
            store.push(p);
        }
        let quant = SigQuantizer::from_store(&store, mask).expect("a non-empty store of ≤ 6 dims");
        for mut sky in [IncrementalSkyline::new(mask), IncrementalSkyline::screened(mask, quant)] {
            let mut reference = MemberAtATime { mask, members: Vec::new() };
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            for (i, p) in rows.iter().enumerate() {
                let before = stats.dom_comparisons;
                let got = sky.insert(i as u64, p, &mut clock, &mut stats);
                let (want, charge) = reference.insert(i as u64, p);
                prop_assert_eq!(&got, &want, "step {} over {}", i, mask);
                prop_assert_eq!(stats.dom_comparisons - before, charge, "step {} over {}", i, mask);
                prop_assert_eq!(sky.tags().collect::<Vec<_>>(), reference.tags(), "step {}", i);
            }
            prop_assert_eq!(clock.ticks(), stats.dom_comparisons);
        }
    }

    /// Screened ≡ unscreened on windows long enough that reject prefixes
    /// and evict suffixes span several 8-lane chunks: per-step outcomes
    /// (`removed` order included), member order, ticks and
    /// `Stats::observable`. Halfway through, a planted row dominates every
    /// member that is at least a third of the budget's share in each
    /// dimension, so one insert evicts a scattered part of a long window
    /// and compacts the survivors across chunk boundaries.
    #[test]
    fn large_screened_windows_match_unscreened(
        rows in anticorrelated_rows(),
        full in any::<bool>(),
        bits in 0u32..64,
    ) {
        let d = rows[0].len();
        let mask = if full { DimMask::full(d) } else { mask_for(d, bits) };
        let mut rows = rows;
        let n = rows.len();
        rows[n / 2] = vec![(20.0 / d as f64).floor(); d];
        let mut store = PointStore::new(d);
        for p in &rows {
            store.push(p);
        }
        let quant = SigQuantizer::from_store(&store, mask).expect("a non-empty store of ≤ 6 dims");
        let mut plain = IncrementalSkyline::new(mask);
        let mut screened = IncrementalSkyline::screened(mask, quant);
        let (outcomes, c1, s1) = stream(&mut plain, &rows);
        let (screened_outcomes, c2, s2) = stream(&mut screened, &rows);
        for (i, (a, b)) in outcomes.iter().zip(&screened_outcomes).enumerate() {
            prop_assert_eq!(a, b, "step {} over {}", i, mask);
        }
        prop_assert_eq!(plain.tags().collect::<Vec<_>>(), screened.tags().collect::<Vec<_>>());
        prop_assert_eq!(c1.ticks(), c2.ticks());
        prop_assert_eq!(s1.observable(), s2.observable());
    }

    /// `insert_batch` — the front screen settling up to 64 candidates per
    /// pass — is one-at-a-time `SkylineWindow::insert` in everything
    /// observable: per-tuple results and evictions, member order, ticks,
    /// `Stats::observable`; whatever the masks, the cut, DVA on or off,
    /// signature-screened or not.
    #[test]
    fn batch_front_screen_matches_one_at_a_time_inserts(
        rows in front_screen_rows(),
        pref_bits in proptest::collection::vec(1u32..16, 1..5),
        cuts in proptest::collection::vec(
            prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(129)],
            1..6,
        ),
        assume_dva in any::<bool>(),
        screened in any::<bool>(),
        // One run in eight poisons a whole column with NaN.
        nan_col in 0usize..32,
    ) {
        let mut rows = rows;
        plant_front_screen_cases(&mut rows);
        let nan_bits = if nan_col < 4 { 1u32 << nan_col } else { 0 };
        let rows = poison_columns(rows, nan_bits);
        let prefs: Vec<DimMask> = pref_bits.iter().map(|&b| DimMask(b)).collect();
        let cuboid = MinMaxCuboid::build(&prefs);

        let mut reference = OneAtATime::new(cuboid.clone(), 4, assume_dva);
        let (mut rc, mut rs) = (SimClock::default(), Stats::new());
        let want: Vec<SharedInsert> =
            rows.iter().map(|p| reference.insert(p, &mut rc, &mut rs)).collect();

        let mut plan = SharedSkylinePlan::new(cuboid.clone(), assume_dva);
        if screened {
            plan.enable_sig_cache(&[0.0; 4], &[42.0; 4]);
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let (mut clock, mut stats) = (SimClock::default(), Stats::new());
        let mut got = Vec::new();
        let mut off = 0usize;
        for &cut in cuts.iter().cycle() {
            if off == rows.len() {
                break;
            }
            let take = cut.min(rows.len() - off);
            got.extend(plan.insert_batch(
                off as u64,
                &flat[off * 4..(off + take) * 4],
                4,
                Threads::default(),
                &mut clock,
                &mut stats,
            ));
            off += take;
        }

        for (tag, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "tuple {} diverged", tag);
        }
        prop_assert_eq!(clock.ticks(), rc.ticks());
        prop_assert_eq!(stats.observable(), rs.observable());
        for q in (0..prefs.len() as u16).map(QueryId) {
            prop_assert_eq!(plan.query_skyline_tags(q), reference.query_tags(q));
        }
        // Every scalar window insert of a screened plan quantizes its
        // candidate; a lane the front settled never got that far.
        if screened && nan_bits == 0 {
            prop_assert!(stats.sig_builds < (rows.len() * cuboid.len()) as u64);
        }
    }
}
