//! Property tests for the flat-layout migration (DESIGN.md §12): the
//! specialized [`DomKernel`]s must agree with the generic `relate_in` /
//! `relate` on *every* input and every [`DomRelation`] outcome, and the
//! store-based skyline entry points must be observationally identical —
//! same results, same `Stats`, same virtual-clock ticks — to the
//! `Vec<Vec<f64>>` adapters they replaced. BNL, screened by signatures
//! (DESIGN.md §17) or not, is held candidate by candidate to the
//! member-at-a-time loop.

use caqe::operators::{
    hash_join_project, hash_join_project_store, skyline_bnl, skyline_bnl_store, skyline_reference,
    skyline_sfs, skyline_sfs_store, skyline_sfs_store_each, JoinSpec, MappingSet,
};
use caqe::types::{
    relate, relate_in, DimMask, DomKernel, DomRelation, PointStore, Rect, SigQuantizer, SimClock,
    Stats,
};
use proptest::prelude::*;

/// Point sets with stride 2–8, values on a small lattice so ties, equality
/// and both dominance directions all occur.
fn strided_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=8).prop_flat_map(|d| {
        proptest::collection::vec(
            proptest::collection::vec((0u8..6).prop_map(|v| v as f64), d..=d),
            2..40,
        )
    })
}

/// Point sets on a lattice that includes *both* signed zeros (`total_cmp`
/// tells `-0.0` and `+0.0` apart but `<` does not — the signed-zero note in
/// dominance.rs), plus a duplicated prefix so exact duplicate points occur.
fn tricky_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    const LATTICE: [f64; 5] = [-0.0, 0.0, 1.0, 2.0, 3.0];
    (2usize..=8).prop_flat_map(move |d| {
        proptest::collection::vec(
            proptest::collection::vec((0usize..LATTICE.len()).prop_map(|i| LATTICE[i]), d..=d),
            2..32,
        )
        .prop_flat_map(|pts| {
            let n = pts.len();
            (0usize..=n).prop_map(move |k| {
                let mut all = pts.clone();
                all.extend(pts[..k].iter().cloned());
                all
            })
        })
    })
}

/// A window of 1–64 upper corners over `d ≤ 4` dimensions, drawn (with
/// repeats) from a table of rows, plus a target lower corner: lattice
/// values with ties, both signed zeros and NaN.
fn corner_window() -> impl Strategy<Value = (usize, Vec<Vec<f64>>, Vec<usize>, Vec<f64>)> {
    fn row(d: usize) -> impl Strategy<Value = Vec<f64>> {
        const LATTICE: [f64; 6] = [-0.0, 0.0, 1.0, 2.0, 3.0, f64::NAN];
        proptest::collection::vec((0usize..LATTICE.len()).prop_map(|i| LATTICE[i]), d..=d)
    }
    (1usize..=4).prop_flat_map(|d| {
        (proptest::collection::vec(row(d), 1..80), row(d)).prop_flat_map(move |(rows, lo)| {
            let n = rows.len();
            proptest::collection::vec(0..n, 1..=64)
                .prop_map(move |members| (d, rows.clone(), members, lo.clone()))
        })
    })
}

/// What the member-at-a-time BNL loop leaves behind.
struct BnlReference {
    /// Survivors in ascending input order (what `skyline_bnl_store` returns).
    survivors: Vec<usize>,
    stats: Stats,
    ticks: u64,
    /// The final window in window order: admissions appended, evictions
    /// `swap_remove`d.
    window: Vec<usize>,
    /// Comparisons charged to each candidate, in input order.
    charges: Vec<u64>,
}

/// The member-at-a-time BNL loop the block screen and the signature skip
/// replaced: one kernel relate per examined window member, early exit on
/// a dominator, `swap_remove` on an eviction — the charge reference for
/// `skyline_bnl_store`.
fn bnl_scalar_reference(points: &PointStore, kernel: &DomKernel) -> BnlReference {
    let mut clock = SimClock::default();
    let mut stats = Stats::new();
    let mut window: Vec<usize> = Vec::new();
    let mut charges = Vec::with_capacity(points.len());
    'next: for i in 0..points.len() {
        let p = points.at(i);
        let mut k = 0;
        charges.push(0);
        while k < window.len() {
            clock.charge_dom_cmps(1);
            stats.dom_comparisons += 1;
            charges[i] += 1;
            match kernel.relate(points.at(window[k]), p) {
                DomRelation::Dominates => continue 'next,
                DomRelation::DominatedBy => {
                    window.swap_remove(k);
                }
                DomRelation::Equal | DomRelation::Incomparable => k += 1,
            }
        }
        window.push(i);
    }
    let mut survivors = window.clone();
    survivors.sort_unstable();
    BnlReference {
        survivors,
        stats,
        ticks: clock.ticks(),
        window,
        charges,
    }
}

/// The store of the first `n` rows of `points`.
fn prefix_store(points: &[Vec<f64>], n: usize) -> PointStore {
    let mut store = PointStore::with_capacity(points[0].len(), n);
    for p in &points[..n] {
        store.push(p);
    }
    store
}

/// The signature screens BNL is held to its reference under, for `mask`
/// over `store` (stride `d`): none; bounds from the store itself; bounds
/// so narrow that every lattice value saturates to the lowest or highest
/// code; and degenerate bounds (collapsed, infinite) that code every
/// value 0.
fn screens(
    store: &PointStore,
    mask: DimMask,
    d: usize,
) -> Vec<(&'static str, Option<SigQuantizer>)> {
    let quant = |lo: f64, hi: f64| SigQuantizer::from_bounds(mask, &vec![lo; d], &vec![hi; d]);
    vec![
        ("unscreened", None),
        ("store bounds", SigQuantizer::from_store(store, mask)),
        ("saturating bounds", quant(1.4, 1.6)),
        ("collapsed bounds", quant(2.0, 2.0)),
        ("infinite bounds", quant(f64::NEG_INFINITY, f64::INFINITY)),
    ]
}

/// A non-empty subspace of `d` dimensions derived from random bits.
fn mask_for(d: usize, bits: u32) -> DimMask {
    let m = bits % ((1 << d) as u32);
    if m == 0 {
        DimMask::full(d)
    } else {
        DimMask(m)
    }
}

proptest! {
    #[test]
    fn kernel_relate_agrees_with_relate_in(points in strided_points(), bits in 0u32..4096) {
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        let mut seen = [false; 4];
        for a in &points {
            for b in &points {
                let want = relate_in(a, b, mask);
                prop_assert_eq!(kernel.relate(a, b), want);
                seen[match want {
                    DomRelation::Dominates => 0,
                    DomRelation::DominatedBy => 1,
                    DomRelation::Equal => 2,
                    DomRelation::Incomparable => 3,
                }] = true;
                prop_assert_eq!(kernel.dominates(a, b), want == DomRelation::Dominates);
            }
        }
        // Self-relation covers Equal on every run; the lattice values make
        // the other outcomes common, but they need not all occur per case.
        prop_assert!(seen[2]);
    }

    #[test]
    fn full_space_kernel_agrees_with_relate(points in strided_points()) {
        // The stride-specialized full-space fast path must match the
        // Definition 1 relation exactly.
        let d = points[0].len();
        let kernel = DomKernel::new(DimMask::full(d), d);
        for a in &points {
            for b in &points {
                prop_assert_eq!(kernel.relate(a, b), relate(a, b));
            }
        }
    }

    #[test]
    fn kernel_score_matches_mask_walk(points in strided_points(), bits in 0u32..4096) {
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        for p in &points {
            let want: f64 = mask.iter().map(|k| p[k]).sum();
            prop_assert_eq!(kernel.score(p).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn store_skylines_are_observationally_identical_to_adapters(
        points in strided_points(),
        bits in 0u32..4096,
    ) {
        // The adapters and the flat entry points must agree not just on the
        // skyline but on every observable: comparison counts and ticks.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let mut store = PointStore::with_capacity(d, points.len());
        for p in &points {
            store.push(p);
        }
        let kernel = DomKernel::new(mask, d);

        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        let bnl_old = skyline_bnl(&points, mask, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        let bnl_new = skyline_bnl_store(&store, &kernel, None, &mut c2, &mut s2);
        prop_assert_eq!(bnl_old, bnl_new);
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(c1.ticks(), c2.ticks());

        let mut c3 = SimClock::default();
        let mut s3 = Stats::new();
        let sfs_old = skyline_sfs(&points, mask, &mut c3, &mut s3);
        let mut c4 = SimClock::default();
        let mut s4 = Stats::new();
        let sfs_new = skyline_sfs_store(&store, &kernel, &mut c4, &mut s4);
        prop_assert_eq!(sfs_old, sfs_new);
        prop_assert_eq!(&s3, &s4);
        prop_assert_eq!(c3.ticks(), c4.ticks());
    }

    #[test]
    fn block_verdicts_agree_with_relate_in(points in tricky_points(), bits in 0u32..4096) {
        // The row-walking block screen must flag exactly the lanes whose
        // member relate_in puts below the probe — including ties, signed
        // zeros and duplicate points — and the packed window layout BNL
        // walks must give relate_in's verdict through full-slice `relate`.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        let mut store = PointStore::with_capacity(d, points.len());
        for p in &points {
            store.push(p);
        }
        let dm = kernel.len();
        let mut packed: Vec<f64> = Vec::with_capacity(points.len() * dm);
        for p in &points {
            kernel.pack_append(p, &mut packed);
        }
        let mut pbuf = Vec::new();
        for probe in 0..points.len() {
            let mut first = 0;
            while first < points.len() {
                let count = (points.len() - first).min(64);
                let bv = kernel.relate_block_rows(store.as_flat(), d, first, count, &points[probe]);
                for j in 0..count {
                    let want = relate_in(&points[first + j], &points[probe], mask);
                    prop_assert_eq!(
                        (bv.dominated_members() >> j) & 1 == 1,
                        want == DomRelation::DominatedBy,
                        "rows lane {} member {} probe {}", j, first + j, probe
                    );
                }
                first += count;
            }
            kernel.pack_into(&points[probe], &mut pbuf);
            for (m, row) in packed.chunks_exact(dm).enumerate() {
                prop_assert_eq!(
                    relate(row, &pbuf),
                    relate_in(&points[m], &points[probe], mask),
                    "packed member {} probe {}", m, probe
                );
            }
        }
    }

    #[test]
    fn block_skylines_are_observationally_identical_to_scalar(
        points in tricky_points(),
        bits in 0u32..4096,
    ) {
        // BNL's block screen must agree with the member-at-a-time loop it
        // replaced on every observable: survivors, comparison counts and
        // virtual ticks. SFS has one filter; its survivors are checked
        // against the definition.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let mut store = PointStore::with_capacity(d, points.len());
        for p in &points {
            store.push(p);
        }
        let kernel = DomKernel::new(mask, d);
        let want = bnl_scalar_reference(&store, &kernel);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        prop_assert_eq!(skyline_bnl_store(&store, &kernel, None, &mut clock, &mut stats), want.survivors);
        prop_assert_eq!(&stats, &want.stats);
        prop_assert_eq!(clock.ticks(), want.ticks);

        let sfs = skyline_sfs_store(&store, &kernel, &mut SimClock::default(), &mut Stats::new());
        prop_assert_eq!(sfs, skyline_reference(&points, mask));
    }

    #[test]
    fn screened_bnl_matches_the_reference_step_by_step(
        points in tricky_points(),
        bits in 0u32..4096,
    ) {
        // Under every screen — none, store bounds, saturating bounds,
        // degenerate bounds — BNL must charge each candidate what the
        // member-at-a-time loop charges it and leave the same window after
        // every step. BNL reads no clock mid-run and the block screen
        // replays the loop exactly, so BNL over the first `m` rows is the
        // loop's first `m` steps: the tick difference between consecutive
        // prefixes is one candidate's charge.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        let want = bnl_scalar_reference(&prefix_store(&points, points.len()), &kernel);
        let mut final_window = want.window.clone();
        final_window.sort_unstable();
        prop_assert_eq!(&final_window, &want.survivors);
        for (label, quant) in screens(&prefix_store(&points, points.len()), mask, d) {
            let mut before = 0;
            for m in 1..=points.len() {
                let store = prefix_store(&points, m);
                let step = bnl_scalar_reference(&store, &kernel);
                let mut clock = SimClock::default();
                let mut stats = Stats::new();
                let got = skyline_bnl_store(&store, &kernel, quant.as_ref(), &mut clock, &mut stats);
                prop_assert_eq!(&got, &step.survivors, "{}: window after step {}", label, m - 1);
                prop_assert_eq!(
                    clock.ticks() - before,
                    want.charges[m - 1],
                    "{}: charge of candidate {}", label, m - 1
                );
                prop_assert_eq!(&stats, &step.stats, "{}: stats after step {}", label, m - 1);
                prop_assert_eq!(stats.sig_builds, 0, "{}: BNL counts no signature builds", label);
                before = clock.ticks();
            }
            prop_assert_eq!(before, want.ticks, "{}: total ticks", label);
        }
    }

    #[test]
    fn corner_block_matches_dominates_region(
        (d, rows, members, lo) in corner_window(),
        bits in 0u32..16,
    ) {
        // Lane j of the packed corner scan is Definition 8 case 1 for member
        // j, for any values: ties, signed zeros and unordered (NaN) corners.
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        let his: Vec<f64> = rows.iter().flatten().copied().collect();
        let target = Rect::point(&lo);
        let lanes = kernel.dominate_block_corners(&his, d, &members, &lo);
        for (j, &m) in members.iter().enumerate() {
            prop_assert_eq!(
                (lanes >> j) & 1 == 1,
                Rect::point(&rows[m]).dominates_region(&target, mask),
                "lane {} member {} hi {:?} lo {:?}", j, m, &rows[m], &lo
            );
        }
        prop_assert_eq!(lanes.checked_shr(members.len() as u32).unwrap_or(0), 0, "lanes past the window are clear");
    }

    #[test]
    fn join_store_output_is_observationally_identical_to_adapter(
        n_left in 1usize..30,
        n_right in 1usize..30,
        key_mod in 1u32..6,
    ) {
        use caqe::data::Record;
        let rec = |id: u64, v: f64, key: u32| Record::new(id, vec![v, v + 1.0], vec![key]);
        let left: Vec<Record> = (0..n_left)
            .map(|i| rec(i as u64, i as f64, (i as u32 * 7 + 3) % key_mod))
            .collect();
        let right: Vec<Record> = (0..n_right)
            .map(|i| rec(100 + i as u64, i as f64 * 0.5, (i as u32 * 5 + 1) % key_mod))
            .collect();
        let mapping = MappingSet::mixed(2, 2, 3);
        let spec = JoinSpec::on_column(0);

        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        let tuples = hash_join_project(&left, &right, spec, &mapping, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        let flat = hash_join_project_store(&left, &right, spec, &mapping, &mut c2, &mut s2);

        prop_assert_eq!(tuples.len(), flat.len());
        for (i, o) in tuples.iter().enumerate() {
            prop_assert_eq!(flat.pairs[i], (o.rid, o.tid));
            prop_assert_eq!(flat.store.at(i), o.vals.as_slice());
        }
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(c1.ticks(), c2.ticks());
    }
}

/// All four [`DomRelation`] outcomes, checked deterministically against the
/// kernel on a masked subspace and on the full space.
#[test]
fn kernel_covers_all_four_outcomes() {
    for d in 2usize..=8 {
        let mut a = vec![1.0; d];
        let mut b = vec![1.0; d];
        for mask in [DimMask::full(d), DimMask::from_dims([0, d - 1])] {
            let kernel = DomKernel::new(mask, d);
            // Equal.
            assert_eq!(kernel.relate(&a, &b), DomRelation::Equal);
            assert_eq!(relate_in(&a, &b, mask), DomRelation::Equal);
            // Dominates / DominatedBy.
            a[0] = 0.0;
            assert_eq!(kernel.relate(&a, &b), DomRelation::Dominates);
            assert_eq!(kernel.relate(&b, &a), DomRelation::DominatedBy);
            assert_eq!(relate_in(&a, &b, mask), DomRelation::Dominates);
            // Incomparable.
            b[d - 1] = 0.0;
            assert_eq!(kernel.relate(&a, &b), DomRelation::Incomparable);
            assert_eq!(relate_in(&a, &b, mask), DomRelation::Incomparable);
            a[0] = 1.0;
            b[d - 1] = 1.0;
        }
    }
}

/// Deterministic lattice points: `n` points of `d` dimensions with ties.
fn lattice(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|k| ((i * 7 + k * 13 + i * k) % 5) as f64)
                .collect()
        })
        .collect()
}

/// Runs BNL, unscreened and screened, and SFS over `points` in `mask` and
/// checks both against the definition, BNL's charges against the
/// member-at-a-time reference, and SFS's survivor hook against its result.
fn check_one_path(points: &[Vec<f64>], stride: usize, mask: DimMask, label: &str) {
    let mut store = PointStore::with_capacity(stride, points.len());
    for p in points {
        store.push(p);
    }
    let kernel = DomKernel::new(mask, stride);
    let want = skyline_reference(points, mask);

    let reference = bnl_scalar_reference(&store, &kernel);
    assert_eq!(
        reference.survivors, want,
        "{label}: reference BNL survivors"
    );
    let quant = SigQuantizer::from_store(&store, mask);
    for screen in [None, quant.as_ref()] {
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let bnl = skyline_bnl_store(&store, &kernel, screen, &mut clock, &mut stats);
        let label = format!("{label}, screened {}", screen.is_some());
        assert_eq!(bnl, want, "{label}: BNL survivors");
        assert_eq!(stats, reference.stats, "{label}: BNL stats");
        assert_eq!(clock.ticks(), reference.ticks, "{label}: BNL ticks");
    }

    let mut reported = Vec::new();
    let mut clock = SimClock::default();
    let mut stats = Stats::new();
    let sfs = skyline_sfs_store_each(&store, &kernel, &mut clock, &mut stats, |i, c, s| {
        // Every comparison that admitted `i` is already charged.
        assert_eq!(
            c.ticks(),
            s.dom_comparisons,
            "{label}: hook saw a stale clock"
        );
        reported.push(i);
    });
    assert_eq!(sfs, want, "{label}: SFS survivors");
    reported.sort_unstable();
    assert_eq!(
        reported, sfs,
        "{label}: SFS hook reports every survivor once"
    );
}

#[test]
fn one_path_skylines_cover_degenerate_inputs() {
    check_one_path(&[], 2, DimMask::full(2), "empty store");
    check_one_path(&[vec![3.0, 1.0]], 2, DimMask::full(2), "one point");
    check_one_path(
        &vec![vec![2.0, 2.0, 2.0]; 20],
        3,
        DimMask::full(3),
        "all identical",
    );
    check_one_path(
        &lattice(30, 3),
        3,
        DimMask::singleton(1),
        "one-dimension mask",
    );
    check_one_path(&lattice(30, 3), 3, DimMask(0), "empty mask");
    // Across the retired size threshold (8) and the 64-lane chunk.
    for n in 1..=70 {
        check_one_path(&lattice(n, 3), 3, DimMask::full(3), &format!("n={n} full"));
        check_one_path(
            &lattice(n, 4),
            4,
            DimMask::from_dims([0, 2]),
            &format!("n={n} pair"),
        );
        check_one_path(
            &lattice(n, 4),
            4,
            DimMask::from_dims([0, 1, 3]),
            &format!("n={n} general"),
        );
    }
}

#[test]
fn sfs_passes_over_unordered_values() {
    // After the presort an incoming point can dominate a survivor only
    // through NaN; the filter passes such a verdict over instead of
    // panicking, in debug and in release, at every size.
    for nan in [f64::NAN, -f64::NAN] {
        for n in [2usize, 7, 8, 65] {
            let mut points = lattice(n, 2);
            points[0] = vec![nan, 4.0];
            points.push(vec![0.0, 0.0]);
            points.push(vec![1.0, nan]);
            let mut store = PointStore::new(2);
            for p in &points {
                store.push(p);
            }
            let kernel = DomKernel::new(DimMask::full(2), 2);
            let sky =
                skyline_sfs_store(&store, &kernel, &mut SimClock::default(), &mut Stats::new());
            assert!(sky.windows(2).all(|w| w[0] < w[1]), "survivors ascending");
            assert!(sky.iter().all(|&i| i < points.len()));
            assert!(sky.contains(&(points.len() - 2)), "[0, 0] survives");
        }
    }
}
