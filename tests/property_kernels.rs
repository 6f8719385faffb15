//! Property tests for the flat-layout migration (DESIGN.md §12): the
//! specialized [`DomKernel`]s must agree with the generic `relate_in` /
//! `relate` on *every* input and every [`DomRelation`] outcome, and the
//! store-based skyline entry points must be observationally identical —
//! same results, same `Stats`, same virtual-clock ticks — to the
//! `Vec<Vec<f64>>` adapters they replaced.

use caqe::operators::{
    hash_join_project, hash_join_project_store, skyline_bnl, skyline_bnl_store,
    skyline_bnl_store_scalar, skyline_sfs, skyline_sfs_store, skyline_sfs_store_scalar, JoinSpec,
    MappingSet,
};
use caqe::types::{
    relate, relate_in, DimMask, DomKernel, DomRelation, PointStore, SimClock, Stats,
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
        let bnl_new = skyline_bnl_store(&store, &kernel, &mut c2, &mut s2);
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
        // The Shape::Block row-walking and value-packed kernels must return
        // the exact relate_in verdict for every lane — including ties,
        // signed zeros and duplicate points.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let kernel = DomKernel::new(mask, d);
        let mut store = PointStore::with_capacity(d, points.len());
        for p in &points {
            store.push(p);
        }
        for probe in 0..points.len() {
            let mut first = 0;
            while first < points.len() {
                let count = (points.len() - first).min(64);
                let bv = kernel.relate_block_rows(store.as_flat(), d, first, count, &points[probe]);
                for j in 0..count {
                    prop_assert_eq!(
                        bv.relation(j),
                        relate_in(&points[first + j], &points[probe], mask),
                        "rows lane {} member {} probe {}", j, first + j, probe
                    );
                }
                first += count;
            }
            // Pre-gathered variant: members and probe packed down to the
            // subspace dimensions (the BNL/SFS window layout).
            let dm = kernel.len();
            let mut packed: Vec<f64> = Vec::with_capacity(points.len() * dm);
            for p in &points {
                kernel.pack_append(p, &mut packed);
            }
            let mut pbuf = Vec::new();
            kernel.pack_into(&points[probe], &mut pbuf);
            let mut first = 0;
            while first < points.len() {
                let count = (points.len() - first).min(64);
                let bv = kernel.relate_block_packed(&packed[first * dm..], count, &pbuf);
                for j in 0..count {
                    prop_assert_eq!(
                        bv.relation(j),
                        relate_in(&points[first + j], &points[probe], mask),
                        "packed lane {} member {} probe {}", j, first + j, probe
                    );
                }
                first += count;
            }
        }
    }

    #[test]
    fn block_skylines_are_observationally_identical_to_scalar(
        points in tricky_points(),
        bits in 0u32..4096,
    ) {
        // The block dispatch in the store entry points and the kept scalar
        // reference loops must agree on every observable: survivors,
        // comparison counts and virtual ticks.
        let d = points[0].len();
        let mask = mask_for(d, bits);
        let mut store = PointStore::with_capacity(d, points.len());
        for p in &points {
            store.push(p);
        }
        let kernel = DomKernel::new(mask, d);

        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        let bnl_scalar = skyline_bnl_store_scalar(&store, &kernel, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        let bnl_block = skyline_bnl_store(&store, &kernel, &mut c2, &mut s2);
        prop_assert_eq!(bnl_scalar, bnl_block);
        // The forced-scalar twin records no dispatch decision; the entry
        // point records exactly one. Everything *charged* must be equal.
        prop_assert_eq!(s1.block_kernel_ops + s1.scalar_kernel_ops, 0);
        prop_assert_eq!(s2.block_kernel_ops + s2.scalar_kernel_ops, 1);
        prop_assert_eq!(s1.observable(), s2.observable());
        prop_assert_eq!(c1.ticks(), c2.ticks());

        let mut c3 = SimClock::default();
        let mut s3 = Stats::new();
        let sfs_scalar = skyline_sfs_store_scalar(&store, &kernel, &mut c3, &mut s3);
        let mut c4 = SimClock::default();
        let mut s4 = Stats::new();
        let sfs_block = skyline_sfs_store(&store, &kernel, &mut c4, &mut s4);
        prop_assert_eq!(sfs_scalar, sfs_block);
        prop_assert_eq!(s3.block_kernel_ops + s3.scalar_kernel_ops, 0);
        prop_assert_eq!(s4.block_kernel_ops + s4.scalar_kernel_ops, 1);
        prop_assert_eq!(s3.observable(), s4.observable());
        prop_assert_eq!(c3.ticks(), c4.ticks());
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
