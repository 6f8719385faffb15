//! Skyline algorithms over a single point set (`SKY_P`, §2.2).
//!
//! Three batch implementations with different roles in the reproduction
//! (the streaming one is [`crate::window`]):
//!
//! * [`skyline_reference`] — the obviously correct O(n²) definition-checker,
//!   used as the oracle in property tests;
//! * [`skyline_bnl`] — Block-Nested-Loop [3], the classic in-memory
//!   algorithm the paper's JFSL baseline uses;
//! * [`skyline_sfs`] — Sort-Filter-Skyline [6]: presorting by a monotone
//!   score means a later point can never dominate an earlier survivor, which
//!   both prunes comparisons and makes every emitted survivor *final* — the
//!   progressiveness backbone of the SSMJ baseline, which reports each
//!   survivor through [`skyline_sfs_store_each`]'s hook.
//!
//! All of them count every pairwise dominance comparison (the paper's CPU
//! metric, Figure 10.b) through the supplied [`Stats`] and [`SimClock`].
//!
//! The algorithms run over the flat [`PointStore`] layout with a
//! per-subspace [`DomKernel`] (DESIGN.md §12); the `&[Vec<Value>]` entry
//! points are thin adapters kept for oracles and call-site compatibility.
//! Both layouts perform the *same comparisons in the same order*, so stats,
//! ticks and traces are identical whichever entry point is used.

use caqe_types::sig::{first_may_relate, SigQuantizer};
use caqe_types::{
    relate, relate_in, DimMask, DomKernel, DomRelation, PointStore, SimClock, Stats, Value,
};

/// Interns a `Vec<Vec<f64>>` point set into a flat store (adapter path).
fn intern(points: &[Vec<Value>], mask: DimMask) -> PointStore {
    let stride = points
        .first()
        .map_or_else(|| mask.iter().last().map_or(0, |k| k + 1), Vec::len);
    let mut store = PointStore::with_capacity(stride, points.len());
    for p in points {
        store.push(p);
    }
    store
}

/// Naive O(n²) skyline straight from Definition 2. Returns the indices of
/// non-dominated points, preserving input order. Oracle for tests; not
/// instrumented.
///
/// ```
/// use caqe_operators::skyline_reference;
/// use caqe_types::DimMask;
///
/// let pts = vec![vec![1.0, 9.0], vec![9.0, 1.0], vec![5.0, 5.0], vec![6.0, 6.0]];
/// assert_eq!(skyline_reference(&pts, DimMask::full(2)), vec![0, 1, 2]);
/// ```
pub fn skyline_reference(points: &[Vec<Value>], mask: DimMask) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && relate_in(q, &points[i], mask) == DomRelation::Dominates)
        })
        .collect()
}

/// Block-Nested-Loop skyline [3] over a flat point store: maintains a window
/// of current skyline candidates and compares every incoming point against
/// it, charging one comparison per examined window member — early exit on
/// a dominator, `swap_remove` on an eviction (DESIGN.md §15).
///
/// Candidates are screened 64 at a time against the *first* window member
/// in one branch-free transposed pass over the store's contiguous rows
/// ([`DomKernel::relate_block_rows`] with the candidates as lanes and
/// `window[0]` as the probe). BNL examines `window[0]` first for every
/// candidate, so a set reject bit is exactly one charged comparison and a
/// reject — the overwhelming majority of candidates on skyline-sized
/// windows.
///
/// Unresolved lanes walk a *packed* copy of the window (subspace values
/// gathered on admission, so the walk touches a few dense cache lines
/// instead of scattered store rows). With a signature quantizer `quant`
/// (DESIGN.md §17), built for the kernel's subspace, the walk also keeps
/// one signature per member and skips, eight per step, the members whose
/// signatures prove them incomparable with the candidate
/// ([`first_may_relate`]). The walk would have stepped past each of them,
/// so the window evolves the same way, and each is still one charged
/// comparison. The walk is the only place the window mutates; an eviction
/// of `window[0]` (`swap_remove(0)`) invalidates the precomputed screen, so
/// the rest of that chunk is walked too. The bulk screen and the
/// signatures are uncharged physical work, like the SFS presort.
///
/// Returns indices of skyline points in ascending input order.
pub fn skyline_bnl_store(
    points: &PointStore,
    kernel: &DomKernel,
    quant: Option<&SigQuantizer>,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<usize> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let d = kernel.len();
    let stride = points.stride();
    let flat = points.as_flat();
    // Unscreened, every signature is 0 and `high` is 0, so no skip passes
    // anything and the walk decides every member it reaches.
    let high = quant.map_or(0, SigQuantizer::high_mask);
    let sig = |p: &[Value]| quant.map_or(0, |q| q.sig(p));
    let mut window: Vec<usize> = Vec::new();
    // Window members' subspace values, `d` per member, and their
    // signatures, in window order.
    let mut wvals: Vec<Value> = Vec::new();
    let mut wsigs: Vec<u64> = Vec::new();
    let mut probe: Vec<Value> = Vec::with_capacity(d);
    // The first point is admitted against an empty window, uncompared.
    window.push(0);
    kernel.pack_append(points.at(0), &mut wvals);
    wsigs.push(sig(points.at(0)));
    let mut i = 1;
    while i < n {
        let count = (n - i).min(64);
        let all = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let m0 = points.at(window[0]);
        let bv = kernel.relate_block_rows(flat, stride, i, count, m0);
        // Lane j set: `window[0]` dominates candidate `i + j` — an exact
        // one-comparison reject, bulk-charged below. Only the unresolved
        // lanes are walked, in ascending order (bit iteration).
        let mut rejects = bv.dominated_members() & all;
        // Charged comparisons of this chunk: the screen's rejects plus
        // every member the walk examined, skipped or decided.
        let mut cmps = u64::from(rejects.count_ones());
        let mut todo = all & !rejects;
        while todo != 0 {
            let j = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let p = points.at(i + j);
            kernel.pack_into(p, &mut probe);
            let csig = sig(p);
            let len = window.len();
            let mut k = 0;
            let mut dominated = false;
            let mut m0_evicted = false;
            loop {
                k += first_may_relate(&wsigs[k..], csig, high);
                if k == window.len() {
                    break;
                }
                // Packed rows hold exactly the kernel's subspace values in
                // ascending dimension order, so full-slice `relate` returns
                // the verdict `kernel.relate` gives on the original rows.
                match relate(&wvals[k * d..(k + 1) * d], &probe) {
                    DomRelation::Dominates => {
                        dominated = true;
                        break;
                    }
                    DomRelation::DominatedBy => {
                        if k == 0 {
                            m0_evicted = true;
                        }
                        window.swap_remove(k);
                        swap_remove_row(&mut wvals, k, d);
                        wsigs.swap_remove(k);
                    }
                    // Definition 1: equal points do not dominate — keep both.
                    DomRelation::Equal | DomRelation::Incomparable => k += 1,
                }
            }
            // One comparison per member examined: the `k` stepped past, the
            // victims evicted (`len - window.len()`) and the dominator.
            cmps += (k + len - window.len() + usize::from(dominated)) as u64;
            if !dominated {
                window.push(i + j);
                kernel.pack_append(p, &mut wvals);
                wsigs.push(csig);
            }
            if m0_evicted {
                // `window[0]` changed: the screen is stale for every later
                // lane — demote its remaining rejects to the walk.
                let later = (u64::MAX << j) << 1;
                let stale = rejects & later;
                cmps -= u64::from(stale.count_ones());
                todo |= stale;
                rejects &= !stale;
            }
        }
        clock.charge_dom_cmps(cmps);
        stats.dom_comparisons += cmps;
        i += count;
    }
    window.sort_unstable();
    window
}

/// `Vec::swap_remove` on row `k` of a flat buffer of `d`-wide rows.
#[inline]
fn swap_remove_row(rows: &mut Vec<Value>, k: usize, d: usize) {
    let last = rows.len() / d - 1;
    if k != last {
        let (head, tail) = rows.split_at_mut(last * d);
        head[k * d..(k + 1) * d].copy_from_slice(&tail[..d]);
    }
    rows.truncate(last * d);
}

/// Block-Nested-Loop skyline over `Vec<Vec<f64>>` points — thin unscreened
/// adapter over [`skyline_bnl_store`] (identical comparisons, counts and
/// order).
pub fn skyline_bnl(
    points: &[Vec<Value>],
    mask: DimMask,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<usize> {
    let store = intern(points, mask);
    let kernel = DomKernel::new(mask, store.stride());
    skyline_bnl_store(&store, &kernel, None, clock, stats)
}

/// Sort-Filter-Skyline [6] over a flat point store: sorts by the kernel's
/// monotone score, then filters. Survivors are final the moment they are
/// admitted, which is what makes SFS-style processing *progressive*.
/// [`skyline_sfs_store_each`] without a survivor hook.
pub fn skyline_sfs_store(
    points: &PointStore,
    kernel: &DomKernel,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<usize> {
    skyline_sfs_store_each(points, kernel, clock, stats, |_, _, _| {})
}

/// The one SFS filter: scores every point once with the kernel's monotone
/// score (O(n·d), not O(n log n · d) inside the comparator), sorts
/// ascending — stable on ties, uncharged physical preprocessing — then
/// compares each candidate against the survivors in admission order,
/// charging one comparison per examined survivor and stopping at the first
/// dominator.
///
/// `on_survivor(i, clock, stats)` runs the moment point `i` is admitted,
/// with every comparison that decided it already charged: a survivor is
/// final, so a caller may report it there (SSMJ's progressive emission).
///
/// After the presort an incoming point can dominate an admitted survivor
/// only through unordered (NaN) values; such a `DominatedBy` verdict is
/// passed over like `Incomparable`, so the scan never panics.
///
/// Returns indices of skyline points in ascending input order.
pub fn skyline_sfs_store_each(
    points: &PointStore,
    kernel: &DomKernel,
    clock: &mut SimClock,
    stats: &mut Stats,
    mut on_survivor: impl FnMut(usize, &mut SimClock, &mut Stats),
) -> Vec<usize> {
    let scores: Vec<Value> = (0..points.len())
        .map(|i| kernel.score(points.at(i)))
        .collect();
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut sky: Vec<usize> = Vec::new();
    'next: for i in order {
        let p = points.at(i);
        for &s in &sky {
            clock.charge_dom_cmps(1);
            stats.dom_comparisons += 1;
            // Definition 1: equal points do not dominate — keep both.
            if kernel.relate(points.at(s), p) == DomRelation::Dominates {
                continue 'next;
            }
        }
        sky.push(i);
        on_survivor(i, clock, stats);
    }
    sky.sort_unstable();
    sky
}

/// Sort-Filter-Skyline over `Vec<Vec<f64>>` points — thin adapter over
/// [`skyline_sfs_store`] (identical comparisons, counts and order).
pub fn skyline_sfs(
    points: &[Vec<Value>],
    mask: DimMask,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<usize> {
    let store = intern(points, mask);
    let kernel = DomKernel::new(mask, store.stride());
    skyline_sfs_store(&store, &kernel, clock, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[&[Value]]) -> Vec<Vec<Value>> {
        raw.iter().map(|p| p.to_vec()).collect()
    }

    fn run_all(points: &[Vec<Value>], mask: DimMask) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let reference = skyline_reference(points, mask);
        let mut c = SimClock::default();
        let mut s = Stats::new();
        let bnl = skyline_bnl(points, mask, &mut c, &mut s);
        let sfs = skyline_sfs(points, mask, &mut c, &mut s);
        (reference, bnl, sfs)
    }

    #[test]
    fn all_algorithms_agree_small() {
        let points = pts(&[
            &[1.0, 9.0],
            &[9.0, 1.0],
            &[5.0, 5.0],
            &[6.0, 6.0], // dominated by [5,5]
            &[1.0, 9.5], // dominated by [1,9]
        ]);
        let (r, b, s) = run_all(&points, DimMask::full(2));
        assert_eq!(r, vec![0, 1, 2]);
        assert_eq!(b, r);
        assert_eq!(s, r);
    }

    #[test]
    fn subspace_changes_skyline() {
        let points = pts(&[&[1.0, 9.0], &[2.0, 1.0]]);
        // Full space: both survive.
        assert_eq!(skyline_reference(&points, DimMask::full(2)).len(), 2);
        // On {d1} only the first survives.
        assert_eq!(skyline_reference(&points, DimMask::singleton(0)), vec![0]);
        // On {d2} only the second survives.
        assert_eq!(skyline_reference(&points, DimMask::singleton(1)), vec![1]);
    }

    #[test]
    fn sfs_uses_fewer_or_equal_comparisons_than_bnl() {
        // Descending-quality input is BNL's bad case.
        let points: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![(200 - i) as Value, (200 - i) as Value])
            .collect();
        let mask = DimMask::full(2);
        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        skyline_bnl(&points, mask, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        skyline_sfs(&points, mask, &mut c2, &mut s2);
        assert!(s2.dom_comparisons <= s1.dom_comparisons);
    }

    #[test]
    fn store_entry_points_match_adapters_exactly() {
        // The flat-layout entry points and the Vec<Vec<f64>> adapters must
        // agree on results, comparison counts AND virtual ticks.
        let points: Vec<Vec<Value>> = (0..120)
            .map(|i| {
                let x = (i * 37 % 100) as Value;
                vec![x, 100.0 - x, (i % 9) as Value]
            })
            .collect();
        let mask = DimMask::from_dims([0, 2]);
        let mut store = PointStore::new(3);
        for p in &points {
            store.push(p);
        }
        let kernel = DomKernel::new(mask, 3);
        let quant = SigQuantizer::from_store(&store, mask).unwrap();
        for which in ["bnl", "screened bnl", "sfs"] {
            let mut c1 = SimClock::default();
            let mut s1 = Stats::new();
            let mut c2 = SimClock::default();
            let mut s2 = Stats::new();
            let (a, b) = match which {
                "bnl" => (
                    skyline_bnl(&points, mask, &mut c1, &mut s1),
                    skyline_bnl_store(&store, &kernel, None, &mut c2, &mut s2),
                ),
                "screened bnl" => (
                    skyline_bnl(&points, mask, &mut c1, &mut s1),
                    skyline_bnl_store(&store, &kernel, Some(&quant), &mut c2, &mut s2),
                ),
                _ => (
                    skyline_sfs(&points, mask, &mut c1, &mut s1),
                    skyline_sfs_store(&store, &kernel, &mut c2, &mut s2),
                ),
            };
            assert_eq!(a, b, "{which}: results diverged");
            assert_eq!(s1, s2, "{which}: stats diverged");
            assert_eq!(c1.ticks(), c2.ticks(), "{which}: ticks diverged");
        }
    }

    #[test]
    fn kernel_score_respects_mask() {
        let p = [1.0, 10.0, 100.0];
        assert_eq!(
            DomKernel::new(DimMask::from_dims([0, 2]), 3).score(&p),
            101.0
        );
        assert_eq!(DomKernel::new(DimMask::full(3), 3).score(&p), 111.0);
    }

    #[test]
    fn empty_input() {
        let (r, b, s) = run_all(&[], DimMask::full(2));
        assert!(r.is_empty() && b.is_empty() && s.is_empty());
    }

    #[test]
    fn single_point_survives() {
        let points = pts(&[&[5.0, 5.0]]);
        let (r, b, s) = run_all(&points, DimMask::full(2));
        assert_eq!(r, vec![0]);
        assert_eq!(b, vec![0]);
        assert_eq!(s, vec![0]);
    }
}
