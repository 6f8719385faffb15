//! Skyline algorithms over a single point set (`SKY_P`, §2.2).
//!
//! Three implementations with different roles in the reproduction (the
//! score-sorted window the shared plans run is [`crate::window`]):
//!
//! * [`skyline_reference`] — the obviously correct O(n²) definition-checker,
//!   used as the oracle in property tests;
//! * [`BnlWindow`] — Block-Nested-Loop [3], the classic algorithm the
//!   paper's JFSL baseline uses, as a window fed rows in blocks of any
//!   size, so a join streamed through it is never held whole;
//!   [`skyline_bnl_store`] feeds it one whole store;
//! * [`skyline_sfs_store`] — Sort-Filter-Skyline [6]: presorting by a monotone
//!   score means a later point can never dominate an earlier survivor, which
//!   both prunes comparisons and makes every emitted survivor *final* — the
//!   progressiveness backbone of the SSMJ baseline, which reports each
//!   survivor through [`skyline_sfs_store_each`]'s hook.
//!
//! All of them count every pairwise dominance comparison (the paper's CPU
//! metric, Figure 10.b) through the supplied [`Stats`] and [`SimClock`].
//!
//! BNL and SFS run over the flat [`PointStore`] layout with a
//! per-subspace [`DomKernel`] (DESIGN.md §12); only the reference takes
//! `&[Vec<Value>]` points.

use caqe_types::sig::{first_may_relate, SigQuantizer};
use caqe_types::{
    relate, relate_in, DimMask, DomKernel, DomRelation, PointStore, SimClock, Stats, Value,
};

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

/// Rows per chunk of the screen: one lane of a `u64` verdict each.
const LANES: usize = 64;

/// Block-Nested-Loop skyline [3] as a window fed rows: keeps the current
/// skyline candidates and compares every incoming row against them,
/// counting one comparison per examined member — early exit on a
/// dominator, `swap_remove` on an eviction (DESIGN.md §15). BNL's only
/// state is its window, so its input may arrive in blocks of any size
/// ([`Self::feed`]) and need never be held whole; [`skyline_bnl_store`] is
/// one feed of a whole store.
///
/// Row 0 is admitted alone, against an empty window; the rows after it are
/// cut into 64-row chunks at input indices `1 + 64k`, wherever the blocks
/// end. A chunk a block's end cuts short is held (rows and tags copied)
/// until the next block or [`Self::finish`] completes it, so the chunks,
/// and every comparison in them, are the same however the input is fed.
///
/// Each chunk is screened against the *first* window member in one
/// branch-free transposed pass over its contiguous rows
/// ([`DomKernel::relate_block_rows`] with the candidates as lanes and the
/// screen row, a stride-wide copy of `window[0]`'s subspace values, as the
/// probe). BNL examines `window[0]` first for every candidate, so a set
/// reject bit is exactly one comparison and a reject — the overwhelming
/// majority of candidates on skyline-sized windows.
///
/// Unresolved lanes walk a *packed* copy of the window (subspace values
/// gathered on admission, so the walk touches a few dense cache lines and
/// never reads a row of an earlier block). With a signature quantizer
/// (DESIGN.md §17), built for the kernel's subspace, the walk also keeps
/// one signature per member and skips, eight per step, the members whose
/// signatures prove them incomparable with the candidate
/// ([`first_may_relate`]). The walk would have stepped past each of them,
/// so the window evolves the same way, and each is still one comparison.
/// The walk is the only place the window mutates; an eviction of
/// `window[0]` (`swap_remove(0)`) invalidates the screen, so the rest of
/// that chunk is walked too and the screen row is refreshed before the
/// next chunk. The screen and the signatures are uncharged physical work,
/// like the SFS presort.
///
/// Each member carries a caller's tag of type `T` (the join's `(rid, tid)`
/// for JFSL, `()` for a store) beside its input index, so a caller that
/// feeds blocks and drops them still knows what survived.
#[derive(Debug)]
pub struct BnlWindow<'k, T = ()> {
    kernel: &'k DomKernel,
    quant: Option<&'k SigQuantizer>,
    stride: usize,
    /// Input index of the next row a chunk takes (held rows start here).
    next: usize,
    /// Members' input indices, tags, subspace values (`d` per member) and
    /// signatures, in window order.
    members: Vec<usize>,
    tags: Vec<T>,
    wvals: Vec<Value>,
    wsigs: Vec<u64>,
    /// `members[0]`'s subspace values at their dimensions in a
    /// stride-wide row: the screen's probe.
    screen: Vec<Value>,
    /// The rows and tags of a chunk a block's end cut short.
    held: Vec<Value>,
    held_tags: Vec<T>,
    /// Comparisons counted so far.
    cmps: u64,
}

impl<'k, T: Copy> BnlWindow<'k, T> {
    /// An empty window over rows of `stride` values, relating them in
    /// `kernel`'s subspace and screening with `quant` when there is one.
    pub fn new(kernel: &'k DomKernel, quant: Option<&'k SigQuantizer>, stride: usize) -> Self {
        BnlWindow {
            kernel,
            quant,
            stride,
            next: 0,
            members: Vec::new(),
            tags: Vec::new(),
            wvals: Vec::new(),
            wsigs: Vec::new(),
            screen: vec![0.0; stride],
            held: Vec::with_capacity(LANES * stride),
            held_tags: Vec::with_capacity(LANES),
            cmps: 0,
        }
    }

    /// Feeds the next `tags.len()` input rows, flat (`stride` values per
    /// row), each with its tag.
    pub fn feed(&mut self, mut rows: &[Value], mut tags: &[T]) {
        let stride = self.stride;
        debug_assert_eq!(rows.len(), tags.len() * stride, "one tag per row");
        if self.next == 0 {
            // The first row is admitted against an empty window, uncompared.
            let Some(&tag) = tags.first() else {
                return;
            };
            let p = &rows[..stride];
            self.members.push(0);
            self.tags.push(tag);
            self.kernel.pack_append(p, &mut self.wvals);
            self.wsigs.push(self.quant.map_or(0, |q| q.sig(p)));
            write_screen(self.kernel, &self.wvals, &mut self.screen);
            self.next = 1;
            (rows, tags) = (&rows[stride..], &tags[1..]);
        }
        if !self.held_tags.is_empty() {
            let take = (LANES - self.held_tags.len()).min(tags.len());
            self.held.extend_from_slice(&rows[..take * stride]);
            self.held_tags.extend_from_slice(&tags[..take]);
            (rows, tags) = (&rows[take * stride..], &tags[take..]);
            if self.held_tags.len() < LANES {
                return;
            }
            self.run_held();
        }
        let whole = tags.len() / LANES * LANES;
        self.run_chunks(&rows[..whole * stride], &tags[..whole]);
        self.held.extend_from_slice(&rows[whole * stride..]);
        self.held_tags.extend_from_slice(&tags[whole..]);
    }

    /// Runs the held chunk, complete or the input's last, and empties it.
    fn run_held(&mut self) {
        let (held, held_tags) = (
            std::mem::take(&mut self.held),
            std::mem::take(&mut self.held_tags),
        );
        self.run_chunks(&held, &held_tags);
        (self.held, self.held_tags) = (held, held_tags);
        self.held.clear();
        self.held_tags.clear();
    }

    /// Ends the input: runs the held chunk and returns the comparisons
    /// counted and the skyline's `(input index, tag)` members in ascending
    /// input order.
    pub fn finish(mut self) -> (u64, Vec<(usize, T)>) {
        if !self.held_tags.is_empty() {
            self.run_held();
        }
        let mut sky: Vec<(usize, T)> = self.members.into_iter().zip(self.tags).collect();
        sky.sort_unstable_by_key(|&(i, _)| i);
        (self.cmps, sky)
    }

    /// Screens and walks `rows` (after row 0, starting at input index
    /// `self.next`) in chunks of [`LANES`]; only the input's last chunk may
    /// be shorter. The walk's state is moved into locals for the run, so
    /// the hot loop keeps it in registers rather than re-reading `self`.
    fn run_chunks(&mut self, rows: &[Value], tags: &[T]) {
        let n = tags.len();
        if n == 0 {
            return;
        }
        let (kernel, stride, base) = (self.kernel, self.stride, self.next);
        let d = kernel.len();
        // Unscreened, every signature is 0 and `high` is 0, so no skip
        // passes anything and the walk decides every member it reaches.
        let quant = self.quant;
        let high = quant.map_or(0, SigQuantizer::high_mask);
        let sig = |p: &[Value]| quant.map_or(0, |q| q.sig(p));
        let mut window = std::mem::take(&mut self.members);
        let mut wtags = std::mem::take(&mut self.tags);
        let mut wvals = std::mem::take(&mut self.wvals);
        let mut wsigs = std::mem::take(&mut self.wsigs);
        let mut probe: Vec<Value> = Vec::with_capacity(d);
        let mut total = 0u64;
        let mut i = 0;
        while i < n {
            #[cfg(test)]
            tests::CHUNK_STARTS.with(|c| c.borrow_mut().push(base + i));
            let count = (n - i).min(LANES);
            let all = if count == LANES {
                u64::MAX
            } else {
                (1u64 << count) - 1
            };
            let bv = kernel.relate_block_rows(rows, stride, i, count, &self.screen);
            // Lane j set: `window[0]` dominates candidate `i + j` — an
            // exact one-comparison reject, bulk-counted below. Only the
            // unresolved lanes are walked, in ascending order (bit
            // iteration).
            let mut rejects = bv.dominated_members() & all;
            // Comparisons of this chunk: the screen's rejects plus every
            // member the walk examined, skipped or decided.
            let mut cmps = u64::from(rejects.count_ones());
            let mut todo = all & !rejects;
            let mut stale = false;
            while todo != 0 {
                let j = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                let p = &rows[(i + j) * stride..(i + j + 1) * stride];
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
                    // Packed rows hold exactly the kernel's subspace values
                    // in ascending dimension order, so full-slice `relate`
                    // returns the verdict `kernel.relate` gives on the
                    // original rows.
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
                            wtags.swap_remove(k);
                            swap_remove_row(&mut wvals, k, d);
                            wsigs.swap_remove(k);
                        }
                        // Definition 1: equal points do not dominate — keep
                        // both.
                        DomRelation::Equal | DomRelation::Incomparable => k += 1,
                    }
                }
                // One comparison per member examined: the `k` stepped past,
                // the victims evicted (`len - window.len()`) and the
                // dominator.
                cmps += (k + len - window.len() + usize::from(dominated)) as u64;
                if !dominated {
                    window.push(base + i + j);
                    wtags.push(tags[i + j]);
                    kernel.pack_append(p, &mut wvals);
                    wsigs.push(csig);
                }
                if m0_evicted {
                    // `window[0]` changed: the screen is stale for every
                    // later lane — demote its remaining rejects to the walk.
                    stale = true;
                    let later = (u64::MAX << j) << 1;
                    let demoted = rejects & later;
                    cmps -= u64::from(demoted.count_ones());
                    todo |= demoted;
                    rejects &= !demoted;
                }
            }
            if stale {
                write_screen(kernel, &wvals, &mut self.screen);
            }
            total += cmps;
            i += count;
        }
        (self.members, self.tags, self.wvals, self.wsigs) = (window, wtags, wvals, wsigs);
        self.next = base + n;
        self.cmps += total;
    }
}

/// Block-Nested-Loop skyline [3] over a flat point store: one
/// [`BnlWindow`] fed the whole store, its comparisons charged to `clock`
/// and `stats`. Returns indices of skyline points in ascending input
/// order.
pub fn skyline_bnl_store(
    points: &PointStore,
    kernel: &DomKernel,
    quant: Option<&SigQuantizer>,
    clock: &mut SimClock,
    stats: &mut Stats,
) -> Vec<usize> {
    let mut window = BnlWindow::new(kernel, quant, points.stride());
    window.feed(points.as_flat(), &vec![(); points.len()]);
    let (cmps, sky) = window.finish();
    clock.charge_dom_cmps(cmps);
    stats.dom_comparisons += cmps;
    sky.into_iter().map(|(i, ())| i).collect()
}

/// Writes the first packed window row's values (`wvals[..d]`) to their
/// dimensions of the stride-wide screen row.
#[inline]
fn write_screen(kernel: &DomKernel, wvals: &[Value], screen: &mut [Value]) {
    for (&k, &v) in kernel.dims().iter().zip(wvals) {
        screen[k as usize] = v;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// Input index of every chunk [`BnlWindow`] screened on this
        /// thread, in order.
        pub(super) static CHUNK_STARTS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn pts(raw: &[&[Value]]) -> Vec<Vec<Value>> {
        raw.iter().map(|p| p.to_vec()).collect()
    }

    /// `points` as a flat store of 2-dimensional rows.
    fn store_of(points: &[Vec<Value>]) -> PointStore {
        let mut store = PointStore::new(2);
        for p in points {
            store.push(p);
        }
        store
    }

    fn run_all(points: &[Vec<Value>], mask: DimMask) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let reference = skyline_reference(points, mask);
        let store = store_of(points);
        let kernel = DomKernel::new(mask, store.stride());
        let mut c = SimClock::default();
        let mut s = Stats::new();
        let bnl = skyline_bnl_store(&store, &kernel, None, &mut c, &mut s);
        let sfs = skyline_sfs_store(&store, &kernel, &mut c, &mut s);
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
        let store = store_of(&points);
        let kernel = DomKernel::new(DimMask::full(2), 2);
        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        skyline_bnl_store(&store, &kernel, None, &mut c1, &mut s1);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        skyline_sfs_store(&store, &kernel, &mut c2, &mut s2);
        assert!(s2.dom_comparisons <= s1.dom_comparisons);
    }

    #[test]
    fn screened_bnl_matches_unscreened_exactly() {
        // The signature screen skips only incomparable members, each still
        // one comparison: results, stats and ticks are those of the plain
        // walk.
        let mut store = PointStore::new(3);
        for i in 0..120 {
            let x = (i * 37 % 100) as Value;
            store.push(&[x, 100.0 - x, (i % 9) as Value]);
        }
        let mask = DimMask::from_dims([0, 2]);
        let kernel = DomKernel::new(mask, 3);
        let quant = SigQuantizer::from_store(&store, mask).unwrap();
        let mut c1 = SimClock::default();
        let mut s1 = Stats::new();
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        assert_eq!(
            skyline_bnl_store(&store, &kernel, None, &mut c1, &mut s1),
            skyline_bnl_store(&store, &kernel, Some(&quant), &mut c2, &mut s2)
        );
        assert_eq!(s1, s2);
        assert_eq!(c1.ticks(), c2.ticks());
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

    /// The member-at-a-time BNL loop: `(comparisons, survivors)`.
    fn bnl_scalar(store: &PointStore, kernel: &DomKernel) -> (u64, Vec<usize>) {
        let mut cmps = 0;
        let mut window: Vec<usize> = Vec::new();
        'next: for i in 0..store.len() {
            let mut k = 0;
            while k < window.len() {
                cmps += 1;
                match kernel.relate(store.at(window[k]), store.at(i)) {
                    DomRelation::Dominates => continue 'next,
                    DomRelation::DominatedBy => {
                        window.swap_remove(k);
                    }
                    DomRelation::Equal | DomRelation::Incomparable => k += 1,
                }
            }
            window.push(i);
        }
        window.sort_unstable();
        (cmps, window)
    }

    /// 700 rows of 4 values on a small lattice, drifting towards better
    /// values so `window[0]` is evicted again and again.
    fn drifting_store() -> PointStore {
        let mut store = PointStore::new(4);
        for i in 0..700u64 {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let drift = (700 - i) as Value / 50.0;
            store.push(&[
                drift + (h % 7) as Value,
                drift + (h >> 8 & 7) as Value,
                (h >> 16 & 3) as Value,
                drift + (h >> 24 & 5) as Value,
            ]);
        }
        store
    }

    #[test]
    fn fed_blocks_cut_the_whole_stores_chunks() {
        // However the rows arrive, the chunks start at row 1 and every 64
        // rows after it, and the window ends where the member-at-a-time
        // loop does, comparison for comparison.
        let store = drifting_store();
        let n = store.len();
        let stride = store.stride();
        let want_starts: Vec<usize> = (1..n).step_by(LANES).collect();
        for mask in [
            DimMask::full(4),
            DimMask::from_dims([0, 3]),
            DimMask::from_dims([0, 1, 3]),
        ] {
            let kernel = DomKernel::new(mask, stride);
            let (want_cmps, want) = bnl_scalar(&store, &kernel);
            let quant = SigQuantizer::from_store(&store, mask);
            for quant in [None, quant.as_ref()] {
                for block in [1, 2, 63, 64, 65, 100, 129, n] {
                    CHUNK_STARTS.with(|c| c.borrow_mut().clear());
                    let mut window = BnlWindow::new(&kernel, quant, stride);
                    let tags: Vec<usize> = (0..n).map(|i| i * 3).collect();
                    for (rows, tags) in store
                        .as_flat()
                        .chunks(block * stride)
                        .zip(tags.chunks(block))
                    {
                        window.feed(rows, tags);
                    }
                    let (cmps, sky) = window.finish();
                    let label =
                        format!("{mask:?}, screened {}, blocks of {block}", quant.is_some());
                    assert_eq!(
                        CHUNK_STARTS.with(|c| c.take()),
                        want_starts,
                        "{label}: chunks"
                    );
                    assert_eq!(cmps, want_cmps, "{label}: comparisons");
                    assert_eq!(
                        sky.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                        want,
                        "{label}"
                    );
                    assert!(sky.iter().all(|&(i, tag)| tag == i * 3), "{label}: tags");
                }
            }
        }
    }

    #[test]
    fn short_inputs_cut_row_zero_alone() {
        // Row 0 is admitted uncompared; one chunk covers rows 1..65 and a
        // second starts at row 65.
        let store = drifting_store();
        let kernel = DomKernel::new(DimMask::full(4), 4);
        for n in [0, 1, 2, 64, 65, 66] {
            CHUNK_STARTS.with(|c| c.borrow_mut().clear());
            let mut window = BnlWindow::new(&kernel, None, 4);
            window.feed(&store.as_flat()[..n * 4], &vec![(); n]);
            let (cmps, sky) = window.finish();
            let want: Vec<usize> = (1..n).step_by(LANES).collect();
            assert_eq!(CHUNK_STARTS.with(|c| c.take()), want, "{n} rows");
            let mut prefix = PointStore::new(4);
            for i in 0..n {
                prefix.push(store.at(i));
            }
            let (want_cmps, want_sky) = bnl_scalar(&prefix, &kernel);
            assert_eq!(cmps, want_cmps, "{n} rows: comparisons");
            assert_eq!(sky.iter().map(|&(i, ())| i).collect::<Vec<_>>(), want_sky);
        }
    }
}
