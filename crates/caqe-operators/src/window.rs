//! The incremental skyline window (§4.1, §5.2) — the only streaming skyline
//! in the workspace.
//!
//! [`SkylineWindow`] keeps the members of one subspace skyline sorted by the
//! kernel's monotone score (the Sort-Filter-Skyline idea [6]): a dominator
//! never has a larger score than its victim, so an insert tests only the
//! `score ≤` prefix for a dominator and only the `score ≥` suffix for
//! victims (on ties the boundary member is in both). Member points live
//! wherever the caller keeps them — the shared plan's arena, an in-flight
//! batch — and are reached through the resolver passed to
//! [`SkylineWindow::insert`]; the window stores handles, scores and tags.
//!
//! A window may carry a signature screen (DESIGN.md §17): one quantized
//! signature per member, kept in lockstep with the members by the same
//! insert, which lets the reject and evict scans skip, eight members per
//! step, the runs of members whose signatures rule them out. Screening
//! decides *how* a verdict is reached, never what it is or what it costs:
//! every examined member is one charged comparison, skipped or not.
//!
//! [`IncrementalSkyline`] is a window together with the arena its members
//! live in, for callers that have no arena of their own.

use caqe_types::sig::{
    first_may_be_dominated, first_may_dominate, sig_strictly_below, SigQuantizer,
};
use caqe_types::{DimMask, DomKernel, DomRelation, PointId, PointStore, SimClock, Stats, Value};

/// Outcome of inserting one point into a skyline window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The point was dominated by an existing skyline member and rejected.
    /// (Points *equal* on the subspace are both kept: Definition 1 requires
    /// strict improvement somewhere for dominance.)
    Dominated {
        /// The handle of the member that dominates it: the first one in
        /// window order.
        by: PointId,
    },
    /// The point joined the skyline; `removed` lists the tags of previous
    /// members it knocked out — the non-monotonic deletions that §1.4 of the
    /// paper highlights as the key difficulty of skyline-over-join sharing.
    Added {
        /// Tags of evicted former skyline members, in window order.
        removed: Vec<u64>,
        /// Whether a member ties the point on every dimension of the
        /// subspace, or the point's score is NaN. Only an admission without
        /// a tie lets Theorem 1 vouch for the point in a parent subspace.
        tied: bool,
    },
}

/// One window member: precomputed score, opaque tag, and the caller's
/// handle to its point.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: Value,
    tag: u64,
    point: PointId,
}

/// A subspace skyline kept sorted ascending by monotone score.
#[derive(Debug, Clone)]
pub struct SkylineWindow {
    mask: DimMask,
    /// Built from the stride of the first inserted point.
    kernel: Option<DomKernel>,
    /// Ascending by score.
    entries: Vec<Entry>,
    /// The signature screen; `sigs[k]` is the signature of `entries[k]`
    /// (empty while unscreened).
    quant: Option<SigQuantizer>,
    sigs: Vec<u64>,
}

impl SkylineWindow {
    /// An empty, unscreened window over subspace `mask`.
    pub fn new(mask: DimMask) -> Self {
        SkylineWindow {
            mask,
            kernel: None,
            entries: Vec::new(),
            quant: None,
            sigs: Vec::new(),
        }
    }

    /// Current number of skyline members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(tag, point handle)` of the current members, best score first.
    pub fn members(&self) -> impl ExactSizeIterator<Item = (u64, PointId)> + '_ {
        self.entries.iter().map(|e| (e.tag, e.point))
    }

    /// Rewrites every member's point handle (a caller that inserted under
    /// provisional handles assigns the final ones).
    pub fn remap_points(&mut self, mut f: impl FnMut(PointId) -> PointId) {
        for e in &mut self.entries {
            e.point = f(e.point);
        }
    }

    /// Whether the window carries a signature screen.
    pub fn is_screened(&self) -> bool {
        self.quant.is_some()
    }

    /// Attaches a signature screen, quantizing the current members (resolved
    /// through `member`). Any monotone quantizer is sound, whatever bounds
    /// it was built from; tighter bounds only prove more verdicts.
    pub fn screen_with<'a>(
        &mut self,
        quant: SigQuantizer,
        member: impl Fn(PointId) -> &'a [Value],
    ) {
        self.sigs = self
            .entries
            .iter()
            .map(|e| quant.sig(member(e.point)))
            .collect();
        self.quant = Some(quant);
    }

    /// The front screen (DESIGN.md §15): which of the `count ≤ 64` candidate
    /// rows starting at row `first` of the flat buffer `rows` (`stride`
    /// values each) the window's front — its lowest-score member, resolved
    /// through `member` — dominates. Bit `j` set means [`Self::insert`] of
    /// row `first + j` would return `Dominated` by the front after exactly
    /// one charged comparison, as long as the front stays the front: a
    /// dominator's score is never larger than its victim's, so the front is
    /// the first member that reject scan examines. The caller owes the
    /// charge. A `known_survivor` is never among these lanes: nothing
    /// dominates it. Likewise [`Self::dominates`] of the row returns the
    /// front after one comparison if its limit is at least 1 and the row
    /// holds no NaN (the scan never calls a NaN point dominated; this pass
    /// reads NaN as a tie).
    ///
    /// Proves nothing (returns 0) on an empty window and on a front whose
    /// score is not finite: a NaN score sorts as `+inf`, out of its true
    /// place, so a finite-score candidate never meets that front.
    ///
    /// # Panics
    /// Panics in debug builds if `count > 64`.
    pub fn front_dominated<'a>(
        &self,
        rows: &[Value],
        stride: usize,
        first: usize,
        count: usize,
        member: impl Fn(PointId) -> &'a [Value],
    ) -> u64 {
        match (&self.kernel, self.entries.first()) {
            (Some(kernel), Some(front)) if front.score.is_finite() => kernel
                .relate_block_rows(rows, stride, first, count, member(front.point))
                .dominated_members(),
            _ => 0,
        }
    }

    /// Whether a member strictly dominates `point`: the reject scan of
    /// [`Self::insert`] without the insert, given up once it has examined
    /// `limit` members. `Some(Some(m))` when member `m` (the first in window
    /// order) dominates it, `Some(None)` when the `score ≤` prefix holds
    /// none, `None` when the limit came first; a point equal to a member is
    /// not dominated by it, and a point with a NaN coordinate is never
    /// called dominated.
    ///
    /// Counts one `stats.dom_comparisons` per member examined — at most
    /// `limit` — and one `stats.sig_builds` if the window is screened; the
    /// caller charges the clock.
    pub fn dominates<'a>(
        &self,
        point: &[Value],
        limit: usize,
        member: impl Fn(PointId) -> &'a [Value],
        stats: &mut Stats,
    ) -> Option<Option<PointId>> {
        let kernel = match &self.kernel {
            Some(kernel) if point.iter().all(|v| !v.is_nan()) => kernel,
            _ => return Some(None),
        };
        let screen = self.quant.as_ref().map(|q| {
            stats.sig_builds += 1;
            (&self.sigs[..], q.sig(point), q.high_mask())
        });
        let score = filed(kernel.score(point));
        let (verdict, examined) =
            match reject_scan(kernel, &self.entries, screen, point, score, limit, &member) {
                Scan::Dominated(k) => (Some(Some(self.entries[k - 1].point)), k),
                // A miss is charged its whole `score ≤` prefix, as in `insert`.
                Scan::Clear => match self.entries.partition_point(|e| e.score <= score) {
                    prefix if prefix <= limit => (Some(None), prefix),
                    _ => (None, limit),
                },
                Scan::Cut => (None, limit),
            };
        stats.dom_comparisons += examined as u64;
        verdict
    }

    /// Inserts `point` under `tag`, to be known to later probes by `handle`;
    /// `member` resolves the handles of earlier insertions. With
    /// `known_survivor` the caller vouches that nothing in the window
    /// dominates the point (Theorem 1: it was admitted to a child subspace
    /// with no tie there) and the reject scan is skipped.
    ///
    /// Counts one `stats.dom_comparisons` per member examined and one
    /// `stats.sig_builds` per signature quantized; the caller charges the
    /// clock (comparison charges are additive). The tie test of an
    /// admission is not charged: a tied member has the point's score, so it
    /// reads only the run of equal scores at the point's place.
    #[inline]
    pub fn insert<'a>(
        &mut self,
        tag: u64,
        point: &[Value],
        handle: PointId,
        known_survivor: bool,
        member: impl Fn(PointId) -> &'a [Value],
        stats: &mut Stats,
    ) -> InsertOutcome {
        let mask = self.mask;
        let kernel = &*self
            .kernel
            .get_or_insert_with(|| DomKernel::new(mask, point.len()));
        let raw = kernel.score(point);
        let score = filed(raw);
        let screened = self.quant.is_some();
        let (csig, high) = match &self.quant {
            Some(q) => {
                stats.sig_builds += 1;
                (q.sig(point), q.high_mask())
            }
            None => (0, 0), // never read: every use is behind `screened`
        };
        let len = self.entries.len();

        if !known_survivor {
            let screen = screened.then_some((&self.sigs[..], csig, high));
            if let Scan::Dominated(k) = reject_scan(
                kernel,
                &self.entries,
                screen,
                point,
                score,
                usize::MAX,
                &member,
            ) {
                stats.dom_comparisons += k as u64;
                return InsertOutcome::Dominated {
                    by: self.entries[k - 1].point,
                };
            }
        }

        // Only an admission needs its place: the first member not below
        // the candidate's score. A miss is charged the whole `score ≤`
        // prefix, which is that place plus the run of ties behind it.
        let pos = self.entries.partition_point(|e| e.score < score);
        let ties = self.entries[pos..]
            .iter()
            .take_while(|e| e.score == score)
            .count();
        let tied = raw.is_nan()
            || self.entries[pos..pos + ties]
                .iter()
                .any(|e| kernel.relate(member(e.point), point) == DomRelation::Equal);
        let comps = if known_survivor {
            0
        } else {
            (pos + ties) as u64
        };

        // Evict sweep: a victim's score is never smaller, so it sits in the
        // `score ≥` suffix, all of which is examined. Survivors are
        // compacted in place behind the write cursor `w`.
        let mut removed: Vec<u64> = Vec::new();
        let (mut w, mut r) = (pos, pos);
        while r < len {
            let skip = if screened {
                first_may_be_dominated(&self.sigs[r..len], csig, high)
            } else {
                0
            };
            if skip > 0 && w < r {
                self.entries.copy_within(r..r + skip, w);
                self.sigs.copy_within(r..r + skip, w);
            }
            (w, r) = (w + skip, r + skip);
            if r == len {
                break;
            }
            let e = self.entries[r];
            if (screened && sig_strictly_below(csig, self.sigs[r], high))
                || kernel.relate(point, member(e.point)) == DomRelation::Dominates
            {
                removed.push(e.tag);
            } else {
                self.entries[w] = e;
                if screened {
                    self.sigs[w] = self.sigs[r];
                }
                w += 1;
            }
            r += 1;
        }
        self.entries.truncate(w);
        self.entries.insert(
            pos,
            Entry {
                score,
                tag,
                point: handle,
            },
        );
        if screened {
            self.sigs.truncate(w);
            self.sigs.insert(pos, csig);
        }
        stats.dom_comparisons += comps + (len - pos) as u64;
        InsertOutcome::Added { removed, tied }
    }
}

/// A point's place in the window's score order, from its score. A NaN
/// score (a NaN coordinate, or `+inf` meeting `-inf` in the sum) has no
/// place in the order and would break `partition_point`'s precondition. It
/// sorts as `+inf`: last, tied with its like, so no member is left out of
/// its reject scan and later probes still find it in their `score ≥`
/// suffix. Exact whenever dominance is a strict partial order (a column
/// that is NaN in every row ties everywhere).
#[inline(always)]
fn filed(score: Value) -> Value {
    match score {
        s if s.is_nan() => Value::INFINITY,
        s => s,
    }
}

/// How a reject scan ended.
enum Scan {
    /// The member at this count (1-based) dominates the candidate.
    Dominated(usize),
    /// No member of the `score ≤` prefix dominates it.
    Clear,
    /// The scan reached its limit before a verdict.
    Cut,
}

/// Signatures one skip of the reject scan reads at most before it looks at
/// the score again: a miss's skip would otherwise run past the `score ≤`
/// prefix to the window's end.
const SKIP_RUN: usize = 64;

/// The reject scan: a dominator's score is never larger, so it sits in the
/// `score ≤` prefix, and the scan runs from the front with no bound computed
/// first. With a `screen` (the members' signatures, the candidate's and the
/// quantizer's high mask), each pass skips the members whose signature rules
/// them out, [`SKIP_RUN`] signatures at most; the member it stops on ends
/// the scan if its score is above the candidate's (the prefix is behind it —
/// and a NaN-scored member filed as `+inf` never meets the float kernel out
/// of its place), else is decided by proof or by the float kernel, unless
/// the skip only ran out of signatures. Every member up to the first
/// dominator counts as examined, skipped or not; the scan is [`Scan::Cut`]
/// before it examines member `limit + 1`.
#[inline(always)]
fn reject_scan<'a>(
    kernel: &DomKernel,
    entries: &[Entry],
    screen: Option<(&[u64], u64, u64)>,
    point: &[Value],
    score: Value,
    limit: usize,
    member: &impl Fn(PointId) -> &'a [Value],
) -> Scan {
    let len = entries.len();
    let mut k = 0;
    loop {
        // Whether the skip stopped on a member that may dominate.
        let mut stop = true;
        if let Some((sigs, csig, high)) = screen {
            let run = &sigs[k..len.min(k + SKIP_RUN)];
            let skip = first_may_dominate(run, csig, high);
            stop = skip < run.len();
            k += skip;
        }
        if k == len || entries[k].score > score {
            return Scan::Clear;
        }
        if k >= limit {
            return Scan::Cut;
        }
        if !stop {
            continue;
        }
        let proven =
            screen.is_some_and(|(sigs, csig, high)| sig_strictly_below(sigs[k], csig, high));
        if proven || kernel.relate(member(entries[k].point), point) == DomRelation::Dominates {
            return Scan::Dominated(k + 1);
        }
        k += 1;
    }
}

/// Streaming skyline maintenance over one subspace for callers without a
/// point arena of their own: a [`SkylineWindow`] plus the store its members
/// live in.
///
/// Each member carries an opaque `tag` so executors can correlate skyline
/// membership with their own tuple arenas.
#[derive(Debug, Clone)]
pub struct IncrementalSkyline {
    window: SkylineWindow,
    /// Every point ever admitted, in admission order (append-only: an
    /// evicted member's row simply becomes unreferenced).
    points: PointStore,
}

impl IncrementalSkyline {
    /// An empty skyline over subspace `mask`. The point stride is learned
    /// from the first insertion.
    pub fn new(mask: DimMask) -> Self {
        IncrementalSkyline {
            window: SkylineWindow::new(mask),
            points: PointStore::new(0),
        }
    }

    /// An empty skyline over `mask` whose window screens with `quant`.
    pub fn screened(mask: DimMask, quant: SigQuantizer) -> Self {
        let mut sky = IncrementalSkyline::new(mask);
        // Nothing to quantize yet: the resolver is never called.
        sky.window.screen_with(quant, |_| &[]);
        sky
    }

    /// Current number of skyline members.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Tags of the current members, best score first.
    pub fn tags(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.window.members().map(|(tag, _)| tag)
    }

    /// Current members as `(tag, point)` pairs, best score first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u64, &[Value])> + '_ {
        self.window
            .members()
            .map(|(tag, pid)| (tag, self.points.get(pid)))
    }

    /// Inserts a point, maintaining the skyline invariant. Charges one
    /// dominance comparison per member examined.
    pub fn insert(
        &mut self,
        tag: u64,
        point: &[Value],
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> InsertOutcome {
        if self.points.stride() == 0 {
            self.points = PointStore::new(point.len());
        }
        let points = &self.points;
        let before = stats.dom_comparisons;
        // The handle is the id the point receives if it is admitted.
        let handle = PointId(points.len() as u32);
        let outcome = self
            .window
            .insert(tag, point, handle, false, |pid| points.get(pid), stats);
        clock.charge_dom_cmps(stats.dom_comparisons - before);
        if matches!(outcome, InsertOutcome::Added { .. }) {
            self.points.push(point);
        }
        outcome
    }
}

/// Benchmark-pinned name (`benchmark/src/layers.rs` constructs its screened
/// window through it); the next `[benchmark]` PR drops it for
/// [`IncrementalSkyline::screened`].
pub struct SigSkyline;

impl SigSkyline {
    /// An empty [`IncrementalSkyline`] over `mask` screening with `quant`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mask: DimMask, quant: SigQuantizer) -> IncrementalSkyline {
        IncrementalSkyline::screened(mask, quant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_reference;

    fn stream(sky: &mut IncrementalSkyline, points: &[Vec<Value>]) -> Vec<InsertOutcome> {
        let (mut clock, mut stats) = (SimClock::default(), Stats::new());
        points
            .iter()
            .enumerate()
            .map(|(i, p)| sky.insert(i as u64, p, &mut clock, &mut stats))
            .collect()
    }

    #[test]
    fn streaming_matches_the_reference_and_reports_evictions() {
        let points = vec![
            vec![3.0, 3.0],
            vec![1.0, 5.0],
            vec![5.0, 1.0],
            vec![2.0, 2.0], // evicts [3,3]
            vec![9.0, 9.0], // dominated
        ];
        let mask = DimMask::full(2);
        let mut sky = IncrementalSkyline::new(mask);
        let outcomes = stream(&mut sky, &points);
        assert_eq!(
            outcomes[3],
            InsertOutcome::Added {
                removed: vec![0],
                tied: false
            }
        );
        // [2, 2], the fourth point admitted, is the first member in window order.
        assert_eq!(outcomes[4], InsertOutcome::Dominated { by: PointId(3) });
        let mut tags: Vec<u64> = sky.tags().collect();
        tags.sort_unstable();
        let want: Vec<u64> = skyline_reference(&points, mask)
            .into_iter()
            .map(|i| i as u64)
            .collect();
        assert_eq!(tags, want);
        for (tag, p) in sky.entries() {
            assert_eq!(p, points[tag as usize].as_slice());
        }
    }

    #[test]
    fn front_screen_lanes_are_the_fronts_scalar_verdicts() {
        use caqe_types::relate_in;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Stride 4: one mask per kernel shape, a coarse grid so that ties,
        // equal rows and dominated rows are all common.
        let shapes = [
            ("Single", DimMask::singleton(2)),
            ("Pair", DimMask::from_dims([1, 3])),
            ("Full", DimMask::full(4)),
            ("General", DimMask::from_dims([0, 2, 3])),
        ];
        let mut rng = StdRng::seed_from_u64(22);
        let mut row =
            |lo: u8| -> Vec<Value> { (0..4).map(|_| f64::from(rng.gen_range(lo..6u8))).collect() };
        for (shape, mask) in shapes {
            let rows: Vec<Value> = (0..64).flat_map(|_| row(0)).collect();
            let mut members = PointStore::new(4);
            let mut win = SkylineWindow::new(mask);
            assert_eq!(
                win.front_dominated(&rows, 4, 0, 64, |_| &[]),
                0,
                "{shape}: an empty window proves nothing"
            );
            for tag in 0..5 {
                let p = row(1);
                let handle = PointId(members.len() as u32);
                let out = win.insert(
                    tag,
                    &p,
                    handle,
                    false,
                    |q| members.get(q),
                    &mut Stats::new(),
                );
                if matches!(out, InsertOutcome::Added { .. }) {
                    members.push(&p);
                }
            }
            let front = members.get(win.members().next().expect("non-empty").1);
            for (first, count) in [(0, 64), (3, 1), (10, 33)] {
                let got = win.front_dominated(&rows, 4, first, count, |q| members.get(q));
                let want = (0..count).fold(0u64, |m, j| {
                    let r = &rows[(first + j) * 4..][..4];
                    m | (u64::from(relate_in(front, r, mask) == DomRelation::Dominates) << j)
                });
                assert_eq!(got, want, "{shape}: lanes {first}..{}", first + count);
            }
            assert_ne!(
                win.front_dominated(&rows, 4, 0, 64, |q| members.get(q)),
                0,
                "{shape}: the grid should let the front dominate something"
            );
        }

        // A front whose score is not finite sits out of its true place in
        // the order (NaN sorts as +inf): no verdict, although the float
        // test alone would call [NaN, 0] a dominator of [5, 5].
        for bad in [Value::NAN, Value::INFINITY, Value::NEG_INFINITY] {
            let mut win = SkylineWindow::new(DimMask::full(2));
            let front = [bad, 0.0];
            win.insert(0, &front, PointId(0), false, |_| &[], &mut Stats::new());
            assert_eq!(win.front_dominated(&[5.0, 5.0], 2, 0, 1, |_| &front), 0);
        }
    }

    /// The window over `mask` of `points`, plain and screened (bounds
    /// `[0, 12]` per dimension), each with `points` already streamed in.
    fn both_windows(mask: DimMask, points: &[Vec<Value>]) -> [IncrementalSkyline; 2] {
        let stride = points[0].len();
        let quant = SigQuantizer::from_bounds(mask, &vec![0.0; stride], &vec![12.0; stride])
            .expect("a quantizable subspace");
        let mut windows = [
            IncrementalSkyline::new(mask),
            IncrementalSkyline::screened(mask, quant),
        ];
        for sky in &mut windows {
            stream(sky, points);
        }
        windows
    }

    /// `(outcome, comparisons charged)` of inserting `point` under `tag`.
    fn charged(sky: &mut IncrementalSkyline, tag: u64, point: &[Value]) -> (InsertOutcome, u64) {
        let (mut clock, mut stats) = (SimClock::default(), Stats::new());
        let out = sky.insert(tag, point, &mut clock, &mut stats);
        assert_eq!(clock.ticks(), stats.dom_comparisons);
        (out, stats.dom_comparisons)
    }

    #[test]
    fn the_reject_scan_stops_at_a_score_above_the_candidates() {
        // [NaN, 0] scores NaN and is filed as +inf, behind every finite
        // score; the float test alone would call it a dominator of [5, 5].
        // The scan stops on it because its score is above 10, so [5, 5] is
        // admitted, charged its empty prefix plus the one-member suffix.
        for mut sky in both_windows(DimMask::full(2), &[vec![Value::NAN, 0.0]]) {
            let screened = sky.window.is_screened();
            let (out, comps) = charged(&mut sky, 1, &[5.0, 5.0]);
            assert_eq!(
                out,
                InsertOutcome::Added {
                    removed: vec![],
                    tied: false
                },
                "screened: {screened}"
            );
            assert_eq!(comps, 1, "screened: {screened}");
            assert_eq!(sky.tags().collect::<Vec<_>>(), vec![1, 0]);
        }
    }

    #[test]
    fn a_miss_is_charged_its_place_its_ties_and_the_suffix() {
        // Pairwise incomparable; scores 9, 9.5, 10, 10, 10, 11 (ties go in
        // front, so the window reads tags 0, 1, 4, 3, 2, 5).
        let members = [
            vec![0.0, 9.0],
            vec![9.0, 0.5],
            vec![2.0, 8.0],
            vec![3.0, 7.0],
            vec![8.0, 2.0],
            vec![11.0, 0.0],
        ];
        for mut sky in both_windows(DimMask::full(2), &members) {
            let screened = sky.window.is_screened();
            assert_eq!(sky.len(), 6);
            // [5, 5] scores 10: two members below it, three tied after them.
            // Prefix 2 + 3, suffix 6 - 2; it goes in front of its ties.
            let (out, comps) = charged(&mut sky, 6, &[5.0, 5.0]);
            assert_eq!(
                out,
                InsertOutcome::Added {
                    removed: vec![],
                    tied: false
                },
                "screened: {screened}"
            );
            assert_eq!(comps, 2 + 3 + 4, "screened: {screened}");
            assert_eq!(sky.tags().collect::<Vec<_>>(), vec![0, 1, 6, 4, 3, 2, 5]);
            // A hit is charged up to its dominator: [1, 9] is dominated by
            // member 0 only ([0, 9]).
            assert_eq!(
                charged(&mut sky, 7, &[1.0, 9.0]),
                (InsertOutcome::Dominated { by: PointId(0) }, 1)
            );
        }
    }

    #[test]
    fn dominates_is_the_reject_scan_without_the_insert() {
        // Pairwise incomparable, window order by score: [0, 9] (9),
        // [9, 0.5] (9.5), [3, 7] (10), [11, 0] (11).
        let members = [
            vec![0.0, 9.0],
            vec![9.0, 0.5],
            vec![3.0, 7.0],
            vec![11.0, 0.0],
        ];
        for sky in both_windows(DimMask::full(2), &members) {
            let screened = sky.window.is_screened();
            let test = |point: &[Value], limit: usize| {
                let mut stats = Stats::new();
                let member = |pid| sky.points.get(pid);
                let verdict = sky.window.dominates(point, limit, member, &mut stats);
                (verdict, stats.dom_comparisons)
            };
            // Dominated by the third member, reported by its handle and
            // charged as its reject would be.
            let third = Some(Some(PointId(2)));
            assert_eq!(test(&[4.0, 8.0], 10), (third, 3), "{screened}");
            // The limit comes first: given up, charged the limit.
            assert_eq!(test(&[4.0, 8.0], 2), (None, 2), "{screened}");
            // A member's equal is not dominated; the prefix is all examined.
            assert_eq!(test(&[3.0, 7.0], 10), (Some(None), 3), "{screened}");
            // A NaN coordinate is never called dominated, whatever it ties.
            assert_eq!(test(&[Value::NAN, 10.0], 10), (Some(None), 0), "{screened}");
            // The window is untouched.
            assert_eq!(sky.tags().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        }
        let empty = SkylineWindow::new(DimMask::full(2));
        let verdict = empty.dominates(&[9.0, 9.0], 10, |_| &[], &mut Stats::new());
        assert_eq!(verdict, Some(None));
    }

    #[test]
    fn equal_points_are_both_kept() {
        // Definition 1: dominance needs strict improvement somewhere, so
        // tied points are all part of the skyline — until a dominator evicts
        // every copy at once.
        let mut sky = IncrementalSkyline::new(DimMask::full(2));
        let outcomes = stream(&mut sky, &[vec![1.0, 1.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        let added = |removed: Vec<u64>, tied| InsertOutcome::Added { removed, tied };
        // The second copy is admitted beside its equal, and says so.
        assert_eq!(outcomes[..2], [added(vec![], false), added(vec![], true)]);
        // A tie goes in front of its equals, so window order is [1, 0].
        assert_eq!(outcomes[2], added(vec![1, 0], false));
        assert_eq!(sky.tags().collect::<Vec<_>>(), vec![2]);
        // A NaN score has no true place, so it counts as a tie.
        let nan = sky.insert(
            3,
            &[Value::NAN, 0.0],
            &mut SimClock::default(),
            &mut Stats::new(),
        );
        assert_eq!(nan, added(vec![], true));
    }
}
