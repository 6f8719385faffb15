//! Shared skyline maintenance over the min-max cuboid (§4.1, §5.2, §6).
//!
//! [`SharedSkylinePlan`] holds one [`SkylineWindow`] per kept subspace and
//! inserts every join result bottom-up (level order). The windows bring
//! **monotone presorting** (a probe tests only the `score ≤` prefix for a
//! dominator and the `score ≥` suffix for victims) and the optional
//! signature screen; the plan adds what only the lattice knows:
//!
//! * **Theorem 1**, per candidate: a tuple admitted to a kept *child*
//!   subspace with no member tying it there is guaranteed to survive in the
//!   parent — the window is told so and skips its reject scan. A tie in the
//!   child withholds the shortcut: the paper's Distinct Value Attributes
//!   assumption is what rules ties out, and this way the plan stays exact
//!   without it;
//! * **one arena**: a tuple admitted in several subspaces is interned once
//!   and every window refers to it by [`PointId`];
//! * **the front screen**: a batch meets each window 64 candidates at a
//!   time, and those the window's lowest-score member dominates are settled
//!   in one block pass at the one comparison their insert would have cost.
//!   §6's row test ([`SharedSkylinePlan::dominated_rows`]) meets the
//!   windows with a batch's row images the same way.

use crate::minmax::MinMaxCuboid;
use caqe_operators::{InsertOutcome, SkylineWindow};
use caqe_parallel::Threads;
use caqe_types::sig::SigQuantizer;
use caqe_types::{DimMask, PointId, PointStore, QueryId, SimClock, Stats, Value};

/// High bit marking a [`PointId`] that, while one [`Batch`] is replayed,
/// refers to batch candidate `id & !BATCH_SENTINEL` instead of an interned
/// arena point. All sentinels are patched to real ids before the plan
/// method returns; none ever escapes.
const BATCH_SENTINEL: u32 = 0x8000_0000;

/// The batch candidate a sentinel handle stands for (`None` for an arena id).
#[inline]
fn batch_candidate(pid: PointId) -> Option<usize> {
    (pid.0 & BATCH_SENTINEL != 0).then_some((pid.0 & !BATCH_SENTINEL) as usize)
}

/// The bits set in `mask`, ascending: the cuboid positions of a window mask,
/// or the lanes of a block.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Bit `j` set for each of the `count ≤ 64` rows `first + j` that `pred`
/// holds for.
fn lane_mask(first: usize, count: usize, pred: impl Fn(usize) -> bool) -> u64 {
    (0..count).fold(0, |m, j| m | u64::from(pred(first + j)) << j)
}

/// A batch of row tests ([`SharedSkylinePlan::dominated_rows`]) in buffers
/// the caller keeps across batches: per row, the comparisons its test may
/// still examine and, once tested, its verdict.
#[derive(Debug, Clone, Default)]
pub struct RowTests {
    /// Per row, the comparisons its test may still examine.
    left: Vec<u64>,
    /// Bit `j % 64` of word `j / 64`: row `j` is strictly dominated in every
    /// window tested so far.
    dead: Vec<u64>,
    /// Bit `j % 64` of word `j / 64`: row `j`'s image holds no NaN.
    clean: Vec<u64>,
}

impl RowTests {
    /// Forgets every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.left.clear();
    }

    /// Adds a row whose test may examine at most `budget` members.
    pub fn push(&mut self, budget: u64) {
        self.left.push(budget);
    }

    /// Whether row `j`'s image is strictly dominated in every tested window
    /// (as of the last [`SharedSkylinePlan::dominated_rows`]).
    pub fn dominated(&self, j: usize) -> bool {
        self.dead[j / 64] >> (j % 64) & 1 != 0
    }
}

/// A run of candidate tuples: tuple `c` lives at
/// `vals[c * stride..][..stride]` and carries tag `first_tag + c`.
#[derive(Clone, Copy)]
struct Batch<'a> {
    first_tag: u64,
    vals: &'a [Value],
    stride: usize,
}

impl<'a> Batch<'a> {
    fn len(&self) -> usize {
        self.vals.len() / self.stride
    }

    #[inline]
    fn point(&self, c: usize) -> &'a [Value] {
        &self.vals[c * self.stride..(c + 1) * self.stride]
    }

    /// Resolves a possibly-sentinel member handle against the plan arena or
    /// this batch.
    #[inline]
    fn member(&self, arena: &'a PointStore, pid: PointId) -> &'a [Value] {
        match batch_candidate(pid) {
            Some(c) => self.point(c),
            None => arena.get(pid),
        }
    }
}

/// What batch candidate `candidate` pushed out of the window at cuboid
/// position `subspace` when it was admitted there.
#[derive(Debug, Clone)]
pub struct Eviction {
    /// The evicting candidate's index in its batch.
    pub candidate: usize,
    /// The cuboid position of the window it was admitted to.
    pub subspace: usize,
    /// The evicted members' tags, in the window's removal order.
    pub tags: Vec<u64>,
}

/// What one [`SharedSkylinePlan::insert_batch_into`] did, in buffers the
/// caller keeps across batches: each call overwrites them all, reusing their
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Per candidate, the bitmask of cuboid positions that admitted it:
    /// candidate `c` is now in query `q`'s skyline iff
    /// `added[c] & plan.query_bit(q) != 0`.
    pub added: Vec<u64>,
    /// Per candidate, the positions of `added` where no member tied it:
    /// those whose parents Theorem 1 lets it skip the reject scan in.
    untied: Vec<u64>,
    /// Every eviction of the batch, by candidate and, within a candidate,
    /// by ascending cuboid position — the order a one-at-a-time insert
    /// meets them. Query `q` owns an eviction iff
    /// `plan.query_bit(q) == 1 << subspace`.
    pub evictions: Vec<Eviction>,
}

/// Result of inserting one tuple into the shared plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedInsert {
    /// Bitmask over cuboid-subspace indices where the tuple was admitted.
    pub added_mask: u64,
    /// For each query (indexed by `QueryId`), whether the tuple is now in
    /// that query's skyline (`SKY_{P_i}` of the processed prefix).
    pub in_query_sky: Vec<bool>,
    /// Tags evicted from each query's full preference subspace by this
    /// insertion — previously *provisional* results invalidated by the
    /// non-monotonic nature of skyline-over-join (§1.4).
    pub query_evictions: Vec<(QueryId, Vec<u64>)>,
}

/// One incremental skyline window per min-max-cuboid subspace, with
/// Theorem 1 comparison sharing.
///
/// All member points live in one plan-level [`PointStore`] whose stride is
/// learned from the first inserted point.
#[derive(Debug, Clone)]
pub struct SharedSkylinePlan {
    cuboid: MinMaxCuboid,
    /// `windows[i]` maintains the skyline over `cuboid.subspaces()[i]`.
    windows: Vec<SkylineWindow>,
    points: PointStore,
    /// Plan-wide quantization bounds (`lo`, `hi` indexed by full-stride
    /// dimension), set by [`SharedSkylinePlan::enable_sig_cache`]. `None`
    /// disables signature screening entirely.
    sig_bounds: Option<(Vec<Value>, Vec<Value>)>,
}

impl SharedSkylinePlan {
    /// Creates a plan over a cuboid.
    ///
    /// The flag is ignored: Theorem 1 is decided per candidate. It stays
    /// because `benchmark/src` compiles against this signature.
    ///
    /// # Panics
    /// Panics if the cuboid keeps more than 64 subspaces (bitmask limit; the
    /// paper's workloads keep ≤ 31 over 5 dimensions).
    pub fn new(cuboid: MinMaxCuboid, _: bool) -> Self {
        assert!(cuboid.len() <= 64, "cuboid too large for added-mask bits");
        let windows = cuboid
            .subspaces()
            .iter()
            .map(|&m| SkylineWindow::new(m))
            .collect();
        SharedSkylinePlan {
            cuboid,
            windows,
            points: PointStore::new(0),
            sig_bounds: None,
        }
    }

    /// Enables signature-level dominance screening (DESIGN.md §17) with the
    /// given per-dimension quantization bounds (full-stride `lo`/`hi`, e.g.
    /// the output-region corners the engine already computed). Screening is
    /// purely a wall-clock optimization: every admission, eviction, tick and
    /// counter the plan produces stays byte-identical — the quantizer's
    /// clamped monotone map keeps even out-of-range values sound, so stale
    /// or estimated bounds cost precision, never correctness.
    ///
    /// Each window attaches its screen the first time a batch reaches it
    /// and owns it from then on; a window screened under earlier bounds
    /// keeps them.
    pub fn enable_sig_cache(&mut self, lo: &[Value], hi: &[Value]) {
        self.sig_bounds = Some((lo.to_vec(), hi.to_vec()));
    }

    /// The underlying cuboid.
    pub fn cuboid(&self) -> &MinMaxCuboid {
        &self.cuboid
    }

    /// Number of queries in the workload.
    pub fn num_queries(&self) -> usize {
        self.cuboid.num_queries()
    }

    /// Query `q`'s window (`None` for an inactive slot).
    fn query_window(&self, q: QueryId) -> Option<&SkylineWindow> {
        self.cuboid
            .is_active(q)
            .then(|| &self.windows[self.cuboid.query_subspace(q)])
    }

    /// Query `q`'s subspace as a bit of [`BatchOutcome::added`] (0 for an
    /// inactive slot).
    #[inline]
    pub fn query_bit(&self, q: QueryId) -> u64 {
        if self.cuboid.is_active(q) {
            1u64 << self.cuboid.query_subspace(q)
        } else {
            0
        }
    }

    /// Tags currently in query `q`'s skyline (empty for an inactive slot).
    pub fn query_skyline_tags(&self, q: QueryId) -> Vec<u64> {
        self.query_window(q)
            .map_or_else(Vec::new, |w| w.members().map(|(tag, _)| tag).collect())
    }

    /// `(tag, point)` members of query `q`'s skyline (sorted by monotone
    /// score, best first; empty for an inactive slot).
    pub fn query_skyline_entries(&self, q: QueryId) -> Vec<(u64, Vec<Value>)> {
        self.query_window(q).map_or_else(Vec::new, |w| {
            w.members()
                .map(|(tag, pid)| (tag, self.points.get(pid).to_vec()))
                .collect()
        })
    }

    /// Re-lays the windows out after the cuboid changed shape: new index
    /// `i` carries over old window `mapping[i]` untouched, or starts empty.
    /// Returns the indices that started empty, as a bitmask.
    fn splice(&mut self, mapping: &[Option<usize>]) -> u64 {
        let mut old: Vec<Option<SkylineWindow>> = std::mem::take(&mut self.windows)
            .into_iter()
            .map(Some)
            .collect();
        let mut fresh = 0;
        for (i, m) in mapping.iter().enumerate() {
            let carried = m.and_then(|o| old[o].take());
            if carried.is_none() {
                fresh |= 1u64 << i;
            }
            let sub = self.cuboid.subspaces()[i];
            self.windows
                .push(carried.unwrap_or_else(|| SkylineWindow::new(sub)));
        }
        fresh
    }

    /// Admits a new query into the plan: extends the cuboid per Definition 7
    /// ([`MinMaxCuboid::admit_query`]), carries the surviving per-subspace
    /// windows over to the new index layout without touching them, and
    /// backfills each *freshly added* subspace from `history` (row index ==
    /// tag). Returns the fresh positions as a bitmask over cuboid positions.
    ///
    /// `history` must hold every tuple the plan has been offered. A tuple it
    /// never was — one the caller left out because every kept window
    /// strictly dominated it ([`Self::dominated_rows`]) — is still strictly
    /// dominated in every carried-over window, so only the fresh windows can
    /// want it: the engine re-joins such rows afterwards and offers them to
    /// those alone ([`Self::backfill`]).
    /// Points already interned for surviving subspaces are reused as-is;
    /// only tuples admitted into a new subspace are interned afresh. The
    /// backfill's dominance tests are charged to `clock`/`stats` like any
    /// other maintenance work (Theorem 1 sharing does not apply: a new
    /// subspace's kept children may not exist yet, so every tuple gets the
    /// full window scan).
    ///
    /// # Panics
    /// Panics if the grown cuboid exceeds 64 subspaces or `pref` is empty.
    pub fn admit_query(
        &mut self,
        pref: DimMask,
        history: &PointStore,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> u64 {
        let mapping = self.cuboid.admit_query(pref);
        assert!(
            self.cuboid.len() <= 64,
            "cuboid too large for added-mask bits"
        );
        let fresh = self.splice(&mapping);
        if !history.is_empty() {
            self.backfill(fresh, 0, history.as_flat(), history.stride(), clock, stats);
        }
        fresh
    }

    /// Offers a batch of tuples (laid out as for
    /// [`Self::insert_batch_into`]) to the windows at the cuboid positions
    /// set in `windows` only, without the Theorem 1 shortcut. Nobody has read
    /// those windows yet, so what the batch evicts was never reported: the
    /// outcome is dropped.
    pub fn backfill(
        &mut self,
        windows: u64,
        first_tag: u64,
        vals: &[Value],
        stride: usize,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) {
        if windows == 0 || vals.is_empty() {
            return;
        }
        let batch = self.open_batch(first_tag, vals, stride);
        let mut dropped = BatchOutcome::default();
        self.replay(bits(windows), batch, false, clock, stats, &mut dropped);
    }

    /// Retires query `q` from the plan: prunes the cuboid per Definition 7
    /// ([`MinMaxCuboid::depart_query`]) and carries the surviving windows
    /// down to the new layout. Windows of dropped subspaces are discarded;
    /// their interned points stay in the arena (it is append-only by
    /// design) and simply become unreferenced.
    ///
    /// # Panics
    /// Panics if `q` is out of range or already departed.
    pub fn depart_query(&mut self, q: QueryId) {
        let mapping = self.cuboid.depart_query(q);
        // Depart is subtractive, so nothing starts empty.
        self.splice(&mapping);
    }

    /// Inserts one tuple bottom-up through every cuboid subspace: a
    /// [`SharedSkylinePlan::insert_batch`] of one.
    ///
    /// `tag` must be unique across all insertions into this plan.
    pub fn insert(
        &mut self,
        tag: u64,
        point: &[Value],
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> SharedInsert {
        self.insert_batch(tag, point, point.len(), Threads::default(), clock, stats)
            .swap_remove(0)
    }

    /// Number of kept subspaces, hence of windows.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Every kept window, as a bitmask over cuboid positions.
    pub fn all_windows(&self) -> u64 {
        1u64.checked_shl(self.windows.len() as u32)
            .map_or(u64::MAX, |bit| bit - 1)
    }

    /// §6's row test for a batch of row images (flat, `stride` values each,
    /// image `j` for row `j` of `tests`): whether every window at a cuboid
    /// position set in `windows` holds a member that strictly dominates
    /// image `j` — each window's reject scan ([`SkylineWindow::dominates`]),
    /// examining at most row `j`'s budget over all of them. Past its budget
    /// a row is not dominated, nor is an image equal to a member, one with a
    /// NaN coordinate, any while one of the windows is empty, or any for an
    /// empty `windows`. [`RowTests::dominated`] reads the verdicts. Charges
    /// one comparison per member examined.
    ///
    /// The windows are walked in cuboid order, and each meets the rows still
    /// undecided — dominated in every earlier window — 64 lanes at a time:
    /// one [`SkylineWindow::front_dominated`] pass settles each lane whose
    /// image the front dominates at one comparison, where the reject scan,
    /// which examines the front first, would have stopped. Only lanes with a
    /// comparison left and no NaN in the image are screened (the scan never
    /// calls a NaN image dominated; the block kernel reads NaN as a tie).
    /// The other lanes run the scan, in row order, on what their budget has
    /// left. Verdicts and charges are those of testing each row alone.
    pub fn dominated_rows(
        &self,
        windows: u64,
        images: &[Value],
        stride: usize,
        tests: &mut RowTests,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) {
        let RowTests { left, dead, clean } = tests;
        let n = left.len();
        assert_eq!(images.len(), n * stride, "one image per row");
        let image = |j: usize| &images[j * stride..][..stride];
        let lanes = |first: usize| (n - first).min(64);
        dead.clear();
        clean.clear();
        for first in (0..n).step_by(64) {
            let all = u64::MAX >> (64 - lanes(first));
            dead.push(if windows == 0 { 0 } else { all });
            clean.push(lane_mask(first, lanes(first), |j| {
                image(j).iter().all(|v| !v.is_nan())
            }));
        }
        let before = stats.dom_comparisons;
        let member = |pid| self.points.get(pid);
        for i in bits(windows) {
            let win = &self.windows[i];
            if win.is_empty() {
                // Every reject scan finds nothing, at no charge.
                dead.fill(0);
                break;
            }
            for (w, undecided) in dead.iter_mut().enumerate() {
                if *undecided == 0 {
                    continue;
                }
                let first = w * 64;
                let budgeted = lane_mask(first, lanes(first), |j| left[j] >= 1);
                let screen = *undecided & clean[w] & budgeted;
                let settled = match screen {
                    0 => 0,
                    _ => win.front_dominated(images, stride, first, lanes(first), member) & screen,
                };
                stats.dom_comparisons += u64::from(settled.count_ones());
                for j in bits(settled) {
                    left[first + j] -= 1;
                }
                for j in bits(*undecided & !settled) {
                    let row = first + j;
                    let d0 = stats.dom_comparisons;
                    if win.dominates(image(row), left[row] as usize, member, stats) != Some(true) {
                        *undecided &= !(1u64 << j);
                    }
                    left[row] -= stats.dom_comparisons - d0;
                }
            }
        }
        clock.charge_dom_cmps(stats.dom_comparisons - before);
    }

    /// Validates a candidate run and sizes the arena on first use.
    fn open_batch<'a>(&mut self, first_tag: u64, vals: &'a [Value], stride: usize) -> Batch<'a> {
        assert!(stride > 0, "a batch needs a positive stride");
        assert!(
            vals.len() % stride == 0,
            "vals length {} not a multiple of stride {stride}",
            vals.len()
        );
        assert!(
            vals.len() / stride <= BATCH_SENTINEL as usize,
            "batch too large for sentinel handles"
        );
        if self.points.stride() == 0 {
            self.points = PointStore::new(stride);
        }
        assert!(
            self.points.len() < BATCH_SENTINEL as usize,
            "arena too large for sentinel handles"
        );
        Batch {
            first_tag,
            vals,
            stride,
        }
    }

    /// Interns the candidates admitted anywhere (`added_bits[c] != 0`) in
    /// candidate order — the order one-at-a-time inserts intern in — then
    /// patches every sentinel handle.
    fn intern_admitted(&mut self, batch: Batch<'_>, added_bits: &[u64], stats: &mut Stats) {
        // A sentinel enters a window only on admission: a window whose bit
        // no candidate set holds none, and the slots of never-admitted
        // candidates are never read.
        let mut touched = added_bits.iter().fold(0u64, |acc, &bits| acc | bits);
        if touched == 0 {
            return;
        }
        let mut interned = vec![PointId(BATCH_SENTINEL); batch.len()];
        for (c, slot) in interned.iter_mut().enumerate() {
            if added_bits[c] != 0 {
                stats.plan_points_interned += 1;
                *slot = self.points.push(batch.point(c));
            }
        }
        while touched != 0 {
            let win = &mut self.windows[touched.trailing_zeros() as usize];
            win.remap_points(|pid| batch_candidate(pid).map_or(pid, |c| interned[c]));
            touched &= touched - 1;
        }
    }

    /// Inserts a batch of tuples through the cuboid and writes what happened
    /// into `out`; the outcome, ticks and observable stats depend only on
    /// the tuple sequence, not on how it is cut into batches.
    ///
    /// Tuple `c` of the batch lives at `vals[c * stride..][..stride]` and
    /// receives tag `first_tag + c`. The batch is replayed **one subspace at
    /// a time** (the whole candidate run against one window, then the next
    /// window) rather than one tuple at a time through every window — that
    /// order is cache blocking, and it is exact because:
    ///
    /// * a subspace window's evolution depends only on *earlier candidates
    ///   in that same subspace* plus, through the Theorem 1 shortcut, the
    ///   tie-free admission bits of its kept children — strict subsets,
    ///   hence lower cuboid indices, hence already final when the subspace
    ///   is reached;
    /// * comparison charges are additive and nothing reads the clock during
    ///   an insert phase, so charging the batch's comparisons in one sum
    ///   lands on the one-at-a-time tick total.
    ///
    /// New candidates are referenced via sentinel handles during the replay
    /// and interned in candidate order afterwards, so arena ids do not
    /// depend on the cut either.
    pub fn insert_batch_into(
        &mut self,
        first_tag: u64,
        vals: &[Value],
        stride: usize,
        clock: &mut SimClock,
        stats: &mut Stats,
        out: &mut BatchOutcome,
    ) {
        let batch = self.open_batch(first_tag, vals, stride);
        if batch.len() == 0 {
            out.added.clear();
            out.evictions.clear();
            return;
        }
        // A window attaches its signature screen the first time a batch
        // reaches it (a miss: its members are quantized once) and keeps it
        // in lockstep from then on (a hit).
        if let Some((lo, hi)) = &self.sig_bounds {
            for (win, &sub) in self.windows.iter_mut().zip(self.cuboid.subspaces()) {
                if win.is_screened() {
                    stats.presort_cache_hits += 1;
                    continue;
                }
                stats.presort_cache_misses += 1;
                if let Some(quant) = SigQuantizer::from_bounds(sub, lo, hi) {
                    stats.sig_builds += win.len() as u64;
                    win.screen_with(quant, |pid| self.points.get(pid));
                }
            }
        }

        debug_assert!(
            self.cuboid
                .subspaces()
                .windows(2)
                .all(|w| w[0].len() <= w[1].len()),
            "cuboid subspaces not level-sorted"
        );
        let every = 0..self.cuboid.len();
        self.replay(every, batch, true, clock, stats, out);
        // The replay met the positions in ascending order, and a candidate
        // is admitted at most once per position, so this is the stable sort
        // by candidate.
        out.evictions
            .sort_unstable_by_key(|e| (e.candidate, e.subspace));
    }

    /// [`SharedSkylinePlan::insert_batch_into`], with the outcome as one
    /// [`SharedInsert`] per candidate.
    ///
    /// `_threads` is accepted and ignored: `benchmark/src` compiles against
    /// this signature, and the engine is serial (DESIGN.md §10).
    pub fn insert_batch(
        &mut self,
        first_tag: u64,
        vals: &[Value],
        stride: usize,
        _threads: Threads,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> Vec<SharedInsert> {
        let mut out = BatchOutcome::default();
        self.insert_batch_into(first_tag, vals, stride, clock, stats, &mut out);
        let query_bits: Vec<u64> = (0..self.cuboid.num_queries())
            .map(|q| self.query_bit(QueryId(q as u16)))
            .collect();
        let mut evictions = out.evictions.into_iter().peekable();
        out.added
            .into_iter()
            .enumerate()
            .map(|(c, added_mask)| {
                let in_query_sky = query_bits.iter().map(|&b| added_mask & b != 0).collect();
                let mut query_evictions: Vec<(QueryId, Vec<u64>)> = Vec::new();
                while let Some(ev) = evictions.next_if(|e| e.candidate == c) {
                    let owners = (0u16..)
                        .zip(&query_bits)
                        .filter(|(_, &b)| b == 1u64 << ev.subspace);
                    query_evictions.extend(owners.map(|(q, _)| (QueryId(q), ev.tags.clone())));
                }
                SharedInsert {
                    added_mask,
                    in_query_sky,
                    query_evictions,
                }
            })
            .collect()
    }

    /// Replays `batch` through the windows at the cuboid positions
    /// `subspaces` (ascending), one position at a time: every candidate, in
    /// order, against one window, then the next window. Charges the
    /// comparisons to the clock, interns what was admitted and writes into
    /// `out`, per candidate, the bitmask of positions that admitted it, plus
    /// the evictions in replay order.
    /// With `theorem1`, a candidate already admitted to a kept child (a
    /// lower position, so its bit is final) with no member tying it there
    /// skips the window's reject scan. That is exact whenever dominance is
    /// a strict partial order: a member that dominates it here and is
    /// strictly better somewhere in the child would have rejected or
    /// evicted it there, so the member ties it on all of the child — and
    /// it, or an equal stand-in, is still in the child's window.
    ///
    /// Candidates meet a window up to 64 at a time: one
    /// [`SkylineWindow::front_dominated`] pass settles every lane the
    /// window's front dominates at the one comparison its insert would have
    /// cost, and only the other lanes are inserted. An admission that moves
    /// the front ends the pass; the lanes after it are screened afresh.
    fn replay(
        &mut self,
        subspaces: impl IntoIterator<Item = usize>,
        batch: Batch<'_>,
        theorem1: bool,
        clock: &mut SimClock,
        stats: &mut Stats,
        out: &mut BatchOutcome,
    ) {
        let BatchOutcome {
            added: added_bits,
            untied,
            evictions,
        } = out;
        added_bits.clear();
        added_bits.resize(batch.len(), 0);
        untied.clear();
        untied.resize(batch.len(), 0);
        evictions.clear();
        let comps_before = stats.dom_comparisons;
        for subspace in subspaces {
            let child_bits: u64 = self
                .cuboid
                .children(subspace)
                .iter()
                .fold(0u64, |acc, &c| acc | (1u64 << c));
            let (win, arena) = (&mut self.windows[subspace], &self.points);
            let member = |pid| batch.member(arena, pid);
            let front_tag = |win: &SkylineWindow| win.members().next().map(|(tag, _)| tag);
            let mut start = 0;
            while start < batch.len() {
                // One pass of the front screen over lanes `start..start + n`
                // (64 is the block kernel's lane width).
                let n = (batch.len() - start).min(64);
                let survivors = if theorem1 && child_bits != 0 {
                    lane_mask(start, n, |c| untied[c] & child_bits != 0)
                } else {
                    0
                };
                let front = front_tag(win);
                let rejects = win.front_dominated(batch.vals, batch.stride, start, n, member);
                debug_assert_eq!(
                    rejects & survivors,
                    0,
                    "Theorem 1 vouched for a dominated lane"
                );
                // Lanes this pass settles; cut short when the front moves.
                let mut settled = n;
                let mut todo = (u64::MAX >> (64 - n)) & !rejects;
                while todo != 0 {
                    let j = todo.trailing_zeros() as usize;
                    todo &= todo - 1;
                    let c = start + j;
                    let outcome = win.insert(
                        batch.first_tag + c as u64,
                        batch.point(c),
                        PointId(BATCH_SENTINEL | c as u32),
                        survivors >> j & 1 != 0,
                        member,
                        stats,
                    );
                    if let InsertOutcome::Added { removed, tied } = outcome {
                        added_bits[c] |= 1u64 << subspace;
                        untied[c] |= u64::from(!tied) << subspace;
                        if !removed.is_empty() {
                            evictions.push(Eviction {
                                candidate: c,
                                subspace,
                                tags: removed,
                            });
                        }
                        if front_tag(win) != front {
                            // A new lowest score, or the front evicted: the
                            // verdicts on the later lanes are stale.
                            settled = j + 1;
                            break;
                        }
                    }
                }
                // A rejected lane is the one comparison its reject scan
                // would have stopped on.
                let charged = rejects & (u64::MAX >> (64 - settled));
                stats.dom_comparisons += u64::from(charged.count_ones());
                start += settled;
            }
        }
        clock.charge_dom_cmps(stats.dom_comparisons - comps_before);
        self.intern_admitted(batch, added_bits, stats);
    }

    /// The subspace mask maintained at cuboid position `i` (diagnostics).
    pub fn subspace(&self, i: usize) -> DimMask {
        self.cuboid.subspaces()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_operators::skyline_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_prefs() -> Vec<DimMask> {
        vec![
            DimMask::from_dims([0, 1]),
            DimMask::from_dims([0, 1, 2]),
            DimMask::from_dims([1, 2]),
            DimMask::from_dims([1, 2, 3]),
        ]
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect()
    }

    /// The row test one row at a time — the reference
    /// [`SharedSkylinePlan::dominated_rows`] is held to: each window's reject
    /// scan in cuboid order on what the budget has left, up to the first
    /// window that does not dominate the point.
    fn row_by_row(
        plan: &SharedSkylinePlan,
        windows: u64,
        point: &[Value],
        budget: u64,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> bool {
        let before = stats.dom_comparisons;
        let member = |pid| plan.points.get(pid);
        let dead = bits(windows).all(|i| {
            let left = budget - (stats.dom_comparisons - before);
            plan.windows[i].dominates(point, left as usize, member, stats) == Some(true)
        });
        clock.charge_dom_cmps(stats.dom_comparisons - before);
        dead && windows != 0
    }

    /// A batch of one through [`SharedSkylinePlan::dominated_rows`].
    fn test_one(
        plan: &SharedSkylinePlan,
        windows: u64,
        point: &[Value],
        budget: u64,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> bool {
        let mut tests = RowTests::default();
        tests.push(budget);
        plan.dominated_rows(windows, point, point.len(), &mut tests, clock, stats);
        tests.dominated(0)
    }

    fn insert_all(plan: &mut SharedSkylinePlan, points: &[Vec<Value>]) -> (SimClock, Stats) {
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        for (i, p) in points.iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
        }
        (clock, stats)
    }

    #[test]
    fn shared_plan_matches_reference_for_every_query() {
        let prefs = figure1_prefs();
        let points = random_points(400, 4, 7);
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid, true);
        insert_all(&mut plan, &points);
        for (q, &p) in prefs.iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let mut expect: Vec<u64> = skyline_reference(&points, p)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "query Q{} skyline mismatch", q + 1);
        }
    }

    #[test]
    fn anticorrelated_heavy_load_stays_exact() {
        // The stress case: near-constant-sum points make huge skylines.
        let mut rng = StdRng::seed_from_u64(11);
        let points: Vec<Vec<Value>> = (0..600)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..100.0);
                let b: f64 = rng.gen_range(0.0..100.0);
                let jitter: f64 = rng.gen_range(0.0..0.5);
                vec![a, 100.0 - a + jitter, b, 100.0 - b]
            })
            .collect();
        let prefs = figure1_prefs();
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid, true);
        insert_all(&mut plan, &points);
        for (q, &p) in prefs.iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let mut expect: Vec<u64> = skyline_reference(&points, p)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "query Q{} mismatch", q + 1);
        }
    }

    #[test]
    fn theorem1_shortcuts_do_not_change_results() {
        let prefs = figure1_prefs();
        let points = random_points(300, 4, 13);
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut fast = SharedSkylinePlan::new(cuboid.clone(), true);
        let (_, sf) = insert_all(&mut fast, &points);
        // The same points through every window without the shortcut.
        let mut slow = SharedSkylinePlan::new(cuboid, true);
        let flat: Vec<Value> = points.iter().flatten().copied().collect();
        let mut ss = Stats::new();
        let every = slow.all_windows();
        slow.backfill(every, 0, &flat, 4, &mut SimClock::default(), &mut ss);
        for q in 0..prefs.len() {
            let mut a = fast.query_skyline_tags(QueryId(q as u16));
            let mut b = slow.query_skyline_tags(QueryId(q as u16));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Theorem 1 sharing must save comparisons.
        assert!(
            sf.dom_comparisons < ss.dom_comparisons,
            "sharing saved nothing: {} vs {}",
            sf.dom_comparisons,
            ss.dom_comparisons
        );
    }

    #[test]
    fn evictions_reported_for_owning_query() {
        let prefs = vec![DimMask::singleton(0), DimMask::singleton(1)];
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid, true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let r1 = plan.insert(0, &[5.0, 1.0], &mut clock, &mut stats);
        assert!(r1.in_query_sky.iter().all(|&b| b));
        let r2 = plan.insert(1, &[2.0, 3.0], &mut clock, &mut stats);
        assert!(r2.in_query_sky[0]);
        assert!(!r2.in_query_sky[1]);
        assert_eq!(r2.query_evictions, vec![(QueryId(0), vec![0])]);
        assert_eq!(plan.query_skyline_tags(QueryId(0)), vec![1]);
        assert_eq!(plan.query_skyline_tags(QueryId(1)), vec![0]);
    }

    #[test]
    fn added_mask_is_monotone_up_the_lattice() {
        let prefs = figure1_prefs();
        let points = random_points(200, 4, 99);
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid.clone(), true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        for (i, p) in points.iter().enumerate() {
            let r = plan.insert(i as u64, p, &mut clock, &mut stats);
            for s in 0..cuboid.len() {
                if cuboid
                    .children(s)
                    .iter()
                    .any(|&c| r.added_mask & (1 << c) != 0)
                {
                    assert!(
                        r.added_mask & (1 << s) != 0,
                        "Theorem 1 violated at subspace {}",
                        cuboid.subspaces()[s]
                    );
                }
            }
        }
    }

    #[test]
    fn skyline_entries_stay_score_sorted() {
        let prefs = vec![DimMask::from_dims([0, 1])];
        let cuboid = MinMaxCuboid::build(&prefs);
        let mut plan = SharedSkylinePlan::new(cuboid, true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        for (i, p) in random_points(200, 2, 3).iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
        }
        let entries = plan.query_skyline_entries(QueryId(0));
        let scores: Vec<f64> = entries.iter().map(|(_, p)| p[0] + p[1]).collect();
        for w in scores.windows(2) {
            assert!(w[0] <= w[1], "entries out of score order");
        }
    }

    #[test]
    fn withheld_points_need_only_the_fresh_windows() {
        // Points every kept window strictly dominates are withheld, as the
        // row test withholds rows. After an admission, offering them to the
        // fresh windows alone gives every query its reference skyline.
        let prefs = figure1_prefs();
        let points = random_points(300, 4, 23);
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..2]), false);
        let old: Vec<DimMask> = plan.cuboid().subspaces().to_vec();
        let (mut clock, mut stats) = (SimClock::default(), Stats::new());
        let (mut history, mut withheld) = (PointStore::new(4), Vec::new());
        for p in &points {
            let all = plan.all_windows();
            if test_one(&plan, all, p, u64::MAX, &mut clock, &mut stats) {
                withheld.push(p.clone());
            } else {
                plan.insert(history.len() as u64, p, &mut clock, &mut stats);
                history.push(p);
            }
        }
        assert!(!withheld.is_empty(), "nothing was withheld");
        let fresh = plan.admit_query(prefs[3], &history, &mut clock, &mut stats);
        for i in 0..plan.windows() {
            assert_eq!(fresh >> i & 1 == 1, !old.contains(&plan.subspace(i)));
            if fresh >> i & 1 == 0 {
                // Every carried-over window still dominates what it withheld.
                for p in &withheld {
                    assert!(test_one(&plan, 1 << i, p, u64::MAX, &mut clock, &mut stats));
                }
            }
        }
        let flat: Vec<Value> = withheld.iter().flatten().copied().collect();
        plan.backfill(
            fresh,
            history.len() as u64,
            &flat,
            4,
            &mut clock,
            &mut stats,
        );
        let every: Vec<Vec<Value>> = history
            .as_flat()
            .chunks(4)
            .map(<[Value]>::to_vec)
            .chain(withheld)
            .collect();
        for (q, &pref) in [prefs[0], prefs[1], prefs[3]].iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let want: Vec<u64> = skyline_reference(&every, pref)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn incremental_admit_matches_rebuild_and_replay() {
        // Insert a prefix under 3 queries, admit the 4th, then finish the
        // stream. Every query's final skyline — including the late
        // arrival's — must equal the reference skyline over ALL points, and
        // a from-scratch plan over the full query set replaying the whole
        // stream must agree.
        let prefs = figure1_prefs();
        let points = random_points(300, 4, 21);
        let split = 140;
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..3]), true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        // `history` mirrors the engine's tag-ordered complete join output.
        let mut history = PointStore::new(4);
        for (i, p) in points[..split].iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
            history.push(p);
        }
        plan.admit_query(prefs[3], &history, &mut clock, &mut stats);
        for (i, p) in points[split..].iter().enumerate() {
            plan.insert((split + i) as u64, p, &mut clock, &mut stats);
            history.push(p);
        }
        let mut rebuilt = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut c2 = SimClock::default();
        let mut s2 = Stats::new();
        for (i, p) in points.iter().enumerate() {
            rebuilt.insert(i as u64, p, &mut c2, &mut s2);
        }
        for (q, &p) in prefs.iter().enumerate() {
            let qid = QueryId(q as u16);
            let mut got = plan.query_skyline_tags(qid);
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_reference(&points, p)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query Q{} online skyline wrong", q + 1);
            let mut alt = rebuilt.query_skyline_tags(qid);
            alt.sort_unstable();
            assert_eq!(got, alt, "online vs rebuilt mismatch for Q{}", q + 1);
        }
        // The backfill paid for its comparisons.
        assert!(stats.dom_comparisons > 0);
    }

    #[test]
    fn admit_into_empty_plan_then_insert() {
        // Admission before any point has been seen: no kernels yet, nothing
        // to backfill; the lazy init on first insert must cover the grown
        // lattice.
        let prefs = figure1_prefs();
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..1]), true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        plan.admit_query(prefs[1], &PointStore::new(4), &mut clock, &mut stats);
        let points = random_points(100, 4, 5);
        for (i, p) in points.iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
        }
        for (q, &p) in prefs[..2].iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_reference(&points, p)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn depart_prunes_and_keeps_survivors_exact() {
        let prefs = figure1_prefs();
        let points = random_points(250, 4, 31);
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let split = 120;
        for (i, p) in points[..split].iter().enumerate() {
            plan.insert(i as u64, p, &mut clock, &mut stats);
        }
        plan.depart_query(QueryId(1));
        for (i, p) in points[split..].iter().enumerate() {
            plan.insert((split + i) as u64, p, &mut clock, &mut stats);
        }
        assert!(plan.query_skyline_tags(QueryId(1)).is_empty());
        for q in [0usize, 2, 3] {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_reference(&points, prefs[q])
                .into_iter()
                .map(|i| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "survivor Q{} skyline wrong after depart", q + 1);
        }
    }

    #[test]
    fn insert_reports_nothing_for_departed_query() {
        let prefs = vec![DimMask::singleton(0), DimMask::singleton(1)];
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        plan.insert(0, &[5.0, 1.0], &mut clock, &mut stats);
        plan.depart_query(QueryId(0));
        let r = plan.insert(1, &[2.0, 3.0], &mut clock, &mut stats);
        assert!(!r.in_query_sky[0], "departed query flagged in-sky");
        assert!(r.query_evictions.iter().all(|(q, _)| *q != QueryId(0)));
    }

    /// Drives `plan` through the full stream in uneven batches via
    /// `insert_batch`, returning the per-tuple results plus final clock and
    /// stats. Batch boundaries are deliberately awkward (1, 7, 64, ...) to
    /// exercise single-candidate batches and cross-batch dominance.
    fn insert_batched(
        plan: &mut SharedSkylinePlan,
        points: &[Vec<Value>],
    ) -> (Vec<SharedInsert>, SimClock, Stats) {
        let stride = points[0].len();
        let flat: Vec<Value> = points.iter().flatten().copied().collect();
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let mut results = Vec::new();
        let mut off = 0usize;
        let mut chunk = 1usize;
        while off < points.len() {
            let take = chunk.min(points.len() - off);
            let r = plan.insert_batch(
                off as u64,
                &flat[off * stride..(off + take) * stride],
                stride,
                Threads::default(),
                &mut clock,
                &mut stats,
            );
            results.extend(r);
            off += take;
            chunk = (chunk * 3 + 4).min(128);
        }
        (results, clock, stats)
    }

    #[test]
    fn insert_batch_is_bit_identical_to_one_at_a_time_inserts() {
        let prefs = figure1_prefs();
        let points = random_points(350, 4, 77);
        let mut serial = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut sc = SimClock::default();
        let mut ss = Stats::new();
        let serial_results: Vec<SharedInsert> = points
            .iter()
            .enumerate()
            .map(|(i, p)| serial.insert(i as u64, p, &mut sc, &mut ss))
            .collect();
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let (results, clock, stats) = insert_batched(&mut plan, &points);
        assert_eq!(results, serial_results);
        assert_eq!(clock.ticks(), sc.ticks());
        assert_eq!(stats.dom_comparisons, ss.dom_comparisons);
        for q in 0..prefs.len() {
            let qid = QueryId(q as u16);
            assert_eq!(
                plan.query_skyline_entries(qid),
                serial.query_skyline_entries(qid),
                "query Q{} entries diverge",
                q + 1
            );
        }
    }

    #[test]
    fn insert_batch_handles_tied_values() {
        // Integer-grid points produce heavy score and value ties: a tie in a
        // child withholds Theorem 1, so the plan stays exact, and batches
        // stay identical to serial inserts.
        let mut rng = StdRng::seed_from_u64(5150);
        let points: Vec<Vec<Value>> = (0..240)
            .map(|_| (0..4).map(|_| f64::from(rng.gen_range(0..6u8))).collect())
            .collect();
        let prefs = figure1_prefs();
        let mut serial = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut sc = SimClock::default();
        let mut ss = Stats::new();
        let serial_results: Vec<SharedInsert> = points
            .iter()
            .enumerate()
            .map(|(i, p)| serial.insert(i as u64, p, &mut sc, &mut ss))
            .collect();
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let (results, clock, stats) = insert_batched(&mut plan, &points);
        assert_eq!(results, serial_results, "tied values diverge");
        assert_eq!(clock.ticks(), sc.ticks());
        assert_eq!(stats.dom_comparisons, ss.dom_comparisons);
        for (q, &p) in prefs.iter().enumerate() {
            let mut got = plan.query_skyline_tags(QueryId(q as u16));
            got.sort_unstable();
            let want: Vec<u64> = skyline_reference(&points, p)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            assert_eq!(got, want, "query Q{} under ties", q + 1);
        }
    }

    #[test]
    fn insert_batch_composes_with_admit_and_depart() {
        // Batched inserts interleaved with admissions and departures must
        // leave the plan in the same state as the serial path — including
        // the interned-arena ids the admission backfill reuses.
        let prefs = figure1_prefs();
        let points = random_points(300, 4, 4242);
        let (a, b) = (120usize, 210usize);
        let drive = |plan: &mut SharedSkylinePlan, batched: bool| -> (SimClock, Stats) {
            let mut clock = SimClock::default();
            let mut stats = Stats::new();
            let mut history = PointStore::new(4);
            let stride = 4;
            let run = |plan: &mut SharedSkylinePlan,
                       clock: &mut SimClock,
                       stats: &mut Stats,
                       range: std::ops::Range<usize>| {
                if batched {
                    let flat: Vec<Value> =
                        points[range.clone()].iter().flatten().copied().collect();
                    let start = range.start as u64;
                    plan.insert_batch(start, &flat, stride, Threads::default(), clock, stats);
                } else {
                    for i in range {
                        plan.insert(i as u64, &points[i], clock, stats);
                    }
                }
            };
            run(plan, &mut clock, &mut stats, 0..a);
            for p in &points[..a] {
                history.push(p);
            }
            plan.admit_query(prefs[3], &history, &mut clock, &mut stats);
            run(plan, &mut clock, &mut stats, a..b);
            plan.depart_query(QueryId(1));
            run(plan, &mut clock, &mut stats, b..points.len());
            (clock, stats)
        };
        let mut serial = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..3]), true);
        let (sc, ss) = drive(&mut serial, false);
        let mut sharded = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..3]), true);
        let (c, s) = drive(&mut sharded, true);
        assert_eq!(c.ticks(), sc.ticks());
        assert_eq!(s.dom_comparisons, ss.dom_comparisons);
        for q in 0..prefs.len() {
            let qid = QueryId(q as u16);
            assert_eq!(
                sharded.query_skyline_entries(qid),
                serial.query_skyline_entries(qid),
                "query Q{} diverges after admit/depart churn",
                q + 1
            );
        }
    }

    #[test]
    fn sig_screened_batches_are_bit_identical_and_keep_their_screens() {
        // Signature screening must change nothing observable — results,
        // skyline entries, ticks, dom_comparisons — while actually being exercised (each window attaches its screen
        // on its first batch and still has it on every later one).
        let prefs = figure1_prefs();
        let points = random_points(350, 4, 77);
        let mut serial = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        let mut sc = SimClock::default();
        let mut ss = Stats::new();
        let serial_results: Vec<SharedInsert> = points
            .iter()
            .enumerate()
            .map(|(i, p)| serial.insert(i as u64, p, &mut sc, &mut ss))
            .collect();
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), true);
        plan.enable_sig_cache(&[0.0; 4], &[100.0; 4]);
        let (results, clock, stats) = insert_batched(&mut plan, &points);
        assert_eq!(results, serial_results, "sig screening changed results");
        assert_eq!(clock.ticks(), sc.ticks());
        assert_eq!(stats.dom_comparisons, ss.dom_comparisons);
        assert_eq!(stats.observable(), ss.observable());
        for q in 0..prefs.len() {
            let qid = QueryId(q as u16);
            assert_eq!(
                plan.query_skyline_entries(qid),
                serial.query_skyline_entries(qid),
                "query Q{} entries diverge",
                q + 1
            );
        }
        // One attach per window, then only reuse; candidates were
        // quantized.
        assert_eq!(stats.presort_cache_misses, plan.cuboid().len() as u64);
        assert!(stats.presort_cache_hits > 0, "no screen was reused");
        assert!(stats.sig_builds > 0, "no signatures built");
    }

    /// Per candidate `c` of a batch, `(c, query, evicted tags)` for each of
    /// its evictions, in the order [`SharedInsert::query_evictions`] lists
    /// them.
    fn owned_evictions(
        plan: &SharedSkylinePlan,
        out: &BatchOutcome,
    ) -> Vec<(usize, u16, Vec<u64>)> {
        let queries = 0..plan.num_queries() as u16;
        out.evictions
            .iter()
            .flat_map(|e| {
                let owners = queries
                    .clone()
                    .filter(|&q| plan.query_bit(QueryId(q)) == 1u64 << e.subspace);
                owners.map(|q| (e.candidate, q, e.tags.clone()))
            })
            .collect()
    }

    #[test]
    fn one_batch_outcome_serves_every_batch() {
        // One `BatchOutcome` is reused across awkward cuts, with an admission
        // and a departure in between; after every batch its bits and
        // evictions must say what `insert_batch` and one-at-a-time inserts
        // say.
        let prefs = figure1_prefs();
        let cuts = [1usize, 7, 64, 200, 3];
        let points = random_points(cuts.iter().sum(), 4, 606);
        for screened in [false, true] {
            let fresh = || {
                let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs[..3]), true);
                if screened {
                    plan.enable_sig_cache(&[0.0; 4], &[100.0; 4]);
                }
                (plan, SimClock::default(), Stats::new())
            };
            let (mut reused, mut batched, mut single) = (fresh(), fresh(), fresh());
            let mut out = BatchOutcome::default();
            let mut history = PointStore::new(4);
            let (mut off, mut evicted) = (0, 0);
            for (i, &n) in cuts.iter().enumerate() {
                for (plan, clock, stats) in [&mut reused, &mut batched, &mut single] {
                    match i {
                        2 => {
                            plan.admit_query(prefs[3], &history, clock, stats);
                        }
                        4 => plan.depart_query(QueryId(1)),
                        _ => {}
                    }
                }
                let flat: Vec<Value> = points[off..off + n].iter().flatten().copied().collect();
                let (plan, clock, stats) = &mut reused;
                plan.insert_batch_into(off as u64, &flat, 4, clock, stats, &mut out);
                let (plan, clock, stats) = &mut batched;
                let want =
                    plan.insert_batch(off as u64, &flat, 4, Threads::default(), clock, stats);
                let (plan, clock, stats) = &mut single;
                let one: Vec<SharedInsert> = (off..off + n)
                    .map(|k| plan.insert(k as u64, &points[k], clock, stats))
                    .collect();
                assert_eq!(want, one, "batch {i}, screened: {screened}");

                let plan = &reused.0;
                let added: Vec<u64> = want.iter().map(|w| w.added_mask).collect();
                assert_eq!(out.added, added, "batch {i}, screened: {screened}");
                for (c, w) in want.iter().enumerate() {
                    let in_sky: Vec<bool> = (0..plan.num_queries() as u16)
                        .map(|q| out.added[c] & plan.query_bit(QueryId(q)) != 0)
                        .collect();
                    assert_eq!(in_sky, w.in_query_sky, "batch {i}, candidate {c}");
                }
                let evictions: Vec<(usize, u16, Vec<u64>)> = want
                    .iter()
                    .enumerate()
                    .flat_map(|(c, w)| {
                        let evs = w.query_evictions.iter();
                        evs.map(move |(q, tags)| (c, q.0, tags.clone()))
                    })
                    .collect();
                assert_eq!(
                    owned_evictions(plan, &out),
                    evictions,
                    "batch {i}, screened: {screened}"
                );
                evicted += out.evictions.len();
                for p in &points[off..off + n] {
                    history.push(p);
                }
                off += n;
            }
            assert!(evicted > 0, "the stream evicted nothing");
            assert_eq!(reused.1.ticks(), single.1.ticks());
            assert_eq!(reused.2.observable(), single.2.observable());
            assert_eq!(reused.2.observable(), batched.2.observable());
        }
    }

    #[test]
    fn dominated_rows_needs_every_window_within_the_budget() {
        // Windows {0} and {1} hold [0, 3] and [3, 0]; a third query's
        // {0, 1} holds those and [1, 1].
        let prefs = vec![
            DimMask::singleton(0),
            DimMask::singleton(1),
            DimMask::full(2),
        ];
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&prefs), false);
        let mut clock = SimClock::default();
        let mut stats = Stats::new();
        let all = plan.all_windows();
        assert_eq!(all, 0b111);
        assert!(!test_one(
            &plan,
            all,
            &[5.0, 5.0],
            99,
            &mut clock,
            &mut stats
        ));
        insert_all(&mut plan, &[vec![0.0, 3.0], vec![3.0, 0.0], vec![1.0, 1.0]]);
        let windows = plan.windows() as u64;
        let test_in = |mask: u64, point: &[Value], budget: u64| {
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            let dead = test_one(&plan, mask, point, budget, &mut clock, &mut stats);
            assert_eq!(clock.ticks(), stats.dom_comparisons);
            assert!(stats.dom_comparisons <= budget);
            (dead, stats.dom_comparisons)
        };
        let test = |point: &[Value], budget: u64| test_in(all, point, budget);
        assert_eq!(windows, 3);
        assert!(test(&[2.0, 2.0], windows * 10).0);
        // Tied with the {0} member, so not strictly dominated there.
        assert!(!test(&[0.0, 9.0], windows * 10).0);
        // Equal to a member of {0, 1}.
        assert!(!test(&[1.0, 1.0], windows * 10).0);
        // Too small a budget gives up, and is charged in full.
        let (dead, charged) = test(&[2.0, 2.0], 1);
        assert_eq!((dead, charged), (false, 1));
        assert!(!test(&[Value::NAN, 2.0], windows * 10).0);
        // Only the windows asked about count: [0, 9] is dominated in {1}
        // (by [3, 0]) and tied in {0}; no window at all dominates nothing.
        let at = |sub: DimMask| (0..3).find(|&i| plan.subspace(i) == sub).expect("kept");
        let in_1 = 1u64 << at(DimMask::singleton(1));
        assert!(test_in(in_1, &[0.0, 9.0], 10).0);
        assert!(!test_in(in_1 | 1u64 << at(DimMask::singleton(0)), &[0.0, 9.0], 10).0);
        assert_eq!(test_in(0, &[9.0, 9.0], 10), (false, 0));
    }

    #[test]
    fn nan_scored_tuples_are_still_tested_against_the_window() {
        // Minimized: a NaN in a preference dimension makes the monotone
        // score NaN, which has no place in the score order — the reject
        // prefix used to come out empty and [NaN,2,2] joined the skyline
        // although [NaN,1,1] dominates it (NaN ties with NaN).
        let points = vec![
            vec![Value::NAN, 1.0, 1.0],
            vec![Value::NAN, 2.0, 2.0],
            vec![Value::NAN, 0.5, 3.0],
        ];
        let pref = DimMask(0b111);
        let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&[pref]), false);
        insert_all(&mut plan, &points);
        let mut got = plan.query_skyline_tags(QueryId(0));
        got.sort_unstable();
        assert_eq!(skyline_reference(&points, pref), vec![0, 2]);
        assert_eq!(got, vec![0, 2]);
    }

    /// A plan built from inserts and a batch of row tests against it.
    #[derive(Debug, Clone)]
    struct RowCase {
        prefs: Vec<DimMask>,
        /// A query admitted after the inserts, its fresh windows backfilled
        /// from them or (`false`) left empty.
        arrival: Option<(DimMask, bool)>,
        screened: bool,
        points: Vec<Vec<Value>>,
        /// A column NaN in every plan point: the windows reading it have a
        /// NaN front.
        nan_column: Option<usize>,
        rows: Vec<Vec<Value>>,
        budgets: Vec<u64>,
        /// 0: no window; 1: every window; 2: one fresh window; 3: `subset`.
        pick: u8,
        subset: u64,
    }

    /// An integer-grid value (ties), now and then NaN or an infinity.
    fn grid_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..33) {
            0 => Value::NAN,
            1 => Value::INFINITY,
            2 => Value::NEG_INFINITY,
            _ => Value::from(rng.gen_range(0u8..6)),
        }
    }

    fn row_case(rng: &mut StdRng) -> RowCase {
        const D: usize = 4;
        let mask = |rng: &mut StdRng| DimMask(rng.gen_range(1..16));
        let point = |rng: &mut StdRng| (0..D).map(|_| grid_value(rng)).collect::<Vec<_>>();
        let n = match rng.gen_range(0..8) {
            0 => 1,
            1 => 8,
            2 => 63,
            3 => 64,
            4 => 65,
            5 => 200,
            _ => rng.gen_range(1..130),
        };
        let budget = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(1..4),
            2 => rng.gen_range(0..48),
            _ => u64::MAX,
        };
        RowCase {
            prefs: (0..rng.gen_range(1..4)).map(|_| mask(rng)).collect(),
            arrival: rng.gen_bool(0.5).then(|| (mask(rng), rng.gen_bool(0.5))),
            screened: rng.gen_bool(0.5),
            points: (0..rng.gen_range(0..40)).map(|_| point(rng)).collect(),
            nan_column: rng.gen_bool(0.2).then(|| rng.gen_range(0..D)),
            rows: (0..n).map(|_| point(rng)).collect(),
            budgets: (0..n).map(|_| budget(rng)).collect(),
            pick: rng.gen_range(0..4),
            subset: rng.gen(),
        }
    }

    #[test]
    fn batch_row_tests_match_the_row_by_row_reference() {
        // The batch row test against the row-by-row reference: the same
        // verdict per row, the same ticks and the same observable stats.
        // Cases cover grid ties, NaN inside and outside a window's subspace,
        // an empty window, a NaN front, masks of no window and of one fresh
        // window, batch sizes around the 64-lane block, and budgets that run
        // out before a window and inside one.
        for seed in 0..192 {
            let case = row_case(&mut StdRng::seed_from_u64(seed));
            let mut plan = SharedSkylinePlan::new(MinMaxCuboid::build(&case.prefs), true);
            if case.screened {
                plan.enable_sig_cache(&[0.0; 4], &[5.0; 4]);
            }
            let mut history = PointStore::new(4);
            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            for p in &case.points {
                let mut p = p.clone();
                if let Some(c) = case.nan_column {
                    p[c] = Value::NAN;
                }
                plan.insert(history.len() as u64, &p, &mut clock, &mut stats);
                history.push(&p);
            }
            let mut fresh = 0;
            if let Some((pref, backfilled)) = case.arrival {
                let none = PointStore::new(4);
                let from = if backfilled { &history } else { &none };
                fresh = plan.admit_query(pref, from, &mut clock, &mut stats);
            }
            let windows = match case.pick {
                0 => 0,
                1 => plan.all_windows(),
                2 if fresh != 0 => fresh & fresh.wrapping_neg(),
                _ => case.subset & plan.all_windows(),
            };

            let (mut clock, mut stats) = (SimClock::default(), Stats::new());
            let expect: Vec<bool> = case
                .rows
                .iter()
                .zip(&case.budgets)
                .map(|(row, &b)| row_by_row(&plan, windows, row, b, &mut clock, &mut stats))
                .collect();

            let mut tests = RowTests::default();
            tests.push(1);
            tests.clear();
            case.budgets.iter().for_each(|&b| tests.push(b));
            let images: Vec<Value> = case.rows.iter().flatten().copied().collect();
            let (mut batch_clock, mut batch_stats) = (SimClock::default(), Stats::new());
            plan.dominated_rows(
                windows,
                &images,
                4,
                &mut tests,
                &mut batch_clock,
                &mut batch_stats,
            );
            let got: Vec<bool> = (0..case.rows.len()).map(|j| tests.dominated(j)).collect();
            assert_eq!(got, expect, "seed {seed}: {case:?}");
            assert_eq!(batch_clock.ticks(), clock.ticks(), "seed {seed}");
            assert_eq!(batch_stats.observable(), stats.observable(), "seed {seed}");
        }
    }
}
