//! Partition-signature pruning over the skyline kernels (DESIGN.md §17).
//!
//! The scalar/block paths of `skyline.rs` resolve a candidate by *touching*
//! window members — float loads, compares, gathers. This layer resolves
//! most of that work on packed integer signatures instead:
//!
//! * [`SigSkyline`] — a streaming skyline (the pruned twin of
//!   [`IncrementalSkyline`](crate::IncrementalSkyline)) whose members are
//!   grouped into BSkyTree-style partition buckets keyed by the coarse
//!   lattice key of their signature. A candidate is first screened against
//!   the pivot (member 0 — the member the scalar loop examines first),
//!   then against whole buckets: a key-incomparable bucket is skipped in
//!   O(1), a key-dominating bucket rejects the candidate without touching
//!   any member point, and only ambiguous buckets fall through to
//!   per-member signature and (last) exact float tests.
//!
//! **Charge parity.** Every path charges the virtual clock and
//! `stats.dom_comparisons` exactly what [`IncrementalSkyline::insert_scalar`]
//! (equivalently the scalar BNL/SFS loops) would: a rejected candidate
//! charges `first-dominator-position + 1`, an admitted candidate charges
//! the pre-insert window size — both derivable from positions alone, since
//! a valid skyline never presents a dominator *and* an eviction for the
//! same candidate (transitivity; the scalar loop debug-asserts this).
//! Evictions replay the scalar `swap_remove` walk on integer indices so
//! the member (and removed-tag) order stays bit-identical. The bucket
//! directory, signatures and screening are uncharged physical work, like
//! the SFS presort and the PR 6 bulk screens.

use crate::skyline::InsertOutcome;
use caqe_types::sig::{sig_relate, SigQuantizer, SIG_POISON};
use caqe_types::{DimMask, DomKernel, DomRelation, SimClock, Stats, Value};

/// Streaming skyline maintenance with partition-signature pruning: the
/// observationally-identical pruned twin of
/// [`IncrementalSkyline`](crate::IncrementalSkyline).
#[derive(Debug, Clone)]
pub struct SigSkyline {
    mask: DimMask,
    quant: SigQuantizer,
    kernel: Option<DomKernel>,
    stride: usize,
    tags: Vec<u64>,
    /// Flat member points; member `i` is `data[i*stride..(i+1)*stride]`.
    data: Vec<Value>,
    /// Full signature per member, in window order (poisoned members carry
    /// [`SIG_POISON`] and always resolve through the float path).
    sigs: Vec<u64>,
    /// Partition directory in flat pivot order: bucket `b` has coarse key
    /// `keys[b]`, earliest window position `minpos[b]`, and members
    /// `mpos[starts[b]..starts[b+1]]`. Buckets ascend by `minpos` — the
    /// order the scalar loop would first touch them — which is what makes
    /// the probe's early exit exact (see [`SigSkyline::insert_sig`]).
    /// Poisoned members pool under [`SIG_POISON`], whose set spare bits
    /// make every key test ambiguous. Rebuilt wholesale on admission;
    /// admissions are rare next to probes, so probe layout wins.
    keys: Vec<u64>,
    minpos: Vec<u32>,
    starts: Vec<u32>,
    mpos: Vec<u32>,
}

impl SigSkyline {
    /// An empty pruned skyline over `mask`, quantizing with `quant`. The
    /// point stride is learned from the first insertion.
    pub fn new(mask: DimMask, quant: SigQuantizer) -> Self {
        SigSkyline {
            mask,
            quant,
            kernel: None,
            stride: 0,
            tags: Vec::new(),
            data: Vec::new(),
            sigs: Vec::new(),
            keys: Vec::new(),
            minpos: Vec::new(),
            starts: Vec::new(),
            mpos: Vec::new(),
        }
    }

    /// Current number of skyline members.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Tags of the current members, in insertion order (bit-identical to
    /// the scalar twin's order).
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().copied()
    }

    #[inline]
    fn ensure_kernel(&mut self, stride: usize) {
        if self.kernel.is_none() {
            self.stride = stride;
            self.kernel = Some(DomKernel::new(self.mask, stride));
        }
    }

    /// The bucket key of a member signature (poison stays poison so the
    /// member lands in the always-ambiguous pool).
    #[inline]
    fn key_of(&self, sig: u64) -> u64 {
        if sig & self.quant.high_mask() != 0 {
            SIG_POISON
        } else {
            self.quant.bucket_key(sig)
        }
    }

    /// Rebuilds the flat partition directory from scratch: group window
    /// positions by coarse key, then lay the buckets out ascending by their
    /// earliest position (pivot order). Only needed after evictions shift
    /// positions; plain admissions use [`SigSkyline::admit_to_bucket`].
    fn rebuild_buckets(&mut self) {
        let mut pairs: Vec<(u64, u32)> = (0..self.sigs.len() as u32)
            .map(|i| (self.key_of(self.sigs[i as usize]), i))
            .collect();
        pairs.sort_unstable();
        // (minpos, key, range into `pairs`) per bucket; `pairs` is sorted
        // by (key, pos), so the first position of each run is its minimum.
        let mut groups: Vec<(u32, u64, usize, usize)> = Vec::new();
        for (i, &(k, p)) in pairs.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.1 == k => g.3 = i + 1,
                _ => groups.push((p, k, i, i + 1)),
            }
        }
        groups.sort_unstable_by_key(|g| g.0);
        self.keys.clear();
        self.minpos.clear();
        self.starts.clear();
        self.mpos.clear();
        self.starts.push(0);
        for (mp, k, lo, hi) in groups {
            self.keys.push(k);
            self.minpos.push(mp);
            self.mpos.extend(pairs[lo..hi].iter().map(|&(_, p)| p));
            self.starts.push(self.mpos.len() as u32);
        }
    }

    /// Files freshly-admitted position `pos` (the current window maximum)
    /// under `key` without disturbing pivot order: joining an existing
    /// bucket leaves its minimum unchanged, and a brand-new bucket's
    /// minimum *is* `pos`, the largest so far — it belongs at the end.
    /// Allocation-free on the hot path (amortized `Vec` growth only).
    fn admit_to_bucket(&mut self, key: u64, pos: u32) {
        if let Some(b) = self.keys.iter().position(|&k| k == key) {
            self.mpos.insert(self.starts[b + 1] as usize, pos);
            for s in &mut self.starts[b + 1..] {
                *s += 1;
            }
        } else {
            if self.starts.is_empty() {
                self.starts.push(0);
            }
            self.keys.push(key);
            self.minpos.push(pos);
            self.mpos.push(pos);
            self.starts.push(self.mpos.len() as u32);
        }
    }

    /// Inserts a point, maintaining the skyline invariant; its signature is
    /// quantized here (counted in `stats.sig_builds`). Charges one dominance
    /// comparison per member the scalar loop would examine.
    pub fn insert(
        &mut self,
        tag: u64,
        point: &[Value],
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> InsertOutcome {
        stats.sig_builds += 1;
        let sig = self.quant.sig(point);
        self.insert_sig(tag, point, sig, clock, stats)
    }

    /// [`SigSkyline::insert`] with the signature already quantized.
    #[inline]
    fn insert_sig(
        &mut self,
        tag: u64,
        point: &[Value],
        sig: u64,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> InsertOutcome {
        // Pivot screen: the scalar loop examines member 0 first, and on
        // skyline-sized windows that is where the overwhelming majority of
        // rejects happen — one SWAR test, charge exactly 1. Kept in an
        // inlinable wrapper so streaming callers resolve the common case
        // without a call into the full probe below.
        if let Some(&p0) = self.sigs.first() {
            if sig_relate(p0, sig, self.quant.high_mask()) == Some(DomRelation::Dominates) {
                clock.charge_dom_cmps(1);
                stats.dom_comparisons += 1;
                return InsertOutcome::Dominated;
            }
        }
        self.insert_sig_probe(tag, point, sig, clock, stats)
    }

    /// The full partition probe behind [`SigSkyline::insert_sig`], for
    /// candidates the pivot screen could not reject.
    fn insert_sig_probe(
        &mut self,
        tag: u64,
        point: &[Value],
        sig: u64,
        clock: &mut SimClock,
        stats: &mut Stats,
    ) -> InsertOutcome {
        self.ensure_kernel(point.len());
        debug_assert_eq!(point.len(), self.stride, "stride mismatch");
        let h = self.quant.high_mask();
        let w = self.tags.len();

        // Partition pass: classify whole buckets by coarse key, resolving
        // members only inside ambiguous buckets. Buckets are walked in
        // pivot order (ascending earliest position), so once a dominator at
        // position `f` is known, every remaining bucket's members sit at
        // positions >= `minpos[b]` >= `f` — no later dominator can lower
        // the scalar loop's stop position, and the walk exits early.
        // (Transitivity also rules out evictions once a dominator exists,
        // so nothing the skipped tail could contribute is observable.)
        let ck = self.key_of(sig);
        let mut first_dom: Option<u32> = None;
        let mut bucket_rejected = false;
        let mut evict: Vec<u32> = Vec::new();
        // Allowed survivor: `ensure_kernel` above guarantees the kernel is
        // populated — this cannot fire.
        #[allow(clippy::expect_used)]
        let kernel = self.kernel.as_ref().expect("just initialized");
        for b in 0..self.keys.len() {
            if let Some(f) = first_dom {
                if self.minpos[b] >= f {
                    break;
                }
            }
            match sig_relate(self.keys[b], ck, h) {
                Some(DomRelation::Incomparable) => {
                    // Key-exact: every member of the bucket is incomparable
                    // to the candidate. O(1) skip, no member touched.
                    stats.sig_partitions_skipped += 1;
                }
                Some(DomRelation::Dominates) => {
                    // Key-exact: every member strictly improves on the
                    // candidate in every dimension. Reject without touching
                    // member points — the charge needs only the earliest
                    // (scalar-first) position in the bucket.
                    bucket_rejected = true;
                    let mp = self.minpos[b];
                    first_dom = Some(first_dom.map_or(mp, |f| f.min(mp)));
                }
                Some(DomRelation::DominatedBy) => {
                    // Key-exact: the candidate strictly improves on every
                    // member — whole-bucket eviction.
                    evict.extend_from_slice(
                        &self.mpos[self.starts[b] as usize..self.starts[b + 1] as usize],
                    );
                }
                // Ambiguous bucket (ties or a poisoned key): resolve each
                // member, full signature first, exact float test last.
                _ => {
                    for &m in &self.mpos[self.starts[b] as usize..self.starts[b + 1] as usize] {
                        let mi = m as usize;
                        let verdict = match sig_relate(self.sigs[mi], sig, h) {
                            Some(v) => v,
                            None => kernel.relate(
                                &self.data[mi * self.stride..(mi + 1) * self.stride],
                                point,
                            ),
                        };
                        match verdict {
                            DomRelation::Dominates => {
                                first_dom = Some(first_dom.map_or(m, |f| f.min(m)));
                            }
                            DomRelation::DominatedBy => evict.push(m),
                            DomRelation::Equal | DomRelation::Incomparable => {}
                        }
                    }
                }
            }
        }
        if bucket_rejected {
            stats.sig_partitions_rejected += 1;
        }

        match first_dom {
            Some(p) => {
                // The scalar loop walks positions in order and stops at the
                // first dominator; no eviction can precede it (transitivity
                // — a candidate dominating member X while member Y
                // dominates the candidate would mean Y dominates X).
                debug_assert!(evict.is_empty(), "partial order violated");
                clock.charge_dom_cmps(u64::from(p) + 1);
                stats.dom_comparisons += u64::from(p) + 1;
                InsertOutcome::Dominated
            }
            None => {
                // The scalar loop examines every member exactly once
                // (evicted slots are backfilled by `swap_remove` with
                // not-yet-examined members), then appends.
                clock.charge_dom_cmps(w as u64);
                stats.dom_comparisons += w as u64;
                let removed = if evict.is_empty() {
                    Vec::new()
                } else {
                    self.apply_evictions(&mut evict)
                };
                let pos = self.tags.len() as u32;
                self.tags.push(tag);
                self.data.extend_from_slice(point);
                self.sigs.push(sig);
                if removed.is_empty() {
                    self.admit_to_bucket(self.key_of(sig), pos);
                } else {
                    // Eviction shifted positions under the directory; a
                    // wholesale rebuild restores pivot order. Evictions are
                    // orders of magnitude rarer than probes.
                    self.rebuild_buckets();
                }
                InsertOutcome::Added { removed }
            }
        }
    }

    /// Replays the scalar eviction walk on integer indices: `evict` holds
    /// the *pre-insert* positions the candidate dominates; the walk
    /// `swap_remove`s them in the exact order `insert_scalar` would,
    /// keeping member order — and the removed-tag order — bit-identical.
    fn apply_evictions(&mut self, evict: &mut [u32]) -> Vec<u64> {
        evict.sort_unstable();
        let stride = self.stride;
        // orig[j] = pre-insert position of the member currently at slot j.
        let mut orig: Vec<u32> = (0..self.tags.len() as u32).collect();
        let mut removed = Vec::with_capacity(evict.len());
        let mut k = 0;
        while k < orig.len() {
            if evict.binary_search(&orig[k]).is_ok() {
                orig.swap_remove(k);
                removed.push(self.tags.swap_remove(k));
                self.sigs.swap_remove(k);
                let last = self.tags.len();
                if k != last {
                    let (head, tail) = self.data.split_at_mut(last * stride);
                    head[k * stride..(k + 1) * stride].copy_from_slice(&tail[..stride]);
                }
                self.data.truncate(last * stride);
            } else {
                k += 1;
            }
        }
        // Positions shifted under the walk; the caller (always the admit
        // branch) rebuilds the directory right after appending.
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::IncrementalSkyline;
    use caqe_types::PointStore;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Coarse-grid random rows (forcing duplicates and ties). `with_nan`
    /// poisons dimension 0 of *every* row: dominance degenerates to the
    /// remaining dimensions (still a strict partial order, so the scalar
    /// reference stays sound) while every signature poisons, driving the
    /// pruned path through its float-fallback lane end to end. NaN in only
    /// *some* rows would let a NaN candidate break dominance transitivity —
    /// the invariant the scalar loop debug-asserts and ingestion validation
    /// upholds — so the reference itself would panic.
    fn random_store(n: usize, d: usize, seed: u64, with_nan: bool) -> PointStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = PointStore::new(d);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = (rng.gen_range(0..12) as Value) / 4.0;
            }
            if with_nan {
                row[0] = Value::NAN;
            }
            s.push(&row);
        }
        s
    }

    #[test]
    fn sig_skyline_streams_identically_to_incremental() {
        for seed in 0..10u64 {
            let d = 2 + (seed as usize % 3);
            let store = random_store(180, d, 0xFACE + seed, seed % 3 == 1);
            let mask = DimMask::from_dims(0..d.min(2));
            let quant = SigQuantizer::from_store(&store, mask).unwrap();
            let mut inc = IncrementalSkyline::new(mask);
            let mut c1 = SimClock::default();
            let mut s1 = Stats::new();
            let mut sig = SigSkyline::new(mask, quant);
            let mut c2 = SimClock::default();
            let mut s2 = Stats::new();
            for i in 0..store.len() {
                let a = inc.insert_scalar(i as u64, store.at(i), &mut c1, &mut s1);
                let b = sig.insert(i as u64, store.at(i), &mut c2, &mut s2);
                assert_eq!(a, b, "outcome diverged at point {i} (seed {seed})");
            }
            assert_eq!(
                inc.tags().collect::<Vec<_>>(),
                sig.tags().collect::<Vec<_>>(),
                "member order diverged"
            );
            assert_eq!(c1.ticks(), c2.ticks());
            assert_eq!(s1.observable(), s2.observable());
        }
    }
}
