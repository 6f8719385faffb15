//! Quantized rank signatures: per-point lattice keys for signature-level
//! dominance screening (DESIGN.md §17).
//!
//! Each point is summarized by packing one small per-dimension bucket code
//! into a `u64`. The quantizer is *monotone* (smaller value ⇒ smaller or
//! equal code), so strict code inequalities transfer to the underlying
//! values. Two one-sided facts follow, and they are all a skyline window
//! asks of a signature:
//!
//! * a field of `a` coded strictly *above* `b`'s means `a` is strictly worse
//!   there, so `a` cannot dominate `b` (Definition 2) — one such field is
//!   enough, whatever the other fields say;
//! * every field of `a` coded strictly *below* `b`'s means `a` strictly
//!   improves on `b` everywhere, so `a` dominates `b`.
//!
//! [`first_may_dominate`] and [`first_may_be_dominated`] apply the first
//! fact to a run of member signatures and return how many of them a scan
//! can pass over, and [`first_may_relate`] applies it in both directions at
//! once; [`sig_strictly_below`] applies the second to the member the scan
//! stops on. Anything neither settles — equal codes, a poisoned
//! operand — is left to the exact float test
//! ([`relate_in`](crate::relate_in)).
//!
//! Each per-field comparison is a branch-free SWAR subtraction: the top bit
//! of every field is a spare *borrow* bit kept at zero in valid signatures,
//! so `(b | high) - a` compares all fields at once without cross-field
//! borrow propagation. The skips test the first signature alone, then
//! eight per step with 64-bit sub/and/or/shift only, branching once per
//! step.

use crate::store::PointStore;
use crate::subspace::DimMask;
use crate::Value;

/// Signature of a point with a NaN in a signature dimension: every spare
/// bit is set, so no skip passes over it and no proof involves it, on
/// either side; its pairs fall back to the exact float path (which treats
/// NaN as unordered, exactly like [`relate_in`](crate::relate_in)).
pub const SIG_POISON: u64 = u64::MAX;

/// Signatures a skip tests per step.
const LANES: usize = 8;

/// Maximum subspace width a signature can encode (4 bits per field: one
/// spare borrow bit plus at least 3 code bits — below that the lattice is
/// too coarse to ever prove anything).
pub const SIG_MAX_DIMS: usize = 16;

/// A monotone per-dimension quantizer producing packed `u64` signatures
/// for one subspace.
///
/// Field `j` (the `j`-th dimension of the mask in ascending order) lives at
/// bits `j*w..(j+1)*w` where `w` is the field width; its top bit is the
/// spare borrow bit, always zero in a valid signature. Codes are a clamped
/// linear quantization of `[lo, hi]`: values outside the bounds saturate,
/// which keeps the map monotone (the soundness requirement) even when the
/// bounds were estimated from a sample of the data.
#[derive(Debug, Clone, PartialEq)]
pub struct SigQuantizer {
    /// Signature dimensions, ascending (the mask's iteration order).
    dims: Vec<usize>,
    /// Per-field lower bound of the quantization range.
    lo: Vec<Value>,
    /// Per-field `levels / (hi - lo)`, or `0.0` for a degenerate range
    /// (collapsed, infinite or overflowing): such a field always codes 0
    /// and never proves a strict inequality — sound, just uninformative.
    scale: Vec<Value>,
    /// Bits per field, spare bit included.
    field_width: u32,
    /// Largest code a field can hold: `2^(field_width-1) - 1`.
    levels: u64,
    /// The spare (top) bit of every field.
    high_mask: u64,
}

impl SigQuantizer {
    /// Builds a quantizer for `mask` from per-dimension bounds indexed by
    /// full-stride dimension number. Returns `None` when the subspace is
    /// empty, wider than [`SIG_MAX_DIMS`], or any bound is NaN.
    pub fn from_bounds(mask: DimMask, lo: &[Value], hi: &[Value]) -> Option<SigQuantizer> {
        let d = mask.len();
        if d == 0 || d > SIG_MAX_DIMS {
            return None;
        }
        // Wider fields buy nothing past ~16 bits and keep shifts cheap.
        let field_width = (64 / d as u32).min(16);
        let levels = (1u64 << (field_width - 1)) - 1;
        let mut dims = Vec::with_capacity(d);
        let mut los = Vec::with_capacity(d);
        let mut scales = Vec::with_capacity(d);
        let mut high_mask = 0u64;
        for (j, k) in mask.iter().enumerate() {
            let (l, h) = (*lo.get(k)?, *hi.get(k)?);
            if l.is_nan() || h.is_nan() {
                return None;
            }
            let scale = if l.is_finite() && h.is_finite() && h > l && (h - l).is_finite() {
                levels as Value / (h - l)
            } else {
                0.0
            };
            dims.push(k);
            los.push(l);
            scales.push(scale);
            let shift = j as u32 * field_width;
            high_mask |= 1u64 << (shift + field_width - 1);
        }
        Some(SigQuantizer {
            dims,
            lo: los,
            scale: scales,
            field_width,
            levels,
            high_mask,
        })
    }

    /// Builds a quantizer whose bounds are the per-dimension min/max of the
    /// *finite* values in `points` (NaN rows poison their own signatures,
    /// not the range). Returns `None` for unsupported subspace widths or an
    /// empty store.
    pub fn from_store(points: &PointStore, mask: DimMask) -> Option<SigQuantizer> {
        if points.is_empty() {
            return None;
        }
        let stride = points.stride();
        let mut lo = vec![Value::INFINITY; stride];
        let mut hi = vec![Value::NEG_INFINITY; stride];
        for i in 0..points.len() {
            let row = points.at(i);
            for k in mask.iter() {
                let v = row[k];
                if v.is_finite() {
                    lo[k] = lo[k].min(v);
                    hi[k] = hi[k].max(v);
                }
            }
        }
        SigQuantizer::from_bounds(mask, &lo, &hi)
    }

    /// The signature of a full-stride point row. NaN in any signature
    /// dimension yields [`SIG_POISON`].
    #[inline]
    pub fn sig(&self, point: &[Value]) -> u64 {
        let mut s = 0u64;
        for (j, &k) in self.dims.iter().enumerate() {
            let v = point[k];
            if v.is_nan() {
                return SIG_POISON;
            }
            let code = if self.scale[j] > 0.0 {
                // `as u64` saturates: -inf/negative → 0, +inf/huge → MAX.
                (((v - self.lo[j]) * self.scale[j]) as u64).min(self.levels)
            } else {
                0
            };
            s |= code << (j as u32 * self.field_width);
        }
        s
    }

    /// The spare-bit mask to pass to the skips and the proof.
    #[inline]
    pub fn high_mask(&self) -> u64 {
        self.high_mask
    }
}

/// The fields in which `a`'s code is strictly above `b`'s, as set spare
/// bits. `a` must have its spare bits clear; `b` may be anything, and
/// against a poisoned `b` the result is empty.
///
/// The spare bit forced into the minuend keeps every field-local
/// difference positive, so no borrow crosses a field boundary; the spare
/// bit of the difference is *clear* exactly when `b`'s code is below `a`'s.
#[inline(always)]
fn above(a: u64, b: u64, high: u64) -> u64 {
    !((b | high).wrapping_sub(a)) & high
}

/// 1 when `x != 0`, else 0, without a comparison.
#[inline(always)]
fn nonzero(x: u64) -> u32 {
    ((x | x.wrapping_neg()) >> 63) as u32
}

/// How many leading signatures of `sigs` `passes` lets a scan skip: the
/// offset of the first one it returns 0 for, or `sigs.len()`.
#[inline(always)]
fn skip_while(sigs: &[u64], passes: impl Fn(u64) -> u64) -> usize {
    // Scans often stop on the very next member (a run of victims, a
    // dominator at the front): that lane alone is settled before a chunk
    // is paid for, so a short scan costs what one member test does.
    match sigs.first() {
        Some(&s) if passes(s) != 0 => {}
        _ => return 0,
    }
    let mut chunks = sigs[1..].chunks_exact(LANES);
    let mut base = 1;
    for chunk in chunks.by_ref() {
        let mut passed = 0u32;
        for (j, &s) in chunk.iter().enumerate() {
            passed |= nonzero(passes(s)) << j;
        }
        if passed != (1 << LANES) - 1 {
            return base + (!passed).trailing_zeros() as usize;
        }
        base += LANES;
    }
    base + chunks
        .remainder()
        .iter()
        .take_while(|&&s| passes(s) != 0)
        .count()
}

/// Offset in `sigs` of the first member signature that *may* dominate the
/// candidate signature `cand` — no field coded strictly above `cand`'s —
/// or `sigs.len()` if none may. `high` is the quantizer's spare-bit mask.
///
/// Every member passed over has a field coded above the candidate's, hence
/// (monotone quantizer) a value strictly above it, and cannot dominate the
/// candidate. A poisoned member is never passed over, and a poisoned
/// candidate passes over nothing, nor does any call with `high == 0`.
#[inline]
pub fn first_may_dominate(sigs: &[u64], cand: u64, high: u64) -> usize {
    // `& !m` clears the verdict of a poisoned member, whose spare bits are
    // set; a valid member's are clear, so it leaves every other verdict be.
    skip_while(sigs, |m| above(m, cand, high) & !m)
}

/// The mirror of [`first_may_dominate`] for eviction: offset in `sigs` of
/// the first member signature the candidate `cand` *may* dominate — no
/// field of `cand` coded strictly above the member's — or `sigs.len()`.
/// A poisoned member is never passed over, and a poisoned candidate passes
/// over nothing.
#[inline]
pub fn first_may_be_dominated(sigs: &[u64], cand: u64, high: u64) -> usize {
    if cand & high != 0 {
        return 0;
    }
    skip_while(sigs, |m| above(cand, m, high))
}

/// The two-sided skip for a walk that must decide both directions at every
/// member it stops on (BNL's window walk): offset in `sigs` of the first
/// member signature that *may* relate to `cand` — that may dominate it or
/// be dominated by it — or `sigs.len()`.
///
/// A member is passed over only when it has a field coded above the
/// candidate's *and* the candidate has one coded above the member's: each
/// is strictly worse somewhere, so the pair is `Incomparable`. The two
/// verdicts name different fields, so they are combined per member, not
/// bitwise. A poisoned member is never passed over (no candidate field is
/// above it), a poisoned candidate passes over nothing, nor does any call
/// with `high == 0`.
#[inline]
pub fn first_may_relate(sigs: &[u64], cand: u64, high: u64) -> usize {
    if cand & high != 0 {
        return 0;
    }
    skip_while(sigs, |m| {
        u64::from(nonzero(above(m, cand, high)) & nonzero(above(cand, m, high)))
    })
}

/// Proof that `a` dominates `b`: every field of `a` coded strictly below
/// `b`'s, hence every value strictly below. `false` when ties leave it
/// unproven, when either operand is poisoned, and when `high == 0`.
#[inline]
pub fn sig_strictly_below(a: u64, b: u64, high: u64) -> bool {
    high != 0 && (a | b) & high == 0 && above(b, a, high) == high
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{relate_in, DomRelation};

    fn store(rows: &[&[Value]]) -> PointStore {
        let mut s = PointStore::new(rows[0].len());
        for r in rows {
            s.push(r);
        }
        s
    }

    #[test]
    fn quantizer_is_monotone_and_clamped() {
        let mask = DimMask::from_dims([0, 1]);
        let q = SigQuantizer::from_bounds(mask, &[0.0, 0.0], &[1.0, 1.0]).unwrap();
        let lo = q.sig(&[0.0, 0.0]);
        let mid = q.sig(&[0.5, 0.5]);
        let hi = q.sig(&[1.0, 1.0]);
        assert!(lo < mid && mid < hi);
        // Saturation: out-of-range values clamp to the boundary codes.
        assert_eq!(q.sig(&[-3.0, -1e300]), lo);
        assert_eq!(q.sig(&[7.0, Value::INFINITY]), hi);
        assert_eq!(q.sig(&[Value::NEG_INFINITY, 0.0]), lo);
        // Valid signatures never set a spare bit.
        for s in [lo, mid, hi] {
            assert_eq!(s & q.high_mask(), 0);
        }
    }

    #[test]
    fn nan_points_poison_their_signature() {
        let mask = DimMask::from_dims([0, 1]);
        let q = SigQuantizer::from_bounds(mask, &[0.0, 0.0], &[1.0, 1.0]).unwrap();
        let h = q.high_mask();
        assert_eq!(q.sig(&[0.5, Value::NAN]), SIG_POISON);
        // A poisoned member is never passed over; a poisoned candidate
        // passes over nothing — even past a member that is worse everywhere.
        let worse = q.sig(&[0.9, 0.9]);
        let better = q.sig(&[0.1, 0.1]);
        assert_eq!(
            first_may_dominate(&[worse, SIG_POISON, worse], better, h),
            1
        );
        assert_eq!(first_may_be_dominated(&[better, SIG_POISON], worse, h), 1);
        assert_eq!(first_may_dominate(&[worse], SIG_POISON, h), 0);
        assert_eq!(first_may_be_dominated(&[better], SIG_POISON, h), 0);
        for (a, b) in [
            (SIG_POISON, worse),
            (better, SIG_POISON),
            (SIG_POISON, SIG_POISON),
        ] {
            assert!(!sig_strictly_below(a, b, h));
            // Nor can a degenerate mask turn poison into a skip or a proof.
            assert!(!sig_strictly_below(a, b, 0));
            assert_eq!(first_may_dominate(&[a], b, 0), 0);
            assert_eq!(first_may_be_dominated(&[a], b, 0), 0);
        }
    }

    #[test]
    fn nan_bounds_refuse_a_quantizer() {
        let mask = DimMask::from_dims([0, 1]);
        assert!(SigQuantizer::from_bounds(mask, &[0.0, Value::NAN], &[1.0, 1.0]).is_none());
        assert!(SigQuantizer::from_bounds(DimMask::from_dims([0usize; 0]), &[], &[]).is_none());
    }

    #[test]
    fn degenerate_ranges_are_sound_but_silent() {
        let mask = DimMask::from_dims([0, 1]);
        // Collapsed and infinite ranges: every value codes 0, so nothing is
        // passed over and nothing proven.
        let q =
            SigQuantizer::from_bounds(mask, &[2.0, Value::NEG_INFINITY], &[2.0, Value::INFINITY])
                .unwrap();
        let h = q.high_mask();
        let a = q.sig(&[1.0, 5.0]);
        let b = q.sig(&[3.0, -5.0]);
        assert_eq!(first_may_dominate(&[a], b, h), 0);
        assert_eq!(first_may_be_dominated(&[a], b, h), 0);
        assert!(!sig_strictly_below(a, b, h) && !sig_strictly_below(b, a, h));
    }

    #[test]
    fn one_strict_field_is_enough_to_skip() {
        let mask = DimMask::from_dims([0, 1, 2]);
        let q = SigQuantizer::from_bounds(mask, &[0.0; 3], &[1.0; 3]).unwrap();
        let h = q.high_mask();
        let cand = q.sig(&[0.5, 0.5, 0.5]);
        // Worse in dimension 0 and tied elsewhere: it cannot dominate the
        // candidate, though no two-sided verdict exists for the pair.
        let worse_once = q.sig(&[0.9, 0.5, 0.5]);
        assert_eq!(first_may_dominate(&[worse_once], cand, h), 1);
        assert_eq!(first_may_be_dominated(&[worse_once], cand, h), 0);
        // Better everywhere: proven, and never passed over.
        let better = q.sig(&[0.1, 0.1, 0.1]);
        assert!(sig_strictly_below(better, cand, h));
        assert!(!sig_strictly_below(cand, better, h));
        assert_eq!(first_may_dominate(&[better], cand, h), 0);
        // Better or tied everywhere: it does dominate, but the tied field
        // leaves that to the float test.
        let tied = q.sig(&[0.1, 0.5, 0.1]);
        assert_eq!(first_may_dominate(&[tied], cand, h), 0);
        assert!(!sig_strictly_below(tied, cand, h));
        // Equal signatures: neither skipped nor proven, either way.
        assert_eq!(first_may_dominate(&[cand], cand, h), 0);
        assert_eq!(first_may_be_dominated(&[cand], cand, h), 0);
        assert!(!sig_strictly_below(cand, cand, h));
    }

    #[test]
    fn skips_stop_on_the_first_stop_lane_across_chunks() {
        let mask = DimMask::from_dims([0, 1]);
        let q = SigQuantizer::from_bounds(mask, &[0.0; 2], &[1.0; 2]).unwrap();
        let h = q.high_mask();
        let cand = q.sig(&[0.5, 0.5]);
        // `pass` is worse than the candidate in dimension 0 and better in 1:
        // passed over by both skips. `stop` may dominate, `victim` may be
        // dominated.
        let pass = q.sig(&[0.9, 0.1]);
        let stop = q.sig(&[0.1, 0.1]);
        let victim = q.sig(&[0.9, 0.9]);
        for n in [0, 1, 7, 8, 9, 16, 20] {
            let mut sigs = vec![pass; n];
            assert_eq!(first_may_dominate(&sigs, cand, h), n);
            assert_eq!(first_may_be_dominated(&sigs, cand, h), n);
            for p in 0..n {
                sigs[p] = stop;
                assert_eq!(first_may_dominate(&sigs, cand, h), p, "n {n}, stop at {p}");
                sigs[p] = victim;
                assert_eq!(
                    first_may_be_dominated(&sigs, cand, h),
                    p,
                    "n {n}, stop at {p}"
                );
                sigs[p] = pass;
            }
        }
    }

    #[test]
    fn relate_skip_passes_only_two_sided_incomparables() {
        let mask = DimMask::from_dims([0, 1, 2]);
        let q = SigQuantizer::from_bounds(mask, &[0.0; 3], &[1.0; 3]).unwrap();
        let h = q.high_mask();
        let cand = q.sig(&[0.5, 0.5, 0.5]);
        // Worse in one field, better in another: passed over.
        let across = q.sig(&[0.9, 0.1, 0.5]);
        assert_eq!(first_may_relate(&[across], cand, h), 1);
        // Differs in one field only, either way: the one-sided skips pass
        // one of these, the two-sided skip neither.
        for lone in [q.sig(&[0.9, 0.5, 0.5]), q.sig(&[0.1, 0.5, 0.5])] {
            assert_eq!(first_may_relate(&[lone], cand, h), 0);
        }
        // Equal signatures, and members better or worse everywhere.
        for stop in [cand, q.sig(&[0.1; 3]), q.sig(&[0.9; 3])] {
            assert_eq!(first_may_relate(&[stop], cand, h), 0);
        }
        // Poison on either side or both, and a degenerate mask, skip nothing.
        for (m, c, high) in [
            (SIG_POISON, cand, h),
            (across, SIG_POISON, h),
            (SIG_POISON, SIG_POISON, h),
            (across, cand, 0),
            (SIG_POISON, cand, 0),
            (across, SIG_POISON, 0),
        ] {
            assert_eq!(first_may_relate(&[m, m], c, high), 0);
        }
        assert_eq!(first_may_relate(&[across, SIG_POISON, across], cand, h), 1);
    }

    #[test]
    fn relate_skip_stops_on_the_first_stop_lane_across_chunks() {
        let mask = DimMask::from_dims([0, 1]);
        let q = SigQuantizer::from_bounds(mask, &[0.0; 2], &[1.0; 2]).unwrap();
        let h = q.high_mask();
        let cand = q.sig(&[0.5, 0.5]);
        let pass = q.sig(&[0.9, 0.1]);
        // Every kind of stop lane: may dominate, may be dominated, equal,
        // one-field tie, poisoned.
        let stops = [
            q.sig(&[0.1, 0.1]),
            q.sig(&[0.9, 0.9]),
            cand,
            q.sig(&[0.5, 0.1]),
            SIG_POISON,
        ];
        for n in [0, 1, 7, 8, 9, 16, 20] {
            let mut sigs = vec![pass; n];
            assert_eq!(first_may_relate(&sigs, cand, h), n);
            for p in 0..n {
                for stop in stops {
                    sigs[p] = stop;
                    assert_eq!(first_may_relate(&sigs, cand, h), p, "n {n}, stop at {p}");
                    // A later stop lane never hides an earlier one.
                    if p + 1 < n {
                        sigs[n - 1] = stops[0];
                        assert_eq!(first_may_relate(&sigs, cand, h), p, "n {n}, stop at {p}");
                        sigs[n - 1] = pass;
                    }
                }
                sigs[p] = pass;
            }
        }
    }

    #[test]
    fn store_quantizer_skips_and_proofs_agree_with_relate_in() {
        let mask = DimMask::from_dims([0, 1]);
        let rows: Vec<Vec<Value>> = vec![
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.2, 0.2],
            vec![0.8, 0.8],
            vec![0.2, 0.2], // duplicate
            vec![Value::NAN, 0.5],
        ];
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        let s = store(&refs);
        let q = SigQuantizer::from_store(&s, mask).unwrap();
        let h = q.high_mask();
        for a in &rows {
            for b in &rows {
                let (sa, sb) = (q.sig(a), q.sig(b));
                let dominates = relate_in(a, b, mask) == DomRelation::Dominates;
                if first_may_dominate(&[sa], sb, h) == 1
                    || first_may_be_dominated(&[sb], sa, h) == 1
                {
                    assert!(!dominates, "{a:?} passed over, but it dominates {b:?}");
                }
                if first_may_relate(&[sa], sb, h) == 1 {
                    assert_eq!(relate_in(a, b, mask), DomRelation::Incomparable);
                }
                if sig_strictly_below(sa, sb, h) {
                    assert!(dominates, "{a:?} proven, but it does not dominate {b:?}");
                }
            }
        }
    }
}
