//! Quantized rank signatures: per-point lattice keys for signature-level
//! dominance screening (DESIGN.md §17).
//!
//! Each point is summarized by packing one small per-dimension bucket code
//! into a `u64`. The quantizer is *monotone* (smaller value ⇒ smaller or
//! equal code), so strict code inequalities transfer to the underlying
//! values: if every field of `a`'s signature is strictly below `b`'s, then
//! `a` strictly improves on `b` in every dimension and therefore dominates
//! it (Definition 2); if strict inequalities exist in both directions the
//! pair is incomparable. Everything else — equal codes anywhere — is
//! *ambiguous* and must fall back to the exact float test. [`sig_relate`]
//! therefore returns `Option<DomRelation>`: `Some` verdicts are proven,
//! `None` means "ask [`relate_in`](crate::relate_in)".
//!
//! The comparison itself is a branch-free SWAR subtraction: the top bit of
//! every field is a spare *borrow* bit kept at zero in valid signatures, so
//! `(a | high) - b` evaluates all per-field comparisons in two integer ops
//! without cross-field borrow propagation.

use crate::dominance::DomRelation;
use crate::store::PointStore;
use crate::subspace::DimMask;
use crate::Value;

/// Signature of a point with a NaN in a signature dimension: every spare
/// bit is set, so [`sig_relate`] refuses a verdict for any pair involving
/// it and the pair falls back to the exact float path (which treats NaN as
/// unordered, exactly like [`relate_in`](crate::relate_in)).
pub const SIG_POISON: u64 = u64::MAX;

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

    /// The spare-bit mask to pass to [`sig_relate`].
    #[inline]
    pub fn high_mask(&self) -> u64 {
        self.high_mask
    }
}

/// Signature-level dominance test. `high` is the quantizer's spare-bit
/// mask. Returns a proven verdict or `None` when the signatures cannot
/// decide (equal codes somewhere, or a poisoned operand).
///
/// Soundness rests on quantizer monotonicity: a strict per-field code
/// inequality implies the same strict value inequality, so
/// `Some(Dominates)` (every field strictly smaller) and
/// `Some(Incomparable)` (strict fields both ways) agree with
/// [`relate_in`](crate::relate_in). Ties in any field make full dominance
/// unprovable — the caller falls back to the exact float test.
#[inline]
pub fn sig_relate(a: u64, b: u64, high: u64) -> Option<DomRelation> {
    if a == SIG_POISON || b == SIG_POISON {
        // Poison must refuse a verdict *unconditionally* — including the
        // poison-vs-poison pair, and regardless of the caller's `high` mask
        // (a degenerate `high == 0` would otherwise let two all-ones
        // signatures "prove" a verdict below). NaN is unordered: the only
        // sound answer is the float fallback.
        return None;
    }
    if (a | b) & high != 0 {
        return None; // malformed operand (spare bit set)
    }
    // Per-field borrow trick: the spare bit in the minuend guarantees the
    // field-local subtraction never goes negative, so no borrow crosses a
    // field boundary. The spare bit of the result is *clear* exactly when
    // the minuend's field code was strictly smaller.
    let lt = !((a | high).wrapping_sub(b)) & high;
    let gt = !((b | high).wrapping_sub(a)) & high;
    match (lt != 0, gt != 0) {
        (true, true) => Some(DomRelation::Incomparable),
        (true, false) if lt == high => Some(DomRelation::Dominates),
        (false, true) if gt == high => Some(DomRelation::DominatedBy),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relate_in;

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
        assert_eq!(q.sig(&[0.5, Value::NAN]), SIG_POISON);
        assert_eq!(
            sig_relate(SIG_POISON, q.sig(&[0.5, 0.5]), q.high_mask()),
            None
        );
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
        // Collapsed and infinite ranges: every value codes 0, no verdicts.
        let q =
            SigQuantizer::from_bounds(mask, &[2.0, Value::NEG_INFINITY], &[2.0, Value::INFINITY])
                .unwrap();
        let a = q.sig(&[1.0, 5.0]);
        let b = q.sig(&[3.0, -5.0]);
        assert_eq!(sig_relate(a, b, q.high_mask()), None);
    }

    #[test]
    fn sig_relate_verdicts_are_exact_on_the_lattice() {
        let mask = DimMask::from_dims([0, 1, 2]);
        let q = SigQuantizer::from_bounds(mask, &[0.0; 3], &[1.0; 3]).unwrap();
        let h = q.high_mask();
        let a = q.sig(&[0.1, 0.1, 0.1]);
        let b = q.sig(&[0.9, 0.9, 0.9]);
        let c = q.sig(&[0.1, 0.9, 0.1]);
        let x = q.sig(&[0.9, 0.1, 0.9]);
        assert_eq!(sig_relate(a, b, h), Some(DomRelation::Dominates));
        assert_eq!(sig_relate(b, a, h), Some(DomRelation::DominatedBy));
        assert_eq!(sig_relate(c, x, h), Some(DomRelation::Incomparable));
        // Ties anywhere are ambiguous, including full equality — here `c`
        // actually dominates `b` (equal in dim 1), but the tied field keeps
        // the signature from proving it.
        assert_eq!(sig_relate(a, a, h), None);
        assert_eq!(sig_relate(b, c, h), None);
        assert_eq!(sig_relate(a, c, h), None);
    }

    #[test]
    fn store_quantizer_verdicts_agree_with_relate_in() {
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
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                if let Some(v) = sig_relate(q.sig(&rows[i]), q.sig(&rows[j]), h) {
                    assert_eq!(v, relate_in(&rows[i], &rows[j], mask), "pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn poison_vs_poison_refuses_a_verdict() {
        let mask = DimMask::from_dims([0, 1]);
        let q = SigQuantizer::from_bounds(mask, &[0.0, 0.0], &[1.0, 1.0]).unwrap();
        // Both operands NaN-poisoned: must be ambiguous, never a verdict.
        assert_eq!(sig_relate(SIG_POISON, SIG_POISON, q.high_mask()), None);
        assert_eq!(
            sig_relate(q.sig(&[Value::NAN, 0.0]), SIG_POISON, q.high_mask()),
            None
        );
        // Even a degenerate high mask cannot turn poison into a proof.
        assert_eq!(sig_relate(SIG_POISON, SIG_POISON, 0), None);
        assert_eq!(sig_relate(SIG_POISON, 0, 0), None);
        assert_eq!(sig_relate(0, SIG_POISON, 0), None);
    }
}
