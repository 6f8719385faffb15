//! Scalar mapping functions — the `PROJECT_[F, X]` operator of §2.2.
//!
//! Each mapping function `f_j` consumes the attribute vectors of a joined
//! pair `(r, t)` and produces one output attribute `x_j` (Example 5: *total
//! price = (price + WiFi) · 10 + air fare*). We model the mapping functions
//! the paper's workloads need — non-negative affine combinations of input
//! attributes — which are monotone, so a quad-tree cell's bounds map
//! *exactly* to output-region bounds via interval arithmetic (§5.1).

use caqe_types::{Rect, Value};

/// One scalar mapping function: an affine combination
/// `x = Σ_k wr[k]·r[k] + Σ_k wt[k]·t[k] + offset` with non-negative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingFn {
    /// Weights over the left (R) table's preference attributes.
    pub weights_r: Vec<Value>,
    /// Weights over the right (T) table's preference attributes.
    pub weights_t: Vec<Value>,
    /// Constant offset.
    pub offset: Value,
}

impl MappingFn {
    /// Creates a mapping function.
    ///
    /// # Panics
    /// Panics if any weight is negative (monotonicity requirement), or a
    /// weight or the offset is not finite: `inf * 0.0` and `NaN + x` would
    /// turn a validated, all-finite table into a NaN output column.
    pub fn new(weights_r: Vec<Value>, weights_t: Vec<Value>, offset: Value) -> Self {
        let weights = || weights_r.iter().chain(&weights_t);
        assert!(
            weights().all(|&w| w >= 0.0),
            "mapping weights must be non-negative for monotone projection"
        );
        assert!(
            weights().all(|w| w.is_finite()) && offset.is_finite(),
            "mapping weights and offset must be finite"
        );
        MappingFn {
            weights_r,
            weights_t,
            offset,
        }
    }

    /// The identity-style mapping that forwards attribute `k` of the R side.
    pub fn passthrough_r(dims_r: usize, dims_t: usize, k: usize) -> Self {
        let mut wr = vec![0.0; dims_r];
        wr[k] = 1.0;
        MappingFn::new(wr, vec![0.0; dims_t], 0.0)
    }

    /// The identity-style mapping that forwards attribute `k` of the T side.
    pub fn passthrough_t(dims_r: usize, dims_t: usize, k: usize) -> Self {
        let mut wt = vec![0.0; dims_t];
        wt[k] = 1.0;
        MappingFn::new(vec![0.0; dims_r], wt, 0.0)
    }

    /// Evaluates the mapping for one joined pair: [`Self::partial`] then
    /// [`Self::finish`], so a caller that splits the two gets the same bits.
    #[inline]
    pub fn apply(&self, r_vals: &[Value], t_vals: &[Value]) -> Value {
        self.finish(self.partial(r_vals), t_vals)
    }

    /// The R row's share of [`Self::apply`]: the offset plus the R terms,
    /// added in `apply`'s order.
    #[inline]
    pub fn partial(&self, r_vals: &[Value]) -> Value {
        debug_assert_eq!(r_vals.len(), self.weights_r.len());
        let mut acc = self.offset;
        for (w, v) in self.weights_r.iter().zip(r_vals) {
            acc += w * v;
        }
        acc
    }

    /// Completes [`Self::partial`]'s accumulator with the T terms.
    #[inline]
    pub fn finish(&self, partial: Value, t_vals: &[Value]) -> Value {
        debug_assert_eq!(t_vals.len(), self.weights_t.len());
        let mut acc = partial;
        for (w, v) in self.weights_t.iter().zip(t_vals) {
            acc += w * v;
        }
        acc
    }

    /// Evaluates the mapping over cell bounds: because weights are
    /// non-negative the image of the box `[r.lo, r.hi] × [t.lo, t.hi]` is
    /// exactly `[apply(r.lo, t.lo), apply(r.hi, t.hi)]`.
    #[inline]
    pub fn apply_bounds(&self, r_cell: &Rect, t_cell: &Rect) -> (Value, Value) {
        (
            self.apply(r_cell.lo(), t_cell.lo()),
            self.apply(r_cell.hi(), t_cell.hi()),
        )
    }
}

/// An ordered set of mapping functions `F = {f_1, …, f_k}` producing the
/// output attribute vector `X = {x_1, …, x_k}` — the multi-query output
/// space of §5.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingSet {
    fns: Vec<MappingFn>,
}

impl MappingSet {
    /// Creates a mapping set; all members must agree on input arities.
    ///
    /// # Panics
    /// Panics if the set is empty or the members disagree on arity.
    pub fn new(fns: Vec<MappingFn>) -> Self {
        assert!(!fns.is_empty(), "mapping set must produce at least one dim");
        let (ar, at) = (fns[0].weights_r.len(), fns[0].weights_t.len());
        for f in &fns {
            assert_eq!(f.weights_r.len(), ar, "inconsistent R arity");
            assert_eq!(f.weights_t.len(), at, "inconsistent T arity");
        }
        MappingSet { fns }
    }

    /// A mapping set that forwards all R attributes then all T attributes —
    /// the "skyline over the concatenated join tuple" used when queries do
    /// no arithmetic.
    pub fn concat(dims_r: usize, dims_t: usize) -> Self {
        let mut fns = Vec::with_capacity(dims_r + dims_t);
        for k in 0..dims_r {
            fns.push(MappingFn::passthrough_r(dims_r, dims_t, k));
        }
        for k in 0..dims_t {
            fns.push(MappingFn::passthrough_t(dims_r, dims_t, k));
        }
        MappingSet::new(fns)
    }

    /// A mapping set in the style of Example 5: every output dimension is a
    /// weighted sum of one R attribute and one T attribute, with pairings
    /// and weights varied so the `k` outputs are linearly independent.
    ///
    /// Because every output mixes both sides, two distinct join results
    /// almost surely differ on every output dimension — the Distinct Value
    /// Attributes (DVA) assumption the paper's Theorem 1 relies on holds for
    /// real-valued inputs.
    pub fn mixed(dims_r: usize, dims_t: usize, k: usize) -> Self {
        assert!(dims_r >= 1 && dims_t >= 1 && k >= 1);
        let fns = (0..k)
            .map(|j| {
                let mut wr = vec![0.0; dims_r];
                let mut wt = vec![0.0; dims_t];
                wr[j % dims_r] = 1.0;
                wt[(j + j / dims_r) % dims_t] = 1.0 + 0.1 * j as Value;
                MappingFn::new(wr, wt, 0.0)
            })
            .collect();
        MappingSet::new(fns)
    }

    /// Number of output dimensions `|X|`.
    #[inline]
    pub fn output_dims(&self) -> usize {
        self.fns.len()
    }

    /// The member functions.
    pub fn fns(&self) -> &[MappingFn] {
        &self.fns
    }

    /// Number of T-side preference attributes each function reads.
    #[inline]
    pub(crate) fn dims_t(&self) -> usize {
        self.fns[0].weights_t.len()
    }

    /// Maps one joined pair to its output-space point.
    pub fn apply(&self, r_vals: &[Value], t_vals: &[Value]) -> Vec<Value> {
        self.fns.iter().map(|f| f.apply(r_vals, t_vals)).collect()
    }

    /// Maps one joined pair, appending the output point to `out` — the
    /// allocation-free form used with `PointStore::push_with`.
    #[inline]
    pub fn apply_into(&self, r_vals: &[Value], t_vals: &[Value], out: &mut Vec<Value>) {
        for f in &self.fns {
            out.push(f.apply(r_vals, t_vals));
        }
    }

    /// Appends the R row's partial per output dimension
    /// ([`MappingFn::partial`]): computed once, it serves every T partner
    /// of the row through [`Self::finish_into`].
    #[inline]
    pub fn partial_into(&self, r_vals: &[Value], out: &mut Vec<Value>) {
        for f in &self.fns {
            out.push(f.partial(r_vals));
        }
    }

    /// Maps one joined pair from its R row's [`Self::partial_into`],
    /// appending to `out` exactly what [`Self::apply_into`] would.
    #[inline]
    pub fn finish_into(&self, partial: &[Value], t_vals: &[Value], out: &mut Vec<Value>) {
        debug_assert_eq!(partial.len(), self.fns.len());
        for (f, &p) in self.fns.iter().zip(partial) {
            out.push(f.finish(p, t_vals));
        }
    }

    /// Maps a pair of input cells to the exact output-space box.
    pub fn apply_bounds(&self, r_cell: &Rect, t_cell: &Rect) -> Rect {
        let mut lo = Vec::with_capacity(self.fns.len());
        let mut hi = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let (l, h) = f.apply_bounds(r_cell, t_cell);
            lo.push(l);
            hi.push(h);
        }
        Rect::new(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example5_total_price() {
        // total_price = (price + WiFi)·10 + air_fare.
        // R = hotel (price, rating, distance, WiFi); T = flight (air_fare,).
        let f = MappingFn::new(vec![10.0, 0.0, 0.0, 10.0], vec![1.0], 0.0);
        let hotel = [200.0, 5.0, 0.5, 20.0];
        let flight = [450.0];
        assert_eq!(f.apply(&hotel, &flight), (200.0 + 20.0) * 10.0 + 450.0);
    }

    #[test]
    fn bounds_are_exact_for_corners() {
        let f = MappingFn::new(vec![2.0, 1.0], vec![3.0], 5.0);
        let rc = Rect::new(vec![1.0, 2.0], vec![3.0, 4.0]);
        let tc = Rect::new(vec![0.0], vec![10.0]);
        let (lo, hi) = f.apply_bounds(&rc, &tc);
        assert_eq!(lo, f.apply(rc.lo(), tc.lo()));
        assert_eq!(hi, f.apply(rc.hi(), tc.hi()));
        assert!(lo <= hi);
    }

    #[test]
    fn bounds_contain_interior_points() {
        let f = MappingFn::new(vec![1.5, 0.5], vec![2.0, 0.0], 1.0);
        let rc = Rect::new(vec![1.0, 1.0], vec![5.0, 5.0]);
        let tc = Rect::new(vec![2.0, 2.0], vec![6.0, 6.0]);
        let (lo, hi) = f.apply_bounds(&rc, &tc);
        // Sample a few interior corners.
        for r in [[1.0, 5.0], [5.0, 1.0], [3.0, 3.0]] {
            for t in [[2.0, 6.0], [6.0, 2.0], [4.0, 4.0]] {
                let v = f.apply(&r, &t);
                assert!(lo <= v && v <= hi);
            }
        }
    }

    #[test]
    fn concat_mapping_forwards_attributes() {
        let m = MappingSet::concat(2, 2);
        assert_eq!(m.output_dims(), 4);
        let out = m.apply(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn mapping_set_bounds() {
        let m = MappingSet::concat(1, 1);
        let rc = Rect::new(vec![1.0], vec![2.0]);
        let tc = Rect::new(vec![5.0], vec![7.0]);
        let b = m.apply_bounds(&rc, &tc);
        assert_eq!(b.lo(), &[1.0, 5.0]);
        assert_eq!(b.hi(), &[2.0, 7.0]);
    }

    #[test]
    fn mixed_mapping_is_dva_safe() {
        let m = MappingSet::mixed(2, 2, 4);
        assert_eq!(m.output_dims(), 4);
        // Two join results sharing the R tuple still differ everywhere.
        let r = [3.0, 7.0];
        let a = m.apply(&r, &[1.0, 2.0]);
        let b = m.apply(&r, &[1.5, 2.5]);
        for k in 0..4 {
            assert_ne!(a[k], b[k], "tie on output dim {k}");
        }
        // Every output dimension draws from both sides.
        for f in m.fns() {
            assert!(f.weights_r.iter().any(|&w| w > 0.0));
            assert!(f.weights_t.iter().any(|&w| w > 0.0));
        }
    }

    #[test]
    fn mixed_mapping_output_dims_are_distinct() {
        // No two output dims may be identical functions.
        let m = MappingSet::mixed(2, 2, 5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(m.fns()[i], m.fns()[j], "dims {i} and {j} identical");
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_weight_rejected() {
        let _ = MappingFn::new(vec![-1.0], vec![], 0.0);
    }

    #[test]
    fn non_finite_weight_or_offset_rejected() {
        // `w >= 0.0` alone lets +inf through, and says nothing of the offset.
        for (wr, offset) in [
            (Value::INFINITY, 0.0),
            (Value::NAN, 0.0),
            (1.0, Value::NAN),
            (1.0, Value::INFINITY),
            (1.0, Value::NEG_INFINITY),
        ] {
            let built = std::panic::catch_unwind(|| MappingFn::new(vec![wr], vec![0.0], offset));
            assert!(built.is_err(), "accepted weight {wr}, offset {offset}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_mapping_set_rejected() {
        let _ = MappingSet::new(vec![]);
    }
}
