//! Flat structure-of-arrays point storage.
//!
//! Every hot path of the reproduction — skyline maintenance, join output,
//! region processing, engine emission — manipulates output-space points.
//! Storing each point as its own `Vec<f64>` costs a heap allocation and a
//! pointer chase per tuple per access; [`PointStore`] instead packs all
//! points of one collection into a single contiguous `Vec<Value>` with a
//! fixed stride and hands out copy-cheap [`PointId`] handles.
//!
//! Contract (see DESIGN.md §12):
//!
//! * **stride** is fixed at construction; every point has exactly `stride`
//!   values;
//! * **id stability**: [`PointStore::push`] returns ids `0, 1, 2, …` in
//!   insertion order and an id stays valid for the life of the store
//!   (arena semantics — there is no per-point removal);
//! * **count invariance**: the store only changes *where* point values
//!   live, never which comparisons run on them — callers keep charging the
//!   virtual clock per pairwise test exactly as before, so `Stats`, ticks
//!   and traces are byte-identical to the `Vec<Vec<f64>>` layout.

use crate::Value;

/// Copy-cheap handle to a point inside a [`PointStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(pub u32);

impl PointId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena of equal-length points stored contiguously (structure of
/// arrays: point `i` occupies `data[i*stride .. (i+1)*stride]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointStore {
    stride: usize,
    data: Vec<Value>,
}

impl PointStore {
    /// An empty store for points of `stride` dimensions.
    pub fn new(stride: usize) -> Self {
        PointStore {
            stride,
            data: Vec::new(),
        }
    }

    /// An empty store pre-sized for `points` entries.
    pub fn with_capacity(stride: usize, points: usize) -> Self {
        PointStore {
            stride,
            data: Vec::with_capacity(stride * points),
        }
    }

    /// The fixed number of dimensions per point.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Whether the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Interns one point, returning its stable id.
    ///
    /// # Panics
    /// Panics in debug builds if `point.len() != stride`.
    #[inline]
    pub fn push(&mut self, point: &[Value]) -> PointId {
        debug_assert_eq!(point.len(), self.stride, "point/stride mismatch");
        let id = PointId(self.len() as u32);
        self.data.extend_from_slice(point);
        id
    }

    /// Interns a point produced by `fill` writing directly into the store's
    /// tail — no intermediate `Vec` allocation. `fill` must append exactly
    /// `stride` values.
    #[inline]
    pub fn push_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) -> PointId {
        let before = self.data.len();
        fill(&mut self.data);
        debug_assert_eq!(
            self.data.len() - before,
            self.stride,
            "push_with must append exactly `stride` values"
        );
        PointId((before / self.stride.max(1)) as u32)
    }

    /// Drops the most recently pushed point (used when a freshly projected
    /// tuple turns out to be dead on arrival).
    #[inline]
    pub fn pop(&mut self) {
        let n = self.data.len();
        debug_assert!(n >= self.stride);
        self.data.truncate(n - self.stride);
    }

    /// Keeps the first `len` points and drops the rest, keeping the
    /// allocation (a no-op if the store holds no more than `len`).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len * self.stride);
    }

    /// The point with the given id.
    #[inline]
    pub fn get(&self, id: PointId) -> &[Value] {
        let s = id.index() * self.stride;
        &self.data[s..s + self.stride]
    }

    /// The point at positional index `i` (same as `get(PointId(i))`).
    #[inline]
    pub fn at(&self, i: usize) -> &[Value] {
        let s = i * self.stride;
        &self.data[s..s + self.stride]
    }

    /// The whole arena as one flat slice.
    #[inline]
    pub fn as_flat(&self) -> &[Value] {
        &self.data
    }

    /// Iterates over the points in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        self.data.chunks_exact(self.stride.max(1))
    }

    /// Removes all points, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

/// A *mutable window* variant used by in-place skyline windows: same flat
/// layout as [`PointStore`], but rows can be removed by swapping the last
/// row into the hole (mirroring `Vec::swap_remove` on a `Vec<Vec<f64>>`).
#[derive(Debug, Clone, Default)]
pub struct SwapStore {
    stride: usize,
    data: Vec<Value>,
}

impl SwapStore {
    /// An empty window for points of `stride` dimensions.
    pub fn new(stride: usize) -> Self {
        SwapStore {
            stride,
            data: Vec::new(),
        }
    }

    /// The fixed number of dimensions per point.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of points in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a point at the end of the window.
    #[inline]
    pub fn push(&mut self, point: &[Value]) {
        debug_assert_eq!(point.len(), self.stride, "point/stride mismatch");
        self.data.extend_from_slice(point);
    }

    /// The point at row `i`.
    #[inline]
    pub fn at(&self, i: usize) -> &[Value] {
        let s = i * self.stride;
        &self.data[s..s + self.stride]
    }

    /// Removes row `i` by moving the last row into its place — exactly the
    /// reordering `Vec::swap_remove` performs on a vector of points.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) {
        let n = self.len();
        debug_assert!(i < n);
        let last = n - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.stride);
            head[i * self.stride..(i + 1) * self.stride].copy_from_slice(tail);
        }
        self.data.truncate(last * self.stride);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut s = PointStore::new(3);
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a, PointId(0));
        assert_eq!(b, PointId(1));
        assert_eq!(s.get(a), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(b), &[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(1), s.get(b));
        assert_eq!(s.as_flat().len(), 6);
    }

    #[test]
    fn push_with_writes_in_place() {
        let mut s = PointStore::with_capacity(2, 4);
        let id = s.push_with(|out| out.extend_from_slice(&[7.0, 8.0]));
        assert_eq!(id, PointId(0));
        assert_eq!(s.get(id), &[7.0, 8.0]);
        s.pop();
        assert!(s.is_empty());
        for i in 0..3 {
            s.push(&[f64::from(i), 0.0]);
        }
        s.truncate(1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.at(0), &[0.0, 0.0]);
        s.truncate(5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut s = PointStore::new(2);
        for i in 0..5 {
            s.push(&[i as Value, (i * i) as Value]);
        }
        let pts: Vec<&[Value]> = s.iter().collect();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[3], &[3.0, 9.0]);
        s.clear();
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn swap_store_mirrors_vec_swap_remove() {
        let mut flat = SwapStore::new(2);
        let mut nested: Vec<Vec<Value>> = Vec::new();
        for i in 0..6 {
            let p = vec![i as Value, (10 - i) as Value];
            flat.push(&p);
            nested.push(p);
        }
        for kill in [1usize, 3, 0] {
            flat.swap_remove(kill);
            nested.swap_remove(kill);
            assert_eq!(flat.len(), nested.len());
            for (i, p) in nested.iter().enumerate() {
                assert_eq!(flat.at(i), p.as_slice(), "row {i} after kill {kill}");
            }
        }
        while !nested.is_empty() {
            flat.swap_remove(nested.len() - 1);
            nested.pop();
        }
        assert!(flat.is_empty());
    }
}
