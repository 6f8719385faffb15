//! Generators the crate's property tests share.

use crate::region::OutputRegion;
use caqe_types::ids::QuerySet;
use caqe_types::{CellId, Rect, RegionId};
use proptest::prelude::*;

/// A box per region on a coarse integer lattice, so coincident, nested,
/// touching and zero-extent boxes are the common case, not the rare one.
pub(crate) fn arb_boxes(d: usize, n: usize) -> impl Strategy<Value = Vec<Rect>> {
    let corner = proptest::collection::vec((0u8..5, 0u8..5), d..=d);
    proptest::collection::vec(corner, n..=n).prop_map(|boxes| {
        boxes
            .into_iter()
            .map(|dims| {
                let lo = dims.iter().map(|&(a, b)| a.min(b) as f64).collect();
                let hi = dims.iter().map(|&(a, b)| a.max(b) as f64).collect();
                Rect::new(lo, hi)
            })
            .collect()
    })
}

/// Region `id` over `bounds`, serving `serving`.
pub(crate) fn region(id: usize, bounds: Rect, serving: QuerySet) -> OutputRegion {
    OutputRegion::new(
        RegionId(id as u32),
        CellId(0),
        CellId(0),
        bounds,
        8,
        8,
        16.0,
        serving,
    )
}
