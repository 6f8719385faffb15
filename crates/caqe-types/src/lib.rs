//! Foundational types shared by every CAQE subsystem.
//!
//! This crate defines the vocabulary of the whole reproduction:
//!
//! * [`subspace::DimMask`] — a set of skyline dimensions (a *subspace* in the
//!   paper's terminology, §2.1).
//! * [`dominance`] — full-space and subspace dominance tests
//!   (Definitions 1 and 2 of the paper) with comparison counting.
//! * [`bounds::Rect`] — axis-aligned boxes used for quad-tree cells and
//!   output regions, with the region-dominance predicates of Definition 8.
//! * [`clock::SimClock`] / [`clock::CostModel`] — the deterministic virtual
//!   clock that substitutes for the paper's wall-clock measurements (see
//!   DESIGN.md §3 for the substitution rationale).
//! * [`stats::Stats`] — the operation counters reported in Figures 9–11.
//! * [`ids`] — strongly-typed identifiers for queries, regions and cells.
//! * [`store::PointStore`] — flat structure-of-arrays point arenas with
//!   copy-cheap handles, plus [`dominance::DomKernel`]s specialized per
//!   subspace (DESIGN.md §12).

// Library code must degrade, not abort (DESIGN.md §13): unwraps are banned
// outside tests; documented invariants use `expect`-free patterns or a
// scoped `#[allow]` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod clock;
pub mod dominance;
pub mod error;
pub mod ids;
pub mod persist;
pub mod sig;
pub mod stats;
pub mod store;
pub mod subspace;

pub use bounds::Rect;
pub use bounds::RegionRelation;
pub use clock::{CostModel, SimClock, Ticks, VirtualSeconds};
pub use dominance::{
    dominates, dominates_in, relate, relate_in, BlockVerdicts, DomKernel, DomRelation,
};
pub use error::EngineError;
pub use ids::{CellId, QueryId, QuerySet, RegionId};
pub use persist::{fnv1a, Fnv1a};
pub use sig::{SigQuantizer, SIG_MAX_DIMS, SIG_POISON};
pub use stats::{PerQueryStats, Stats};
pub use store::{PointId, PointStore};
pub use subspace::DimMask;

/// Attribute values throughout the system.
///
/// The paper assumes non-negative real-valued attributes where *smaller is
/// preferred* (§2.1). We follow that convention everywhere.
pub type Value = f64;
