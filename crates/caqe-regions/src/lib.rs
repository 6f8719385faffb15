//! Multi-Query output Look-Ahead (MQLA, §5 of the paper) and the
//! contract-driven benefit model (§5.3).
//!
//! This crate performs query evaluation *at the granularity of cells and
//! regions* before any tuple is touched:
//!
//! * [`build::build_regions`] — the coarse-level join (§5.1): pairs of
//!   quad-tree leaf cells whose signatures intersect become candidate
//!   **output regions**, whose bounds are the exact image of the cell pair
//!   under the monotone mapping functions;
//! * [`build`] also runs the coarse-level skyline (§5.2): bottom-up over
//!   the min-max cuboid, regions that are fully dominated for every query
//!   they could serve are pruned before any join work is spent on them;
//! * [`depgraph::DependencyGraph`] — Definition 9: which regions can
//!   (partially) dominate which, per query; drives both scheduling order
//!   and safe progressive emission;
//! * [`estimate`] — the progressiveness-based benefit model: Buchta's
//!   skyline cardinality estimate (Equation 9), the progressive cell count
//!   (Definition 11), `ProgEst` (Equation 10) and the Cumulative
//!   Satisfaction Metric (Equation 8);
//! * [`threats::ThreatCounts`] — the per-cell threat counts Definition 11
//!   is a function of, kept current by deltas so scheduling does not
//!   re-derive them per candidate per decision;
//! * `cells` — output-cell sets as machine words: the one place that knows
//!   how a cell index decomposes into grid coordinates, behind both the
//!   counts and the §6 discard ([`OutputRegion::discard_dominated`]).

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
mod cells;
pub mod depgraph;
pub mod estimate;
pub mod region;
#[cfg(test)]
mod testkit;
pub mod threats;

pub use build::{build_regions, RegionBuildInput};
pub use depgraph::DependencyGraph;
pub use estimate::{
    buchta_estimate, estimate_ticks, prog_count, prog_est, region_csm, soft_prog_count,
    soft_prog_est, ReconciledEstimate,
};
pub use region::{OutputRegion, RegionSet};
pub use threats::ThreatCounts;
