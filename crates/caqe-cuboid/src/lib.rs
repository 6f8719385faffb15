//! The shared min-max-cuboid plan (§4.1 of the paper).
//!
//! For a workload of skyline-over-join queries that differ in their skyline
//! dimensions, the *skycube* [36] would maintain all `2^d − 1` subspace
//! skylines (Figure 5). The **min-max cuboid** (Definition 7, Figure 6)
//! prunes this lattice to the minimal set of subspaces that still maximizes
//! sharing: all singletons, every subspace that serves more than one query,
//! every maximal subspace for its served-query set, and the full preference
//! subspace of each query.
//!
//! [`SharedSkylinePlan`] then maintains one incremental skyline per cuboid
//! subspace and inserts join results bottom-up, exploiting Theorem 1 (a
//! point non-dominated in a child subspace is non-dominated in any parent,
//! if no member ties it there) to skip comparisons.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod lattice;
pub mod minmax;
pub mod shared;

pub use lattice::{q_serve, skycube_subspaces};
pub use minmax::MinMaxCuboid;
pub use shared::{BatchOutcome, Eviction, RowTests, SharedInsert, SharedSkylinePlan};
