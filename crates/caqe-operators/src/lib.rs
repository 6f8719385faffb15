//! Single-query relational and skyline operators (§2.2 of the paper),
//! implemented from scratch and instrumented with the operation counters
//! and virtual clock that the evaluation metrics rely on.
//!
//! * [`mapping`] — the `PROJECT_[F, X]` operator: scalar mapping functions
//!   transforming join results into the multi-query output space, with
//!   exact interval arithmetic for coarse (cell-level) evaluation.
//! * [`join`] — equi-joins (`R ⋈_{JC} T`): an instrumented nested-loop join
//!   and a hash join, both fused with projection; the hash join hands each
//!   result to a sink as it is produced.
//! * [`skyline`] — `SKY_P` over a point set: the definitional reference,
//!   block-nested-loop (BNL [3]) as a window fed rows in blocks, and
//!   sort-filter-skyline (SFS [6]) over a whole store.
//! * [`window`] — `SKY_P` one point at a time: the score-sorted incremental
//!   window every shared-plan subspace runs.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod join;
pub mod mapping;
pub mod skyline;
pub mod window;

pub use join::{
    hash_join_project, hash_join_project_into, hash_join_project_store, nested_loop_join_project,
    JoinOutput, JoinSink, JoinSpec, OutTuple, SortedJoinIndex,
};
pub use mapping::{MappingFn, MappingSet};
pub use skyline::{
    skyline_bnl, skyline_bnl_store, skyline_reference, skyline_sfs, skyline_sfs_store,
    skyline_sfs_store_each, BnlWindow,
};
pub use window::{IncrementalSkyline, InsertOutcome, SigSkyline, SkylineWindow};
