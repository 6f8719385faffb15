//! The competitor techniques of the paper's evaluation (§7.1).
//!
//! "In all systems, while queries are processed in the order of the priority
//! `pr_i`, these existing techniques do not share work across skyline
//! queries":
//!
//! * [`jfsl::JfslStrategy`] — **JFSL** [17]: join-first-skyline-later. Each
//!   query is charged its full join, then a blocking BNL skyline; all
//!   results arrive at the very end of the query's processing.
//! * [`ssmj::SsmjStrategy`] — **SSMJ** [14]: sort-based skyline join. The
//!   join output is sorted by a monotone score and filtered SFS-style, so
//!   survivors stream out progressively — but one query at a time and with
//!   no shared charge.
//! * **ProgXe+** [27] and **S-JFSL**, the paper's sharing-based strawman,
//!   are the shared engine under a config: the values
//!   `EngineStrategy::PROGXE` (count-driven, one query at a time in
//!   priority order on one continuous clock) and `EngineStrategy::S_JFSL`
//!   (every join tuple pipelined over the min-max-cuboid plan in blind FIFO
//!   order, with no look-ahead pruning and no feedback) of
//!   [`caqe_core::EngineStrategy`].
//!
//! JFSL and SSMJ execute each join once per join group and replay its
//! charge to every query of the group, so their virtual time is that of
//! the unshared runs the paper describes.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod jfsl;
mod per_query;
pub mod ssmj;

pub use jfsl::JfslStrategy;
pub use ssmj::SsmjStrategy;

use caqe_core::{EngineStrategy, ExecutionStrategy};

/// [`EngineStrategy::S_JFSL`] under the name `benchmark/src` compiles
/// against. Nothing else should use it; it stays until the benchmark is
/// re-pointed.
#[allow(non_upper_case_globals)]
pub const SJfslStrategy: EngineStrategy = EngineStrategy::S_JFSL;

/// All five compared systems, in the paper's presentation order:
/// CAQE, S-JFSL, JFSL, ProgXe+, SSMJ.
pub fn all_strategies() -> Vec<Box<dyn ExecutionStrategy>> {
    vec![
        Box::new(EngineStrategy::CAQE),
        Box::new(EngineStrategy::S_JFSL),
        Box::new(JfslStrategy),
        Box::new(EngineStrategy::PROGXE),
        Box::new(SsmjStrategy),
    ]
}
