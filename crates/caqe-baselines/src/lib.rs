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
//! * [`progxe::ProgXeStrategy`] — **ProgXe+** [27]: per-query progressive
//!   output-space-partitioned execution, count-driven rather than
//!   contract-driven. Realized as the shared engine in
//!   `EngineConfig::progxe_core()` run over single-query workloads in
//!   priority order on one continuous clock.
//! * [`sjfsl::SJfslStrategy`] — **S-JFSL**: the paper's sharing-based
//!   strawman — pipelines all join tuples over the min-max-cuboid plan in
//!   blind FIFO order, with no look-ahead pruning and no feedback.
//!
//! JFSL and SSMJ execute each join once per join group and replay its
//! charge to every query of the group, so their virtual time is that of
//! the unshared runs the paper describes.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod jfsl;
mod per_query;
pub mod progxe;
pub mod sjfsl;
pub mod ssmj;

pub use jfsl::JfslStrategy;
pub use progxe::ProgXeStrategy;
pub use sjfsl::SJfslStrategy;
pub use ssmj::SsmjStrategy;

use caqe_core::ExecutionStrategy;

/// All five compared systems, in the paper's presentation order:
/// CAQE, S-JFSL, JFSL, ProgXe+, SSMJ.
pub fn all_strategies() -> Vec<Box<dyn ExecutionStrategy>> {
    vec![
        Box::new(caqe_core::CaqeStrategy),
        Box::new(SJfslStrategy),
        Box::new(JfslStrategy),
        Box::new(ProgXeStrategy),
        Box::new(SsmjStrategy),
    ]
}
