//! The CAQE framework (§4–§6 of the paper): a contract-driven optimizer and
//! contract-aware executor for workloads of concurrent skyline-over-join
//! queries.
//!
//! The pipeline, mirroring Figure 4:
//!
//! 1. queries are grouped by shared join condition and mapping functions
//!    ([`group`]); each group gets a **min-max cuboid** shared plan;
//! 2. **multi-query output look-ahead** builds the abstract output space:
//!    quad-tree cells → output regions → dependency graph (`caqe-regions`);
//! 3. the **contract-driven optimizer** (Algorithm 1) iteratively picks the
//!    root region with the highest Cumulative Satisfaction Metric;
//! 4. the **contract-aware executor** processes the chosen region at tuple
//!    level over the shared plan, progressively emits results that are
//!    guaranteed final, and feeds run-time satisfaction back into the
//!    optimizer's weights (Equation 11).
//!
//! The same engine, reconfigured through [`config::EngineConfig`], also
//! realizes the shared-plan baseline **S-JFSL** (FIFO order, no look-ahead
//! pruning, no feedback) and the per-query progressive baseline **ProgXe+**
//! (count-driven scheduling, single-query workloads) — see
//! `caqe-baselines`.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod engine;
pub mod group;
pub mod ingest;
pub mod outcome;
pub mod plan;
pub mod session;
pub mod strategy;
pub mod workload;

pub use config::{DegradationPolicy, EngineConfig, ExecConfig, SchedulingPolicy};
pub use engine::{try_run_engine, try_run_engine_online_prepared, RunRequest};
pub use group::GroupMemo;
pub use ingest::{prepare_inputs, PreparedInputs};
pub use outcome::{QueryOutcome, RunOutcome};
pub use plan::{config_fingerprint, table_fingerprint, PlanError, PreparedPlan, PLAN_VERSION};
pub use session::{EventStream, SessionEvent};
pub use strategy::{CaqeStrategy, ExecutionStrategy};
pub use workload::{QuerySpec, Workload, WorkloadBuilder};
