//! # CAQE — Contract-Aware Query Execution
//!
//! A from-scratch Rust reproduction of *"CAQE: A Contract Driven Approach to
//! Processing Concurrent Decision Support Queries"* (EDBT 2014).
//!
//! This facade crate re-exports the public API of every subsystem so that
//! downstream users (and the examples in `examples/`) can depend on a single
//! crate:
//!
//! ```
//! use caqe::types::DimMask;
//! let subspace = DimMask::from_dims([0, 2]);
//! assert_eq!(subspace.len(), 2);
//! ```

/// Foundational types: subspaces, dominance, boxes, virtual clock, stats.
pub use caqe_types as types;

/// Tables, schemas and the synthetic benchmark data generators.
pub use caqe_data as data;

/// Single-query relational + skyline operators (joins, project, BNL, SFS).
pub use caqe_operators as operators;

/// Subspace lattice, skycube and the shared min-max-cuboid plan.
pub use caqe_cuboid as cuboid;

/// Quad-tree input partitioning with join-predicate signatures.
pub use caqe_partition as partition;

/// Progressiveness contracts, utility functions and satisfaction scoring.
pub use caqe_contract as contract;

/// Output regions, dependency graph and the contract-driven benefit model.
pub use caqe_regions as regions;

/// Deterministic event tracing: scheduler decisions, satisfaction
/// timelines, estimator audits and phase spans over virtual time.
pub use caqe_trace as trace;

/// Deterministic fault injection: seeded chaos plans for cost spikes,
/// estimator noise, region panics and input corruption.
pub use caqe_faults as faults;

/// The CAQE framework: workload model, optimizer and contract-aware executor.
pub use caqe_core as core;

/// Competitor techniques from the paper's evaluation: JFSL, SSMJ, ProgXe+,
/// S-JFSL.
pub use caqe_baselines as baselines;

/// The worker-count type of the (inert) `parallelism` knob; the engine is
/// serial.
pub use caqe_parallel as parallel;

/// Live observability: deterministic metrics registry, contract-SLO
/// monitor, phase profiler and exporters.
pub use caqe_obs as obs;

/// Wall-clock serving layer: session front door, admission control,
/// deadline watchdogs and crash-safe snapshot/restore.
pub use caqe_serve as serve;
