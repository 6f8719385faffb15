//! Deterministic observability for the CAQE engine (DESIGN.md §16).
//!
//! Three layers on top of the trace vocabulary:
//!
//! 1. **Metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!    log2-bucketed histograms keyed by the virtual clock. `BTreeMap`
//!    storage makes every snapshot a pure function of (workload, config):
//!    byte-identical from run to run.
//! 2. **Collection** ([`ObsCollector`]) — the one fold over a recorded
//!    trace, after the run: the contract-SLO monitor (running
//!    satisfaction, satisfaction timelines, deadline-at-risk projection,
//!    shed/retry/quarantine/admit/depart counters), the [`Fold`] the
//!    `report` binary's summary and check rules read, and the end-of-run
//!    `Stats` counters (`caqe_stats_<field>`, which carry the per-phase
//!    tick and dominance-charge breakdowns) plus occupancy gauges.
//! 3. **Export** — deterministic JSON ([`MetricsRegistry::to_json`], read
//!    back by [`MetricsRegistry::from_json`]) and Prometheus text
//!    ([`MetricsRegistry::to_prometheus`]) snapshots, consumed by the
//!    `report` binary's dashboard, which, given the trace directory too,
//!    reconciles the `Stats` counters with the trace's event counts.
//!
//! Observability is opt-in per run and post hoc: the engine records into
//! its usual sink and the collector reads the recording afterwards, so a
//! metrics-off run is bit-identical to a build without this crate.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collector;
mod registry;

pub use collector::{names, Fold, ObsCollector, ObsConfig, QueryObs};
pub use registry::{key, Histogram, MetricsReadError, MetricsRegistry};
