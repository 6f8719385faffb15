//! Deterministic observability for the CAQE engine (DESIGN.md §16).
//!
//! Three layers on top of the trace vocabulary:
//!
//! 1. **Metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!    log2-bucketed histograms keyed by the virtual clock. `BTreeMap`
//!    storage makes every snapshot a pure function of (workload, config):
//!    byte-identical from run to run.
//! 2. **Collection** ([`ObsCollector`]) — the contract-SLO monitor
//!    (running satisfaction, satisfaction timelines, deadline-at-risk
//!    projection, shed/retry/quarantine/admit/depart counters) and the
//!    end-of-run `Stats` counters (`caqe_stats_<field>`, which carry the
//!    per-phase tick and dominance-charge breakdowns) plus occupancy
//!    gauges, folded after the run from a recorded trace.
//! 3. **Export** — deterministic JSON ([`MetricsRegistry::to_json`]) and
//!    Prometheus text ([`MetricsRegistry::to_prometheus`]) snapshots,
//!    consumed by the `report` binary's dashboard, which, given the trace
//!    directory too, cross-validates every counter against trace-derived
//!    counts.
//!
//! Observability is opt-in per run and post hoc: the engine records into
//! its usual sink and the collector reads the recording afterwards, so a
//! metrics-off run is bit-identical to a build without this crate.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collector;
mod registry;

pub use collector::{names, ObsCollector, ObsConfig, QueryObs};
pub use registry::{key, Histogram, MetricsRegistry};
