//! Deterministic observability for the CAQE engine (DESIGN.md §16).
//!
//! Three layers on top of the trace vocabulary:
//!
//! 1. **Metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!    log2-bucketed histograms keyed by the virtual clock. `BTreeMap`
//!    storage makes every snapshot a pure function of (workload, config):
//!    byte-identical from run to run.
//! 2. **Collection** ([`ObsCollector`], [`ObserverSink`]) — the
//!    contract-SLO monitor (running satisfaction, satisfaction timelines,
//!    deadline-at-risk projection, shed/retry/quarantine/admit/depart
//!    counters) and the phase profiler (per-phase tick and
//!    dominance-charge breakdowns, screening counts, occupancy gauges)
//!    fed either live from a wrapped [`TraceSink`](caqe_trace::TraceSink)
//!    or after the fact from a recorded trace.
//! 3. **Export** — deterministic JSON ([`MetricsRegistry::to_json`]) and
//!    Prometheus text ([`MetricsRegistry::to_prometheus`]) snapshots,
//!    consumed by the `obs_report` dashboard, whose `--reconcile` mode
//!    cross-validates every counter against trace-derived counts.
//!
//! Observability is opt-in per run: when no `ObserverSink` is
//! constructed, the engine's zero-cost `const ENABLED` sink dispatch is
//! untouched, so metrics-off runs are bit-identical to builds without
//! this crate.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collector;
mod registry;

pub use collector::{names, ObsCollector, ObsConfig, ObserverSink, QueryObs};
pub use registry::{key, Histogram, MetricsRegistry};
