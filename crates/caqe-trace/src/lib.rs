//! Deterministic event tracing and metrics for the CAQE engine.
//!
//! The paper's entire evaluation is observability: Figure 10 counts
//! operations, Figures 9 and 11 plot per-query satisfaction *over time*.
//! This crate captures the per-event data those figures need — and that the
//! flat end-of-run [`caqe_types::Stats`] throws away — as a structured
//! stream keyed on the virtual clock:
//!
//! * **scheduler decisions** — for every region the optimizer commits to:
//!   CSM score (Equation 8), `ProgEst` (Equation 10), projected ticks, the
//!   policy branch taken, and the live query weights (Equation 11);
//! * **emissions** — tuple provenance, owning query, virtual timestamp,
//!   utility awarded and the running satisfaction `v(Q_i, t)`;
//! * **estimator audits** — the Buchta estimate (Equation 9) and cost
//!   projection recorded at schedule time, reconciled against actual
//!   skyline output and actual ticks at completion
//!   ([`caqe_regions::ReconciledEstimate`]);
//! * **phase spans** — partition build, group build, look-ahead and
//!   per-region execution, with tick-weighted durations.
//!
//! [`to_jsonl`] writes the stream and [`from_jsonl`] reads it back into
//! typed events, both from one table in [`jsonl`], so the JSONL grammar
//! lives in one place.
//!
//! # Determinism guarantee
//!
//! Every event field derives from the virtual clock and the engine's
//! deterministic state — never from wall time, host scheduling or memory
//! layout. The engine is serial: every recording site sits on the one
//! scheduling thread and records straight into a [`TraceSink`] in absolute
//! ticks, so the serialized trace is a pure function of the input —
//! `tests/golden_traces.rs` pins it against committed goldens.
//!
//! # Cost when disabled
//!
//! [`TraceSink::ENABLED`] is an associated `const`: engine code guards
//! every recording site with `if S::ENABLED { … }`, so with the default
//! [`NoopSink`] the whole layer monomorphizes away — no branch, no
//! allocation, no event construction in the hot path.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod export;
pub mod json;
pub mod jsonl;
pub mod sink;

pub use event::{SpanKind, TraceEvent};
pub use export::{
    chrome_trace, estimator_summary, json_str, satisfaction_csv, write_trace, EstimatorSummary,
};
pub use jsonl::{from_jsonl, to_jsonl, TraceReadError};
pub use sink::{NoopSink, RecordingSink, TraceSink};
