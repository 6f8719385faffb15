//! Wall-clock serving layer for the CAQE engine (DESIGN.md §18).
//!
//! Everything under `caqe-core` is a *pure function* of (workload, events,
//! config) on a virtual clock. This crate is the thin impure shell around
//! it — the only place in the workspace where wall time, threads-as-actors
//! and the filesystem meet query processing:
//!
//! * [`CaqeServer`] — the session front door: `submit` / `attach` /
//!   `status` / `cancel`, with per-client contract negotiation
//!   ([`negotiate`]) mapped onto the engine's `EventStream` admission
//!   machinery.
//! * Admission control — a bounded queue with explicit backpressure:
//!   overflow and invalid submissions get a typed [`RejectReason`], never
//!   silence ([`SubmitResponse`]).
//! * Deadline watchdogs — per-session wall-clock deadlines expire stale
//!   queued work. Each epoch runs once under `catch_unwind`: an
//!   `EngineError` or a caught panic becomes a typed terminal failure
//!   ([`SessionFailure`]). No panic escapes `run_epoch`.
//! * Crash-safe snapshot/restore ([`snapshot`]) — graceful shutdown drains
//!   the queue into a versioned, checksummed snapshot written via temp
//!   file + fsync + atomic rename; restore is provably trace-equivalent to
//!   an uninterrupted run because epochs are deterministic and the queue
//!   is drained in fixed FIFO batches.
//! * A soak harness ([`soak`]) driving the server under `caqe-faults`
//!   chaos plans, asserting liveness, bounded queue depth and
//!   contract-SLO retention through `caqe-obs` gauges.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod negotiate;
pub mod queue;
pub mod server;
pub mod snapshot;
pub mod soak;

pub use negotiate::{negotiate, Negotiated, Negotiation};
pub use queue::{BoundedQueue, RejectReason};
pub use server::{
    CaqeServer, EpochReport, PlanProvenance, ServeConfig, SessionFailure, SessionResult,
    SessionState, SubmitRequest, SubmitResponse,
};
pub use snapshot::{
    load_snapshot, write_snapshot, write_snapshot_with_crash, CompletedRecord, ContractSpec,
    CrashPoint, SessionRecord, Snapshot, SnapshotError, SNAPSHOT_VERSION,
};
pub use soak::{mix_request, run_soak, SoakConfig, SoakReport};
