//! Wall-clock soak harness: concurrent clients hammering a [`CaqeServer`]
//! under a `caqe-faults` chaos plan.
//!
//! The harness asserts the robustness properties the serving layer
//! promises — every accepted session reaches a terminal state (liveness),
//! the queue never exceeds its bound (backpressure works), and mean
//! satisfaction under chaos stays close to a clean baseline run over the
//! same submission mix (contract-SLO retention).

use crate::server::{CaqeServer, ServeConfig, SessionState, SubmitRequest, SubmitResponse};
use caqe_contract::Contract;
use caqe_core::{EngineConfig, ExecConfig, QuerySpec};
use caqe_data::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long each client waits for a session to reach a terminal state
/// before giving up (counted as `unresolved` — a liveness violation), in
/// milliseconds.
const ATTACH_TIMEOUT_MS: u64 = 60_000;

/// Retries a client spends on a `QueueFull` reject before dropping the
/// submission (each retry backs off briefly).
const FULL_RETRIES: u32 = 200;

/// Soak-run shape.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Submissions per client.
    pub submits_per_client: usize,
    /// Serving-layer knobs shared by the chaos run and the clean baseline.
    pub serve: ServeConfig,
}

/// What the soak observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Submissions attempted (including resubmits after `QueueFull`).
    pub submitted: u64,
    /// Sessions admitted.
    pub accepted: u64,
    /// Rejections observed (explicit backpressure, not drops).
    pub rejected: u64,
    /// Accepted sessions that completed.
    pub completed: u64,
    /// Accepted sessions that terminally failed.
    pub failed: u64,
    /// Accepted sessions expired by the deadline watchdog.
    pub expired: u64,
    /// Accepted sessions still non-terminal when their client gave up —
    /// any non-zero value is a liveness violation.
    pub unresolved: u64,
    /// High-water admission-queue depth (must stay `<= queue_bound`).
    pub peak_depth: u64,
    /// The configured queue bound, echoed for assertions.
    pub queue_bound: u64,
    /// Epochs the chaos run executed.
    pub epochs: u64,
    /// Mean satisfaction over completed chaos sessions.
    pub mean_satisfaction: f64,
    /// Mean satisfaction of the clean (fault-free) baseline over the same
    /// submission mix.
    pub clean_mean_satisfaction: f64,
    /// `mean_satisfaction / clean_mean_satisfaction` (1.0 when the
    /// baseline is zero).
    pub retention: f64,
    /// Wall-clock duration of the chaos run.
    pub wall_seconds: f64,
}

/// The deterministic submission mix: client `c`'s `i`-th request. Rotates
/// through the Table 2 contract classes so every class is exercised.
/// Public so the `serve_soak` driver submits the exact same mix — the
/// kill-and-restore equivalence check depends on it.
pub fn mix_request(catalog_len: usize, c: usize, i: usize) -> SubmitRequest {
    let k = c * 31 + i;
    let contract = match k % 5 {
        0 => Contract::Deadline { t_hard: 40.0 },
        1 => Contract::LogDecay,
        2 => Contract::SoftDeadline { t_soft: 25.0 },
        3 => Contract::Quota {
            frac: 0.25,
            interval: 10.0,
        },
        _ => Contract::Hybrid {
            frac: 0.2,
            interval: 12.0,
        },
    };
    SubmitRequest {
        catalog: k % catalog_len,
        priority: 0.25 + 0.5 * ((k % 4) as f64 / 3.0),
        contract,
        deadline_ms: None,
    }
}

/// Clean baseline: same submission mix, fault-free exec, single-threaded
/// FIFO drain. Returns the mean satisfaction over completed sessions.
fn clean_baseline(
    tables: &(Table, Table),
    catalog: &[QuerySpec],
    clean_exec: &ExecConfig,
    engine: &EngineConfig,
    cfg: &SoakConfig,
) -> f64 {
    let mut serve = cfg.serve;
    // The baseline is not exercising backpressure; give it room so the
    // whole mix is admitted.
    serve.queue_bound = (cfg.clients * cfg.submits_per_client).max(1);
    let server = CaqeServer::new(
        tables.clone(),
        catalog.to_vec(),
        *clean_exec,
        *engine,
        serve,
    );
    // Round-robin over clients approximates the interleaving concurrent
    // clients produce.
    for i in 0..cfg.submits_per_client {
        for c in 0..cfg.clients {
            let resp = server.submit(mix_request(catalog.len(), c, i));
            debug_assert!(matches!(resp, SubmitResponse::Accepted { .. }));
        }
        server.drain();
    }
    server.drain();
    server.mean_satisfaction()
}

/// Runs the soak: `cfg.clients` threads submit, back off on rejects and
/// attach to their sessions while a worker thread drives epochs, with
/// `chaos_exec` carrying the fault plan. A clean baseline over the same
/// submission mix anchors the `retention` figure.
pub fn run_soak(
    tables: &(Table, Table),
    catalog: &[QuerySpec],
    clean_exec: &ExecConfig,
    chaos_exec: &ExecConfig,
    engine: &EngineConfig,
    cfg: &SoakConfig,
) -> SoakReport {
    assert!(!catalog.is_empty(), "soak needs a catalog");
    let clean_mean = clean_baseline(tables, catalog, clean_exec, engine, cfg);

    let server = CaqeServer::new(
        tables.clone(),
        catalog.to_vec(),
        *chaos_exec,
        *engine,
        cfg.serve,
    );
    let submitted = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let unresolved = AtomicU64::new(0);

    let started = Instant::now();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run_worker(true));
        let mut clients = Vec::new();
        for c in 0..cfg.clients {
            let server = &server;
            let submitted = &submitted;
            let accepted = &accepted;
            let rejected = &rejected;
            let completed = &completed;
            let failed = &failed;
            let expired = &expired;
            let unresolved = &unresolved;
            clients.push(scope.spawn(move || {
                let mut sessions = Vec::new();
                for i in 0..cfg.submits_per_client {
                    let req = mix_request(catalog.len(), c, i);
                    let mut tries = 0u32;
                    loop {
                        submitted.fetch_add(1, Ordering::Relaxed);
                        match server.submit(req.clone()) {
                            SubmitResponse::Accepted { session, .. } => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                                sessions.push(session);
                                break;
                            }
                            SubmitResponse::Rejected { reason, .. } => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                if reason.as_str() == "full" && tries < FULL_RETRIES {
                                    tries += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                    continue;
                                }
                                break;
                            }
                        }
                    }
                }
                for session in sessions {
                    match server.attach(session, Duration::from_millis(ATTACH_TIMEOUT_MS)) {
                        Some(SessionState::Done(_)) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(SessionState::Failed(_)) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(SessionState::DeadlineExpired) => {
                            expired.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(SessionState::Cancelled) => {}
                        _ => {
                            unresolved.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        for client in clients {
            let _ = client.join();
        }
        server.begin_shutdown();
        let _ = worker.join();
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mean_satisfaction = server.mean_satisfaction();
    let retention = if clean_mean > 0.0 {
        mean_satisfaction / clean_mean
    } else {
        1.0
    };
    SoakReport {
        submitted: submitted.into_inner(),
        accepted: accepted.into_inner(),
        rejected: rejected.into_inner(),
        completed: completed.into_inner(),
        failed: failed.into_inner(),
        expired: expired.into_inner(),
        unresolved: unresolved.into_inner(),
        peak_depth: server.queue_peak() as u64,
        queue_bound: cfg.serve.queue_bound as u64,
        epochs: server.epochs(),
        mean_satisfaction,
        clean_mean_satisfaction: clean_mean,
        retention,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_mix_is_deterministic_and_in_range() {
        for c in 0..4 {
            for i in 0..8 {
                let a = mix_request(3, c, i);
                let b = mix_request(3, c, i);
                assert!(a.catalog < 3);
                assert!((0.0..=1.0).contains(&a.priority));
                assert_eq!(a.catalog, b.catalog);
                assert_eq!(a.priority, b.priority);
            }
        }
    }
}
