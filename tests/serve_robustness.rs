//! Robustness contract of the wall-clock serving layer (DESIGN.md §18):
//! (a) kill-and-restore is digest-equivalent to an uninterrupted run;
//! (b) a crash at any point of the snapshot write protocol never leaves a
//! loadable-but-corrupt snapshot; (c) a chaos soak stays live with the
//! queue bounded and contract SLOs retained; (d) every admission path —
//! accept, queue-full reject, invalid reject, cancel, deadline expiry,
//! negotiation downgrade — answers with typed state, never a panic;
//! (e) a restore serves whatever state the plan file is in, and says which.

use caqe::contract::Contract;
use caqe::core::{EngineConfig, ExecConfig, PlanError, QuerySpec};
use caqe::data::{Distribution, TableGenerator, ValidationPolicy};
use caqe::faults::FaultPlan;
use caqe::operators::MappingSet;
use caqe::serve::{
    load_snapshot, mix_request, run_soak, write_snapshot, write_snapshot_with_crash, CaqeServer,
    CrashPoint, PlanProvenance, RejectReason, ServeConfig, SessionState, Snapshot, SnapshotError,
    SoakConfig, SubmitRequest, SubmitResponse, SNAPSHOT_VERSION,
};
use caqe::types::DimMask;
use std::path::PathBuf;
use std::time::Duration;

fn tables(n: usize, seed: u64) -> (caqe::data::Table, caqe::data::Table) {
    let gen = TableGenerator::new(n, 2, Distribution::Independent)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(seed);
    (gen.generate("R"), gen.generate("T"))
}

fn spec(col: usize, pref: DimMask, priority: f64, contract: Contract) -> QuerySpec {
    QuerySpec {
        join_col: col,
        mapping: MappingSet::mixed(2, 2, 4),
        pref,
        priority,
        contract,
    }
}

fn catalog() -> Vec<QuerySpec> {
    vec![
        spec(
            0,
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 0.5 },
        ),
        spec(0, DimMask::from_dims([1, 2]), 0.6, Contract::LogDecay),
        spec(
            1,
            DimMask::from_dims([2, 3]),
            0.4,
            Contract::SoftDeadline { t_soft: 0.3 },
        ),
    ]
}

fn server(cfg: ServeConfig) -> CaqeServer {
    CaqeServer::new(
        tables(400, 7),
        catalog(),
        ExecConfig::default().with_target_cells(400, 8),
        EngineConfig::caqe(),
        cfg,
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("caqe_serve_test_{}_{name}", std::process::id()))
}

/// The tentpole equivalence claim: snapshotting mid-workload and restoring
/// into a fresh server yields exactly the per-session digests of a run
/// that was never interrupted. Epochs are deterministic and the queue is
/// FIFO-quantized, so the kill point must not be observable.
#[test]
fn kill_and_restore_matches_uninterrupted_run() {
    let sessions = 10usize;
    let cfg = ServeConfig {
        queue_bound: sessions,
        epoch_batch: 4,
        ..ServeConfig::default()
    };
    let submit_all = |s: &CaqeServer| {
        for i in 0..sessions {
            match s.submit(mix_request(catalog().len(), 0, i)) {
                SubmitResponse::Accepted { .. } => {}
                SubmitResponse::Rejected { reason, .. } => panic!("unexpected reject: {reason}"),
            }
        }
    };

    let uninterrupted = server(cfg);
    submit_all(&uninterrupted);
    let reports = uninterrupted.drain();
    assert!(reports.iter().all(|r| r.succeeded), "clean epoch failed");
    let baseline = uninterrupted.session_digests();
    assert_eq!(baseline.len(), sessions);

    // Same submissions, killed after one epoch (4 of 10 sessions done).
    let killed = server(cfg);
    submit_all(&killed);
    assert!(killed.run_epoch().is_some());
    let path = tmp("restore_equivalence");
    let snap = killed.shutdown_to_snapshot(&path).expect("snapshot");
    assert_eq!(snap.completed.len(), 4, "one epoch of four sessions");
    assert_eq!(snap.queued.len(), 6, "remainder captured in FIFO order");

    let (restored, loaded) = CaqeServer::restore(
        tables(400, 7),
        catalog(),
        ExecConfig::default().with_target_cells(400, 8),
        EngineConfig::caqe(),
        cfg,
        &path,
    )
    .expect("restore");
    assert_eq!(loaded.version, SNAPSHOT_VERSION);
    restored.drain();
    assert_eq!(
        restored.session_digests(),
        baseline,
        "restored run diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

/// Plan trouble never blocks a restore and never changes what is served: a
/// good plan file warm-starts the server, and one of another version, a
/// damaged one or one written against other tables each cost one cold build,
/// reported with the typed reason.
#[test]
fn restore_with_plan_serves_whatever_the_plan_file_holds() {
    let sessions = 10usize;
    let cfg = ServeConfig {
        queue_bound: sessions,
        epoch_batch: 4,
        ..ServeConfig::default()
    };
    let submit_all = |s: &CaqeServer| {
        for i in 0..sessions {
            let answer = s.submit(mix_request(catalog().len(), 0, i));
            assert!(
                matches!(answer, SubmitResponse::Accepted { .. }),
                "{answer:?}"
            );
        }
    };
    let uninterrupted = server(cfg);
    submit_all(&uninterrupted);
    uninterrupted.drain();
    let baseline = uninterrupted.session_digests();
    assert_eq!(baseline.len(), sessions);

    // Killed at a queue boundary, one epoch in, snapshot and plan on disk.
    let killed = server(cfg);
    submit_all(&killed);
    assert!(killed.run_epoch().is_some());
    let snap_path = tmp("plan_restore_snapshot");
    killed.shutdown_to_snapshot(&snap_path).expect("snapshot");
    let written = tmp("plan_restore_written");
    killed.write_plan(&written).expect("plan");

    let flipped = tmp("plan_restore_flipped");
    let mut bytes = std::fs::read(&written).expect("read plan");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&flipped, bytes).expect("write flipped plan");
    let foreign = tmp("plan_restore_foreign");
    let other = CaqeServer::new(
        tables(400, 8),
        catalog(),
        ExecConfig::default().with_target_cells(400, 8),
        EngineConfig::caqe(),
        cfg,
    );
    other.write_plan(&foreign).expect("foreign plan");
    let parent_v1 = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/parent_v1.caqeplan"
    ));

    type Check = fn(&PlanProvenance) -> bool;
    let cases: [(&PathBuf, &str, Check); 4] = [
        (&written, "warm", |p| *p == PlanProvenance::Warm),
        (&parent_v1, "rebuilt: version 1", |p| {
            *p == PlanProvenance::Rebuilt(PlanError::Version { found: 1 })
        }),
        (&flipped, "rebuilt: corrupt", |p| {
            matches!(p, PlanProvenance::Rebuilt(PlanError::Corrupt(_)))
        }),
        (&foreign, "rebuilt: stale", |p| {
            matches!(p, PlanProvenance::Rebuilt(PlanError::Stale { .. }))
        }),
    ];
    for (plan_path, want, holds) in cases {
        let (restored, _, provenance) = CaqeServer::restore_with_plan(
            tables(400, 7),
            catalog(),
            ExecConfig::default().with_target_cells(400, 8),
            EngineConfig::caqe(),
            cfg,
            &snap_path,
            plan_path,
        )
        .expect("restore");
        assert!(holds(&provenance), "expected {want}, got {provenance:?}");
        assert!(
            restored.has_plan(),
            "{want}: a restored server holds a plan"
        );
        restored.drain();
        assert_eq!(restored.session_digests(), baseline, "{want}");
    }
    for path in [&snap_path, &written, &flipped, &foreign] {
        let _ = std::fs::remove_file(path);
    }
}

/// Crash-safety of the write protocol: a crash before the atomic rename —
/// mid-temp-write or just before the rename — must leave the *previous*
/// snapshot fully loadable, and a torn/garbled file must never parse.
#[test]
fn crash_during_snapshot_write_never_corrupts() {
    let path = tmp("crash_points");
    let old = Snapshot {
        version: SNAPSHOT_VERSION,
        next_session: 3,
        epochs: 1,
        completed: Vec::new(),
        queued: Vec::new(),
    };
    write_snapshot(&path, &old).expect("seed snapshot");
    let newer = Snapshot {
        version: SNAPSHOT_VERSION,
        next_session: 9,
        epochs: 4,
        completed: Vec::new(),
        queued: Vec::new(),
    };
    for crash in [CrashPoint::MidWrite, CrashPoint::BeforeRename] {
        match write_snapshot_with_crash(&path, &newer, crash) {
            Err(SnapshotError::SimulatedCrash) => {}
            other => panic!("expected simulated crash, got {other:?}"),
        }
        let survived = load_snapshot(&path).expect("old snapshot must survive the crash");
        assert_eq!(survived, old, "crash at {crash:?} corrupted the snapshot");
    }
    // A completed write replaces it atomically.
    write_snapshot(&path, &newer).expect("clean write");
    assert_eq!(load_snapshot(&path).expect("reload"), newer);
    // Tampering (bit flip in the body) breaks the checksum: typed error,
    // never a half-parsed snapshot.
    let text = std::fs::read_to_string(&path).expect("read back");
    std::fs::write(&path, text.replace("next_session 9", "next_session 8")).expect("tamper");
    match load_snapshot(&path) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("tampered snapshot must not load, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Soak under the PR 4 chaos plan: every session resolves (liveness), the
/// queue never exceeds its bound (backpressure), and mean contract
/// satisfaction under chaos retains most of the clean baseline.
#[test]
fn soak_is_live_bounded_and_retains_slo() {
    caqe::faults::silence_injected_panics();
    let exec = ExecConfig::default().with_target_cells(400, 8);
    let chaos = exec
        .with_faults(
            FaultPlan::seeded(7)
                .with_panics(0.15)
                .with_spikes(0.10, 8.0)
                .with_estimator_noise(0.20, 4.0)
                .with_corruption(0.02),
        )
        .with_validation(ValidationPolicy::Quarantine);
    let soak = SoakConfig {
        clients: 3,
        submits_per_client: 5,
        serve: ServeConfig {
            queue_bound: 5,
            epoch_batch: 3,
            ..ServeConfig::default()
        },
        ..SoakConfig::default()
    };
    let report = run_soak(
        &tables(400, 7),
        &catalog(),
        &exec,
        &chaos,
        &EngineConfig::caqe(),
        &soak,
    );
    assert_eq!(report.unresolved, 0, "liveness: a session never resolved");
    assert!(
        report.peak_depth <= report.queue_bound,
        "backpressure: peak depth {} exceeded bound {}",
        report.peak_depth,
        report.queue_bound
    );
    assert_eq!(
        report.submitted,
        report.accepted + report.rejected,
        "every submission must be answered"
    );
    assert!(report.completed > 0, "chaos run completed nothing");
    assert!(
        report.retention >= 0.75,
        "SLO retention {} collapsed under chaos",
        report.retention
    );
}

/// Every admission-path answer is typed: accept with a queue position,
/// queue-full and invalid rejects with reasons, cancel only while queued,
/// attach observing the terminal state.
#[test]
fn admission_paths_answer_typed() {
    let srv = server(ServeConfig {
        queue_bound: 2,
        epoch_batch: 2,
        ..ServeConfig::default()
    });
    let req = |catalog: usize| SubmitRequest {
        catalog,
        priority: 0.5,
        contract: Contract::LogDecay,
        deadline_ms: None,
    };
    // Invalid catalog index and out-of-range priority: typed rejects.
    match srv.submit(req(99)) {
        SubmitResponse::Rejected {
            reason: RejectReason::Invalid { .. },
            ..
        } => {}
        other => panic!("expected invalid reject, got {other:?}"),
    }
    match srv.submit(SubmitRequest {
        priority: 1.5,
        ..req(0)
    }) {
        SubmitResponse::Rejected {
            reason: RejectReason::Invalid { .. },
            ..
        } => {}
        other => panic!("expected invalid reject, got {other:?}"),
    }
    // Fill the queue; the third submission sees explicit backpressure.
    let first = match srv.submit(req(0)) {
        SubmitResponse::Accepted { session, position } => {
            assert_eq!(position, 0);
            session
        }
        other => panic!("expected accept, got {other:?}"),
    };
    let second = match srv.submit(req(1)) {
        SubmitResponse::Accepted { session, position } => {
            assert_eq!(position, 1);
            session
        }
        other => panic!("expected accept, got {other:?}"),
    };
    match srv.submit(req(2)) {
        SubmitResponse::Rejected {
            reason: RejectReason::QueueFull { depth, bound },
            ..
        } => assert_eq!((depth, bound), (2, 2)),
        other => panic!("expected queue-full reject, got {other:?}"),
    }
    // Cancel pops the second session; peers keep their answers.
    assert!(matches!(
        srv.status(second),
        Some(SessionState::Queued { position: 1 })
    ));
    assert!(srv.cancel(second), "queued session must be cancellable");
    assert!(!srv.cancel(second), "cancel is not idempotent-true");
    assert_eq!(srv.status(second), Some(SessionState::Cancelled));
    srv.drain();
    match srv.attach(first, Duration::from_secs(30)) {
        Some(SessionState::Done(result)) => {
            assert!(result.results > 0, "session produced nothing");
            assert!(!result.contract_adjusted);
        }
        other => panic!("expected done, got {other:?}"),
    }
    assert!(!srv.cancel(first), "terminal sessions cannot be cancelled");
    assert_eq!(srv.status(12345), None, "unknown session is None");
}

/// A queued session whose wall-clock deadline lapses before any epoch
/// picks it up expires with a typed state instead of running late.
#[test]
fn deadline_expiry_is_typed() {
    let srv = server(ServeConfig {
        queue_bound: 4,
        ..ServeConfig::default()
    });
    let doomed = match srv.submit(SubmitRequest {
        catalog: 0,
        priority: 0.5,
        contract: Contract::LogDecay,
        deadline_ms: Some(0),
    }) {
        SubmitResponse::Accepted { session, .. } => session,
        other => panic!("expected accept, got {other:?}"),
    };
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(srv.expire_overdue(), 1);
    assert_eq!(srv.status(doomed), Some(SessionState::DeadlineExpired));
    assert_eq!(srv.queue_depth(), 0, "expired session left the queue");
}

/// Negotiation downgrades inexpressible contract classes at the front
/// door and the session result records the adjustment.
#[test]
fn negotiation_downgrade_is_recorded() {
    let srv = server(ServeConfig::default());
    let session = match srv.submit(SubmitRequest {
        catalog: 0,
        priority: 0.5,
        contract: Contract::Piecewise {
            steps: vec![(0.5, 1.0)],
            tail: 0.1,
        },
        deadline_ms: None,
    }) {
        SubmitResponse::Accepted { session, .. } => session,
        other => panic!("expected accept, got {other:?}"),
    };
    srv.drain();
    match srv.attach(session, Duration::from_secs(30)) {
        Some(SessionState::Done(result)) => {
            assert!(
                result.contract_adjusted,
                "piecewise contract must be renegotiated"
            );
        }
        other => panic!("expected done, got {other:?}"),
    }
}
