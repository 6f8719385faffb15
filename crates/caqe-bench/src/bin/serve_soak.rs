//! Wall-clock serving driver for the `caqe-serve` front door (DESIGN.md
//! §18): soak runs under chaos plans, and deterministic run/kill/restore
//! cycles whose per-session digests CI diffs for restore equivalence.
//!
//! ```text
//! # Soak: concurrent clients + worker thread under a seeded fault plan.
//! cargo run --release -p caqe-bench --bin serve_soak -- --mode soak
//!     [--n <rows>] [--clients <c>] [--submits <k>] [--bound <b>]
//!     [--batch <e>] [--faults <spec>] [--out <json>]
//!
//! # Run: submit --sessions queries upfront, drain deterministically.
//! cargo run --release -p caqe-bench --bin serve_soak -- --mode run
//!     --sessions <s> [--kill-after-epochs <k> [--sigterm-wait]]
//!     [--restore] [--snapshot <path>] [--digest-out <path>]
//!     [--trace <dir>] [--metrics <dir>]
//! ```
//!
//! The restore-equivalence protocol: run A drains uninterrupted and writes
//! its digest file; run B runs `--kill-after-epochs` epochs — then, with
//! `--sigterm-wait`, serves nothing more until SIGTERM arrives — and
//! snapshots; run C `--restore`s the snapshot, drains the remainder and
//! writes its digest file. A and C must be byte-identical — the snapshot
//! carries completed-session digests, so C's file covers every session.

use caqe_bench::json::ObjectWriter;
use caqe_bench::report::{
    cli_arg, cli_args, cli_faults, cli_flag, cli_metrics, cli_parse, cli_trace,
};
use caqe_bench::ExperimentConfig;
use caqe_core::{EngineConfig, QuerySpec};
use caqe_data::{Distribution, Table, ValidationPolicy};
use caqe_faults::FaultPlan;
use caqe_serve::{mix_request, run_soak, CaqeServer, ServeConfig, SoakConfig, SubmitResponse};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_sig: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Installs a SIGTERM handler that latches a flag (no libc crate in the
    /// build environment — the raw syscall wrapper is all we need).
    pub fn install() {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }

    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {
        eprintln!("--sigterm-wait is only supported on unix");
        std::process::exit(2);
    }

    pub fn received() -> bool {
        false
    }
}

fn write_digests(path: &Path, digests: &[(u64, u64)]) {
    let mut out = String::new();
    for (id, digest) in digests {
        out.push_str(&format!("{id} {digest:016x}\n"));
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("cannot write digest file {}: {e}", path.display());
        std::process::exit(2);
    }
}

fn write_artifacts(server: &CaqeServer, trace: Option<&Path>, metrics: Option<&Path>) {
    let events = server.server_events();
    if let Some(dir) = trace {
        if let Err(e) = caqe_trace::write_trace(dir, "server", &events) {
            eprintln!("cannot write trace into {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    if let Some(dir) = metrics {
        let reg = server.metrics();
        let write = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join("server.metrics.json"),
                    format!("{}\n", reg.to_json()),
                )
            })
            .and_then(|()| std::fs::write(dir.join("server.prom"), reg.to_prometheus()));
        if let Err(e) = write {
            eprintln!("cannot write metrics into {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
}

struct Inputs {
    tables: (Table, Table),
    catalog: Vec<QuerySpec>,
    cfg: ExperimentConfig,
}

fn inputs(n: usize) -> Inputs {
    let mut cfg = ExperimentConfig::new(Distribution::Independent, 2);
    cfg.n = n;
    cfg.workload_size = 4;
    cfg.cells_per_table = 8;
    cfg.reference_secs = Some(cfg.reference_seconds());
    let tables = cfg.tables();
    let catalog = cfg.workload().queries().to_vec();
    Inputs {
        tables,
        catalog,
        cfg,
    }
}

fn run_mode(args: &[String]) -> ExitCode {
    let n: usize = cli_parse(args, "--n", 600);
    let sessions: usize = cli_parse(args, "--sessions", 12);
    let batch: usize = cli_parse(args, "--batch", 4);
    let kill_after: Option<u64> = cli_arg(args, "--kill-after-epochs").map(|s| match s.parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad --kill-after-epochs `{s}`: {e}");
            std::process::exit(2);
        }
    });
    let restore = cli_flag(args, "--restore");
    let sigterm_wait = cli_flag(args, "--sigterm-wait");
    let snapshot = cli_arg(args, "--snapshot").map(PathBuf::from);
    let digest_out = cli_arg(args, "--digest-out").map(PathBuf::from);
    let trace = cli_trace(args);
    let metrics = cli_metrics(args);
    if sigterm_wait && kill_after.is_none() {
        eprintln!("--sigterm-wait requires --kill-after-epochs <k>");
        return ExitCode::from(2);
    }

    let inp = inputs(n);
    let serve = ServeConfig {
        // Run mode admits the whole session list upfront; the bound is not
        // under test here (the soak covers backpressure).
        queue_bound: sessions.max(1),
        epoch_batch: batch,
        ..ServeConfig::default()
    };
    let engine = EngineConfig::caqe();

    let server = if restore {
        let Some(path) = snapshot.as_deref() else {
            eprintln!("--restore requires --snapshot <path>");
            return ExitCode::from(2);
        };
        match CaqeServer::restore(
            inp.tables,
            inp.catalog.clone(),
            inp.cfg.exec(),
            engine,
            serve,
            path,
        ) {
            Ok((server, snap)) => {
                println!(
                    "restored snapshot v{}: {} completed, {} queued, next session {}",
                    snap.version,
                    snap.completed.len(),
                    snap.queued.len(),
                    snap.next_session
                );
                server
            }
            Err(e) => {
                eprintln!("restore failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let server = CaqeServer::new(
            inp.tables,
            inp.catalog.clone(),
            inp.cfg.exec(),
            engine,
            serve,
        );
        for i in 0..sessions {
            match server.submit(mix_request(inp.catalog.len(), 0, i)) {
                SubmitResponse::Accepted { .. } => {}
                SubmitResponse::Rejected { reason, .. } => {
                    eprintln!("upfront submission {i} rejected: {reason}");
                    return ExitCode::from(2);
                }
            }
        }
        server
    };

    if let Some(k) = kill_after {
        let Some(path) = snapshot.as_deref() else {
            eprintln!("--kill-after-epochs requires --snapshot <path>");
            return ExitCode::from(2);
        };
        if sigterm_wait {
            sigterm::install();
        }
        for _ in 0..k {
            if server.run_epoch().is_none() {
                break;
            }
        }
        let when = match sigterm_wait {
            true => {
                while !sigterm::received() {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                "SIGTERM".to_string()
            }
            false => format!("{k} epoch(s)"),
        };
        match server.shutdown_to_snapshot(path) {
            Ok(snap) => println!(
                "snapshot after {when}: {} completed, {} queued",
                snap.completed.len(),
                snap.queued.len()
            ),
            Err(e) => {
                eprintln!("snapshot failed: {e}");
                return ExitCode::from(2);
            }
        }
        write_artifacts(&server, trace.as_deref(), metrics.as_deref());
        return ExitCode::SUCCESS;
    }

    let reports = server.drain();
    let failed = reports.iter().filter(|r| !r.succeeded).count();
    println!(
        "drained {} epoch(s) ({failed} failed), mean satisfaction {:.3}",
        reports.len(),
        server.mean_satisfaction()
    );
    if let Some(path) = &digest_out {
        write_digests(path, &server.session_digests());
    }
    write_artifacts(&server, trace.as_deref(), metrics.as_deref());
    if failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn soak_mode(args: &[String]) -> ExitCode {
    let n: usize = cli_parse(args, "--n", 600);
    let clients: usize = cli_parse(args, "--clients", 4);
    let submits: usize = cli_parse(args, "--submits", 6);
    let bound: usize = cli_parse(args, "--bound", 6);
    let batch: usize = cli_parse(args, "--batch", 3);
    let out = cli_arg(args, "--out");
    let faults = {
        let plan = cli_faults(args);
        if plan.is_active() {
            plan
        } else {
            FaultPlan::seeded(7)
                .with_panics(0.15)
                .with_spikes(0.10, 8.0)
                .with_estimator_noise(0.20, 4.0)
                .with_corruption(0.02)
        }
    };
    caqe_faults::silence_injected_panics();

    let inp = inputs(n);
    let clean_exec = inp.cfg.exec();
    let chaos_exec = inp
        .cfg
        .exec()
        .with_faults(faults)
        .with_validation(ValidationPolicy::Quarantine);
    let soak = SoakConfig {
        clients,
        submits_per_client: submits,
        serve: ServeConfig {
            queue_bound: bound,
            epoch_batch: batch,
            ..ServeConfig::default()
        },
    };
    let report = run_soak(
        &inp.tables,
        &inp.catalog,
        &clean_exec,
        &chaos_exec,
        &EngineConfig::caqe(),
        &soak,
    );
    println!(
        "soak: {} submitted, {} accepted, {} rejected, {} completed, \
         {} failed, {} expired, {} unresolved",
        report.submitted,
        report.accepted,
        report.rejected,
        report.completed,
        report.failed,
        report.expired,
        report.unresolved
    );
    println!(
        "      peak depth {}/{}  epochs {}  retention {:.3} \
         (chaos {:.3} / clean {:.3})  wall {:.2}s",
        report.peak_depth,
        report.queue_bound,
        report.epochs,
        report.retention,
        report.mean_satisfaction,
        report.clean_mean_satisfaction,
        report.wall_seconds
    );
    if let Some(path) = out {
        let mut w = ObjectWriter::new();
        w.string("bench", "serve_soak")
            .uint("n", n as u64)
            .uint("clients", clients as u64)
            .uint("submits_per_client", submits as u64)
            .string("faults", &faults.to_spec())
            .uint("submitted", report.submitted)
            .uint("accepted", report.accepted)
            .uint("rejected", report.rejected)
            .uint("completed", report.completed)
            .uint("failed", report.failed)
            .uint("expired", report.expired)
            .uint("unresolved", report.unresolved)
            .uint("queue_depth_peak", report.peak_depth)
            .uint("queue_bound", report.queue_bound)
            .uint("epochs", report.epochs)
            .number("mean_satisfaction", report.mean_satisfaction)
            .number("clean_mean_satisfaction", report.clean_mean_satisfaction)
            .number("soak_sat_retention", report.retention)
            .number("wall_seconds", report.wall_seconds);
        if let Err(e) = std::fs::write(&path, format!("{}\n", w.finish())) {
            eprintln!("cannot write soak report {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // Liveness and backpressure are hard gates in every mode, not just in
    // the test suite: an unresolved session or a bound violation fails CI.
    if report.unresolved > 0 {
        eprintln!(
            "LIVENESS VIOLATION: {} session(s) unresolved",
            report.unresolved
        );
        return ExitCode::FAILURE;
    }
    if report.peak_depth > report.queue_bound {
        eprintln!(
            "BOUND VIOLATION: peak depth {} exceeds bound {}",
            report.peak_depth, report.queue_bound
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (args, _) = cli_args(
        "--mode --n --sessions --batch --kill-after-epochs --snapshot --digest-out --trace \
         --metrics --clients --submits --bound --out --faults",
        "--restore --sigterm-wait",
        "",
    );
    match cli_arg(&args, "--mode").as_deref().unwrap_or("soak") {
        "soak" => soak_mode(&args),
        "run" => run_mode(&args),
        other => {
            eprintln!("unknown --mode `{other}` (expected soak|run)");
            ExitCode::from(2)
        }
    }
}
