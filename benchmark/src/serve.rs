//! The `serve_restart` driver: a closed loop through `caqe-serve` with a
//! kill-and-restore in the middle.
//!
//! **Closed loop, 4 logical clients, one generator thread.** Each round the
//! generator submits one `mix_request` per client, drives `run_epoch` (the
//! batch of four is one deterministic engine run) and collects the four
//! results before it submits the next round — a slow server receives less
//! load, never a growing queue. A pass is 40 rounds, 160 sessions.

use crate::gate::{sorted, Tally};
use crate::spans::SpanLog;
use crate::workloads::Inputs;
use caqe_core::{
    EngineConfig, EventStream, PreparedPlan, QueryOutcome, QuerySpec, SessionEvent, Workload,
};
use caqe_serve::{
    load_snapshot, mix_request, CaqeServer, ServeConfig, SessionState, SubmitResponse,
};
use caqe_trace::NoopSink;
use caqe_types::{EngineError, Fnv1a};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const CLIENTS: usize = 4;
pub const ROUNDS: usize = 40;
/// The round whose submissions are still queued when the server is killed.
pub const RESTART_ROUND: usize = 20;

pub fn serve_config(keep_epoch_traces: bool) -> ServeConfig {
    ServeConfig {
        queue_bound: 8,
        epoch_batch: CLIENTS,
        admit_spacing_ticks: 64,
        keep_epoch_traces,
        ..ServeConfig::default()
    }
}

/// Round `round` as the server's epoch runs it: the first session seeds the
/// workload, the rest are admissions `admit_spacing_ticks` apart. The
/// engine-layer metrics replay round 0 from outside the server; the output
/// gate replays every round.
pub fn epoch(catalog: &[QuerySpec], round: usize) -> (Workload, EventStream) {
    let cfg = serve_config(false);
    let mut specs = (0..CLIENTS).map(|c| {
        let req = mix_request(catalog.len(), c, round);
        let mut spec = catalog[req.catalog].clone();
        spec.priority = req.priority;
        spec.contract = cfg.negotiation.negotiate(&req.contract).granted;
        spec
    });
    let first: Vec<QuerySpec> = specs.by_ref().take(1).collect();
    let admits = specs
        .enumerate()
        .map(|(i, spec)| SessionEvent::Admit {
            at: (i as u64 + 1) * cfg.admit_spacing_ticks,
            spec,
        })
        .collect();
    (Workload::new(first), EventStream::new(admits))
}

/// What every server of a run is built with and every pass is checked
/// against.
pub struct Prepared {
    /// The shared plan for the workload's catalog, as the server builds it.
    pub plan: PreparedPlan,
    /// The digest each session of a pass must report, in submission order.
    /// Empty until [`Prepared::gate`] has run.
    pub expected: Vec<u64>,
}

impl Prepared {
    pub fn new(inp: &Inputs) -> Prepared {
        Prepared {
            plan: cold_server(inp, serve_config(false)).build_plan(),
            expected: Vec::new(),
        }
    }

    /// The output gate: every round's epoch run directly on the engine.
    /// Each session's result set must equal the JFSL oracle's for its
    /// catalog entry (one check each), and its digest, computed as the
    /// server computes it, is what the session must report in every pass —
    /// so a served result set of the right size but the wrong content fails.
    pub fn gate(&mut self, inp: &Inputs, tally: &mut Tally) -> Result<(), EngineError> {
        let Some(oracle) = &inp.oracle else {
            return Ok(());
        };
        for round in 0..ROUNDS {
            let (workload, events) = epoch(&inp.pool, round);
            let plan = Some(&self.plan);
            let outcome = inp.run(&workload, &events, &inp.exec, plan, &mut NoopSink)?;
            for (c, got) in outcome.per_query.iter().enumerate() {
                let catalog = mix_request(inp.pool.len(), c, round).catalog;
                let want = &oracle.per_query[catalog].results;
                tally.check(sorted(&got.results) == sorted(want), || {
                    format!(
                        "round {round} client {c} (catalog {catalog}): {} results, JFSL oracle {}",
                        got.results.len(),
                        want.len()
                    )
                });
                self.expected.push(query_digest(got));
            }
        }
        Ok(())
    }
}

/// A session's digest as `caqe-serve` computes it (FNV-1a over emissions,
/// results, P-score and satisfaction).
fn query_digest(q: &QueryOutcome) -> u64 {
    let mut h = Fnv1a::new();
    h.usize(q.emissions.len());
    for (ts, util) in &q.emissions {
        h.f64(*ts).f64(*util);
    }
    for (rid, tid) in &q.results {
        h.u64(*rid).u64(*tid);
    }
    h.f64(q.p_score).f64(q.satisfaction);
    h.finish()
}

/// A server over the workload's tables and catalog, warm-started from `plan`.
pub fn new_server(inp: &Inputs, plan: &PreparedPlan, cfg: ServeConfig) -> CaqeServer {
    cold_server(inp, cfg).with_plan(plan.clone())
}

/// A server with no plan installed (every epoch builds its groups cold).
fn cold_server(inp: &Inputs, cfg: ServeConfig) -> CaqeServer {
    CaqeServer::new(
        (inp.r.clone(), inp.t.clone()),
        inp.pool.clone(),
        inp.exec,
        EngineConfig::caqe(),
        cfg,
    )
}

/// Where a pass snapshots to and how often it restores from there.
pub struct Restart<'a> {
    pub dir: &'a Path,
    /// `restore_with_plan` calls timed at the restart (the last one serves).
    pub restores: usize,
}

/// What one pass measured. Timings are per sample, in the unit named.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub sessions: u64,
    /// Submit → `Done` observed by the generator, per session.
    pub latency_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub epoch_ms: Vec<f64>,
    /// `(session id, digest)` of every completed session, id order.
    pub digests: Vec<(u64, u64)>,
    pub satisfaction_mean: f64,
    pub epochs: u64,
    pub queue_peak: usize,
    /// Engine trace events kept by the server (`keep_epoch_traces`).
    pub trace_events: usize,
    pub snapshot_write_ms: f64,
    pub snapshot_bytes: u64,
    pub plan_save_ms: f64,
    pub plan_bytes: u64,
    /// `restore_with_plan` from the files on disk until ready to accept.
    pub recovery_ms: Vec<f64>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Files a restart writes; removed when the pass ends.
struct RestartFiles {
    snap: PathBuf,
    plan: PathBuf,
}

impl Drop for RestartFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.snap);
        let _ = std::fs::remove_file(&self.plan);
    }
}

/// Runs one pass. Every session is one attempted operation in `tally`:
/// rejected, failed, deadline-missed or reporting another digest than the
/// gated epoch replay's (`prepared.expected`) fails it. With
/// `log`, each session leaves `session → {serve.submit, serve.queue_wait,
/// serve.epoch}` and the restart leaves `restart → {…}`.
pub fn run_pass(
    inp: &Inputs,
    prepared: &Prepared,
    cfg: ServeConfig,
    restart: Option<Restart<'_>>,
    tally: &mut Tally,
    mut log: Option<&mut SpanLog>,
) -> Pass {
    let mut pass = Pass::default();
    let mut server = new_server(inp, &prepared.plan, cfg);
    let base_ns = log.as_deref().map_or(0, SpanLog::now_ns);
    let started = Instant::now();
    let at_ns = |t: Instant| base_ns + t.duration_since(started).as_nanos() as u64;

    for round in 0..ROUNDS {
        // Submit the round: one request per client.
        let mut live: Vec<(u64, usize, Instant, Instant)> = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let req = mix_request(inp.pool.len(), c, round);
            let t0 = Instant::now();
            let resp = server.submit(req);
            let t1 = Instant::now();
            pass.sessions += 1;
            pass.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            match resp {
                SubmitResponse::Accepted { session, .. } => {
                    live.push((session, round * CLIENTS + c, t0, t1));
                }
                SubmitResponse::Rejected { session, reason } => {
                    tally.check(false, || format!("session {session} rejected: {reason}"));
                }
            }
        }

        // Kill and restore with this round still queued.
        if let Some(rs) = restart.as_ref().filter(|_| round == RESTART_ROUND) {
            let files = RestartFiles {
                snap: rs.dir.join(format!("serve.{}.snap", std::process::id())),
                plan: rs
                    .dir
                    .join(format!("serve.{}.caqeplan", std::process::id())),
            };
            let r0 = Instant::now();
            let written = server.shutdown_to_snapshot(&files.snap);
            pass.snapshot_write_ms = ms(r0);
            tally.check(written.is_ok(), || {
                format!("snapshot write failed: {:?}", written.as_ref().err())
            });
            let r1 = Instant::now();
            let saved = server.write_plan(&files.plan);
            pass.plan_save_ms = ms(r1);
            tally.check(saved.is_ok(), || {
                format!("plan save failed: {:?}", saved.as_ref().err())
            });
            pass.snapshot_bytes = file_len(&files.snap);
            pass.plan_bytes = file_len(&files.plan);
            let r2 = Instant::now();
            for _ in 0..rs.restores.max(1) {
                // A restarted process has its tables; copying them here is
                // the benchmark's cost, not the restore's.
                let (tables, catalog) = ((inp.r.clone(), inp.t.clone()), inp.pool.clone());
                let t0 = Instant::now();
                let restored = CaqeServer::restore_with_plan(
                    tables,
                    catalog,
                    inp.exec,
                    EngineConfig::caqe(),
                    cfg,
                    &files.snap,
                    &files.plan,
                );
                pass.recovery_ms.push(ms(t0));
                match restored {
                    Ok((s, _, _)) => server = s,
                    Err(e) => tally.check(false, || format!("restore failed: {e}")),
                }
            }
            if let Some(log) = log.as_deref_mut() {
                let span = log.push("restart", at_ns(r0), at_ns(Instant::now()), None, 0);
                log.push("serve.snapshot_write", at_ns(r0), at_ns(r1), Some(span), 0);
                log.push("plan.save", at_ns(r1), at_ns(r2), Some(span), 0);
                log.push(
                    "serve.restore_with_plan",
                    at_ns(r2),
                    at_ns(Instant::now()),
                    Some(span),
                    0,
                );
            }
        }

        // One epoch serves the whole round.
        let e0 = Instant::now();
        let report = server.run_epoch();
        let e1 = Instant::now();
        pass.epoch_ms.push((e1 - e0).as_secs_f64() * 1e3);
        tally.check(report.as_ref().is_some_and(|r| r.succeeded), || {
            format!("round {round}: epoch did not succeed: {report:?}")
        });

        // Collect.
        for (session, nth, t0, t1) in live {
            let state = server.status(session);
            let done = Instant::now();
            let want = prepared.expected.get(nth).copied();
            let ok = match &state {
                Some(SessionState::Done(res)) => {
                    !res.deadline_missed && want.unwrap_or(res.digest) == res.digest
                }
                _ => false,
            };
            tally.check(ok, || {
                format!("session {session} (digest {want:?} due): {state:?}")
            });
            pass.latency_ms.push((done - t0).as_secs_f64() * 1e3);
            pass.queue_wait_ms.push((e0 - t1).as_secs_f64() * 1e3);
            if let Some(log) = log.as_deref_mut() {
                let span = log.push("session", at_ns(t0), at_ns(done), None, session);
                log.push("serve.submit", at_ns(t0), at_ns(t1), Some(span), session);
                log.push(
                    "serve.queue_wait",
                    at_ns(t1),
                    at_ns(e0),
                    Some(span),
                    session,
                );
                log.push("serve.epoch", at_ns(e0), at_ns(e1), Some(span), session);
            }
        }
    }

    pass.wall_s = started.elapsed().as_secs_f64();
    pass.digests = server.session_digests();
    pass.satisfaction_mean = server.mean_satisfaction();
    pass.epochs = server.epochs();
    pass.queue_peak = server.queue_peak();
    pass.trace_events = server
        .take_epoch_traces()
        .iter()
        .map(|(_, evs)| evs.len())
        .sum();
    pass
}

/// Replayed restore-path calls on the files a restart wrote: parse the
/// snapshot alone, load the plan alone, restore without a plan. Returns
/// `(snapshot_load_ms, plan_load_ms, restore_ms)`; each write and each load
/// is one attempted operation in `tally`.
pub fn replay_restore(
    inp: &Inputs,
    plan: &PreparedPlan,
    dir: &Path,
    tally: &mut Tally,
    log: &mut SpanLog,
) -> [f64; 3] {
    let files = RestartFiles {
        snap: dir.join(format!("serve.replay.{}.snap", std::process::id())),
        plan: dir.join(format!("serve.replay.{}.caqeplan", std::process::id())),
    };
    let cfg = serve_config(false);
    let server = new_server(inp, plan, cfg);
    for c in 0..CLIENTS {
        server.submit(mix_request(inp.pool.len(), c, 0));
    }
    let written = server.shutdown_to_snapshot(&files.snap).map(|_| ());
    tally.check(written.is_ok(), || {
        format!("replay: snapshot write failed: {written:?}")
    });
    let saved = server.write_plan(&files.plan);
    tally.check(saved.is_ok(), || {
        format!("replay: plan save failed: {saved:?}")
    });
    let (loaded, snap_s) = log.time("replay:serve.snapshot_load", None, 0, || {
        load_snapshot(&files.snap).map(|_| ())
    });
    tally.check(loaded.is_ok(), || {
        format!("replay: snapshot load failed: {loaded:?}")
    });
    let (loaded, plan_s) = log.time("replay:plan.load", None, 0, || {
        PreparedPlan::load(&files.plan, &inp.r, &inp.t, &inp.exec).map(|_| ())
    });
    tally.check(loaded.is_ok(), || {
        format!("replay: plan load failed: {loaded:?}")
    });
    let (tables, catalog) = ((inp.r.clone(), inp.t.clone()), inp.pool.clone());
    let (restored, restore_s) = log.time("replay:serve.restore", None, 0, || {
        CaqeServer::restore(
            tables,
            catalog,
            inp.exec,
            EngineConfig::caqe(),
            cfg,
            &files.snap,
        )
        .map(|_| ())
    });
    tally.check(restored.is_ok(), || {
        format!("replay: restore failed: {restored:?}")
    });
    [snap_s * 1e3, plan_s * 1e3, restore_s * 1e3]
}
