//! The session front door and the wall-clock epoch driver.
//!
//! # Core/driver split
//!
//! The server never touches the engine's virtual clock. Queued submissions
//! are drained in fixed-size FIFO batches ("epochs"); each epoch is one
//! deterministic [`RunRequest`] run over a workload
//! built from the batch — the first session seeds the initial workload,
//! the rest arrive through the engine's own `EventStream` admission
//! machinery. Given the same submission order, the epoch partition and
//! therefore every per-session outcome is bit-identical, whether or not
//! the server was killed and restored in between — that is the whole
//! restore-equivalence argument, and `tests/serve_robustness.rs` checks it
//! digest-by-digest.
//!
//! # Robustness
//!
//! * Backpressure: the queue is a [`BoundedQueue`]; overflow and invalid
//!   submissions get a typed [`RejectReason`] and an `AdmissionReject`
//!   trace event.
//! * Watchdogs: queued sessions carry wall-clock deadlines; stale ones
//!   expire before each epoch instead of wasting engine time.
//! * Isolation: every epoch runs once under `catch_unwind`. An engine error
//!   or a caught panic becomes a typed [`SessionFailure`] for each session
//!   of the batch; none escapes `run_epoch`. A retry would not help: the
//!   epoch is a pure function of its batch, and the engine already
//!   recovers region panics in virtual time (DESIGN.md §13).

use crate::negotiate::{negotiate, Negotiation};
use crate::queue::{BoundedQueue, RejectReason};
use crate::snapshot::{
    load_snapshot, write_snapshot, CompletedRecord, ContractSpec, SessionRecord, Snapshot,
    SnapshotError, SNAPSHOT_VERSION,
};
use caqe_contract::Contract;
use caqe_core::{
    EngineConfig, EventStream, ExecConfig, PlanError, PreparedPlan, QueryOutcome, QuerySpec,
    RunOutcome, RunRequest, SessionEvent, Workload,
};
use caqe_data::Table;
use caqe_obs::{names, MetricsRegistry, ObsCollector, ObsConfig};
use caqe_trace::{NoopSink, RecordingSink, TraceEvent};
use caqe_types::{EngineError, Fnv1a};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Strategy name stamped into epoch traces.
const STRATEGY: &str = "CAQE-SERVE";

/// Wall-clock deadline of a submission that does not carry one, and of
/// every session a restore re-queues, in milliseconds (5 minutes).
const DEFAULT_DEADLINE_MS: u64 = 300_000;

/// Serving-layer knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue bound; submissions past it are rejected with
    /// [`RejectReason::QueueFull`].
    pub queue_bound: usize,
    /// Maximum sessions drained into one epoch (one deterministic engine
    /// run). The FIFO quantization this imposes is what makes the restore
    /// proof work — do not vary it across a snapshot boundary.
    pub epoch_batch: usize,
    /// Contract negotiation; it holds no setting ([`Negotiation`]).
    pub negotiation: Negotiation,
    /// Virtual-tick spacing between in-epoch admissions (0 admits the
    /// whole batch at tick 0).
    pub admit_spacing_ticks: u64,
    /// Record per-epoch engine traces (costs memory; for tests and trace
    /// dumps).
    pub keep_epoch_traces: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_bound: 8,
            epoch_batch: 4,
            negotiation: Negotiation,
            admit_spacing_ticks: 0,
            keep_epoch_traces: false,
        }
    }
}

/// One client submission.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Index into the server's prepared-statement catalog.
    pub catalog: usize,
    /// Query priority `pr_i ∈ [0, 1]`.
    pub priority: f64,
    /// The contract the client asks for (negotiation may relax it).
    pub contract: Contract,
    /// Wall-clock deadline override in milliseconds (5 minutes when
    /// `None`).
    pub deadline_ms: Option<u64>,
}

/// What a completed session looks like to `attach`/`status`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Final satisfaction `v(Q_i)`.
    pub satisfaction: f64,
    /// Results emitted.
    pub results: u64,
    /// Deterministic digest of the session's emissions + results.
    pub digest: u64,
    /// Whether negotiation changed the requested contract.
    pub contract_adjusted: bool,
    /// Whether the epoch finished after the session's wall-clock deadline.
    pub deadline_missed: bool,
}

/// Typed terminal failure — the driver's promise that no panic and no raw
/// error string ever reaches a client.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFailure {
    /// The engine returned an error.
    Engine {
        /// The underlying typed error.
        error: EngineError,
    },
    /// The epoch panicked; the payload was caught and stringified.
    Panicked {
        /// Panic payload rendering.
        message: String,
    },
}

impl fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFailure::Engine { error } => write!(f, "engine error: {error}"),
            SessionFailure::Panicked { message } => write!(f, "engine panicked: {message}"),
        }
    }
}

/// Lifecycle of one session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Waiting in the admission queue at `position` (0 = next to run).
    Queued {
        /// Distance from the queue front.
        position: usize,
    },
    /// Part of the epoch currently executing.
    Running,
    /// Completed.
    Done(SessionResult),
    /// Terminally failed.
    Failed(SessionFailure),
    /// Cancelled while queued.
    Cancelled,
    /// Expired by the wall-clock deadline watchdog while queued.
    DeadlineExpired,
}

impl SessionState {
    /// Whether the session will never change state again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, SessionState::Queued { .. } | SessionState::Running)
    }
}

/// Reply to [`CaqeServer::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitResponse {
    /// Admitted at `position` in the queue.
    Accepted {
        /// Session handle for `attach`/`status`/`cancel`.
        session: u64,
        /// Queue position at admission time.
        position: usize,
    },
    /// Refused, with the reason — explicit backpressure, never silence.
    Rejected {
        /// Session id burned on the rejected submission (trace key).
        session: u64,
        /// Why.
        reason: RejectReason,
    },
}

/// Summary of one completed epoch (one deterministic engine run).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// 0-based epoch ordinal.
    pub epoch: u64,
    /// Sessions served, batch order (= engine query-id order).
    pub sessions: Vec<u64>,
    /// [`RunOutcome::digest`] of the epoch, when it succeeded.
    pub outcome_digest: Option<u64>,
    /// Whether every session in the batch completed.
    pub succeeded: bool,
}

struct QueuedSession {
    id: u64,
    catalog: usize,
    priority: f64,
    contract: Contract,
    adjusted: bool,
    deadline: Instant,
}

struct Inner {
    queue: BoundedQueue<QueuedSession>,
    states: BTreeMap<u64, SessionState>,
    completed: Vec<CompletedRecord>,
    next_session: u64,
    epochs: u64,
    server_tick: u64,
    server_events: Vec<TraceEvent>,
    epoch_traces: Vec<(u64, Vec<TraceEvent>)>,
    reg: MetricsRegistry,
    sat_sum: f64,
    sat_count: u64,
    shutting_down: bool,
    running_epoch: bool,
}

impl Inner {
    fn mean_satisfaction(&self) -> f64 {
        if self.sat_count == 0 {
            1.0
        } else {
            self.sat_sum / self.sat_count as f64
        }
    }

    fn push_event(&mut self, make: impl FnOnce(u64) -> TraceEvent) {
        let ev = make(self.server_tick);
        self.server_tick += 1;
        self.server_events.push(ev);
    }

    fn label(state: &SessionState) -> &'static str {
        match state {
            SessionState::Done(_) => "done",
            SessionState::Failed(_) => "failed",
            SessionState::Cancelled => "cancelled",
            SessionState::DeadlineExpired => "expired",
            SessionState::Queued { .. } | SessionState::Running => "live",
        }
    }

    fn finish(&mut self, id: u64, state: SessionState) {
        self.reg.inc(
            &caqe_obs::key(names::SERVE_SESSIONS, &[("state", Inner::label(&state))]),
            1,
        );
        self.states.insert(id, state);
    }

    fn depth_gauges(&mut self) {
        self.reg
            .set_gauge(names::SERVE_QUEUE_DEPTH, self.queue.len() as f64);
        self.reg
            .set_gauge(names::SERVE_QUEUE_DEPTH_PEAK, self.queue.peak() as f64);
    }
}

/// Where the shared plan a restored server runs on came from — the
/// warm-start observability hook: callers learn whether the persisted
/// plan was consumed or why it was discarded.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanProvenance {
    /// The plan file passed every integrity check and the plan it names
    /// was installed.
    Warm,
    /// The plan file was rejected (typed reason) and the server built the
    /// plan from its catalog. Never a partial apply: rejection discards
    /// the whole file.
    Rebuilt(PlanError),
}

/// The wall-clock serving front door around the deterministic core.
pub struct CaqeServer {
    tables: (Table, Table),
    catalog: Vec<QuerySpec>,
    exec: ExecConfig,
    engine: EngineConfig,
    cfg: ServeConfig,
    plan: Option<PreparedPlan>,
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `run` once under `catch_unwind`: a returned [`EngineError`] becomes
/// [`SessionFailure::Engine`], a caught panic [`SessionFailure::Panicked`].
fn contained<T>(run: impl FnOnce() -> Result<T, EngineError>) -> Result<T, SessionFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(error)) => Err(SessionFailure::Engine { error }),
        Err(payload) => Err(SessionFailure::Panicked {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Per-session digest, field-compatible with the per-query slice of
/// [`RunOutcome::digest`].
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

impl CaqeServer {
    /// A fresh server over `tables`, serving the prepared-statement
    /// `catalog` with the engine configuration given.
    ///
    /// # Panics
    /// Panics if the catalog is empty (there would be nothing to serve) or
    /// an entry fails [`QuerySpec::validate`] (no epoch could run it).
    pub fn new(
        tables: (Table, Table),
        catalog: Vec<QuerySpec>,
        exec: ExecConfig,
        engine: EngineConfig,
        cfg: ServeConfig,
    ) -> Self {
        assert!(!catalog.is_empty(), "catalog must contain a query spec");
        for spec in &catalog {
            spec.validate();
        }
        CaqeServer {
            tables,
            catalog,
            exec,
            engine,
            plan: None,
            inner: Mutex::new(Inner {
                queue: BoundedQueue::new(cfg.queue_bound),
                states: BTreeMap::new(),
                completed: Vec::new(),
                next_session: 0,
                epochs: 0,
                server_tick: 0,
                server_events: Vec::new(),
                epoch_traces: Vec::new(),
                reg: MetricsRegistry::new(),
                sat_sum: 0.0,
                sat_count: 0,
                shutting_down: false,
                running_epoch: false,
            }),
            cfg,
            cv: Condvar::new(),
        }
    }

    /// Restores a server from a snapshot written by
    /// [`shutdown_to_snapshot`](CaqeServer::shutdown_to_snapshot).
    ///
    /// Queued sessions resume at their captured queue positions with their
    /// negotiated contracts; completed sessions keep answering `status`
    /// with their snapshot observables. Queued sessions get a fresh
    /// default deadline (wall clocks do not survive restarts). A snapshot
    /// failing any integrity check is never partially applied.
    pub fn restore(
        tables: (Table, Table),
        catalog: Vec<QuerySpec>,
        exec: ExecConfig,
        engine: EngineConfig,
        cfg: ServeConfig,
        path: &Path,
    ) -> Result<(CaqeServer, Snapshot), SnapshotError> {
        let snap = load_snapshot(path)?;
        for s in &snap.queued {
            if s.catalog >= catalog.len() {
                return Err(SnapshotError::Corrupt {
                    reason: format!(
                        "queued session {} references catalog entry {} of {}",
                        s.id,
                        s.catalog,
                        catalog.len()
                    ),
                });
            }
        }
        let server = CaqeServer::new(tables, catalog, exec, engine, cfg);
        {
            let mut g = server.lock();
            g.next_session = snap.next_session;
            g.epochs = snap.epochs;
            for c in &snap.completed {
                g.completed.push(*c);
                g.sat_sum += c.satisfaction;
                g.sat_count += 1;
                g.states.insert(
                    c.id,
                    SessionState::Done(SessionResult {
                        satisfaction: c.satisfaction,
                        results: c.results,
                        digest: c.digest,
                        contract_adjusted: false,
                        deadline_missed: false,
                    }),
                );
            }
            let deadline = Instant::now() + Duration::from_millis(DEFAULT_DEADLINE_MS);
            for (pos, s) in snap.queued.iter().enumerate() {
                let qs = QueuedSession {
                    id: s.id,
                    catalog: s.catalog,
                    priority: s.priority,
                    contract: s.contract.to_contract(),
                    adjusted: false,
                    deadline,
                };
                if g.queue.try_push(qs).is_err() {
                    return Err(SnapshotError::Corrupt {
                        reason: format!(
                            "snapshot queue ({} sessions) exceeds the configured bound {}",
                            snap.queued.len(),
                            cfg.queue_bound
                        ),
                    });
                }
                g.states
                    .insert(s.id, SessionState::Queued { position: pos });
            }
            let queued = snap.queued.len() as u32;
            let completed = snap.completed.len() as u32;
            g.push_event(|tick| TraceEvent::ServerRestore {
                tick,
                snapshot_version: snap.version,
                queued,
                completed,
            });
            let mean = g.mean_satisfaction();
            g.reg.set_gauge(names::SERVE_MEAN_SATISFACTION, mean);
            g.depth_gauges();
        }
        Ok((server, snap))
    }

    /// Restores a server from `snap_path` (exactly like
    /// [`restore`](CaqeServer::restore)) and installs the plan the file at
    /// `plan_path` names: if the file passes every integrity check against
    /// the given tables and config, the plan is rebuilt from its keys
    /// ([`PreparedPlan::load`]) and the first epoch finds every group
    /// memoized; on any typed [`PlanError`] — corrupt, stale, another format
    /// version, I/O — the plan is built from the catalog instead and the
    /// error is reported in the returned [`PlanProvenance`]. Either way the
    /// server serves: plan trouble never blocks a restore, and a rejected
    /// plan is never partially applied.
    #[allow(clippy::too_many_arguments)] // restore() plus the plan path
    pub fn restore_with_plan(
        tables: (Table, Table),
        catalog: Vec<QuerySpec>,
        exec: ExecConfig,
        engine: EngineConfig,
        cfg: ServeConfig,
        snap_path: &Path,
        plan_path: &Path,
    ) -> Result<(CaqeServer, Snapshot, PlanProvenance), SnapshotError> {
        let (mut server, snap) =
            CaqeServer::restore(tables, catalog, exec, engine, cfg, snap_path)?;
        let provenance =
            match PreparedPlan::load(plan_path, &server.tables.0, &server.tables.1, &server.exec) {
                Ok(plan) => {
                    server.plan = Some(plan);
                    PlanProvenance::Warm
                }
                Err(e) => {
                    server.plan = Some(server.build_plan());
                    PlanProvenance::Rebuilt(e)
                }
            };
        Ok((server, snap, provenance))
    }

    /// Builds the shared plan for every catalog entry: partitionings plus
    /// one group memo per `(catalog entry, session mode)` — epochs run a
    /// singleton initial workload with the rest of the batch admitted
    /// through the event stream, so both the single-session
    /// (`keep_empty = false`) and session-mode (`keep_empty = true`)
    /// variants are memoized. Priorities and contracts do not shape the
    /// plan, so the memos cover every future submission mix.
    pub fn build_plan(&self) -> PreparedPlan {
        let mut plan = PreparedPlan::build(&self.tables.0, &self.tables.1, &self.exec);
        for spec in &self.catalog {
            let w = Workload::new(vec![spec.clone()]);
            for keep_empty in [false, true] {
                plan.memoize(
                    &w,
                    &self.exec,
                    self.engine.coarse_pruning,
                    self.engine.needs_dependency_graph(),
                    keep_empty,
                );
            }
        }
        plan
    }

    /// Installs a prepared plan (builder form); epochs consult it through
    /// the engine's warm-start gate, so an ill-matched plan is ignored,
    /// never wrong.
    #[must_use]
    pub fn with_plan(mut self, plan: PreparedPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Whether a prepared plan is installed.
    pub fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// Persists the installed plan (building it first if absent) to
    /// `path` with the crash-safe snapshot write discipline.
    pub fn write_plan(&self, path: &Path) -> Result<(), PlanError> {
        match &self.plan {
            Some(plan) => plan.save(path),
            None => self.build_plan().save(path),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoning panic can only have come from a caller thread dying
        // outside the engine (engine panics are caught); the inner state
        // is guarded by short critical sections and stays consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Submits a query session. Never blocks on the engine: the reply is
    /// immediate admission (with a session handle) or typed backpressure.
    pub fn submit(&self, req: SubmitRequest) -> SubmitResponse {
        let mut g = self.lock();
        let session = g.next_session;
        g.next_session += 1;
        g.reg.inc(names::SERVE_SUBMITS, 1);

        let reason = if g.shutting_down {
            Some(RejectReason::Invalid {
                reason: "server is shutting down".to_string(),
            })
        } else if req.catalog >= self.catalog.len() {
            Some(RejectReason::Invalid {
                reason: format!(
                    "catalog index {} out of range ({} entries)",
                    req.catalog,
                    self.catalog.len()
                ),
            })
        } else if !(0.0..=1.0).contains(&req.priority) {
            Some(RejectReason::Invalid {
                reason: format!("priority {} outside [0, 1]", req.priority),
            })
        } else {
            None
        };
        if let Some(reason) = reason {
            return self.reject(&mut g, session, reason);
        }

        let negotiated = negotiate(&req.contract);
        let deadline_ms = req.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS);
        let qs = QueuedSession {
            id: session,
            catalog: req.catalog,
            priority: req.priority,
            contract: negotiated.granted,
            adjusted: negotiated.adjusted,
            deadline: Instant::now() + Duration::from_millis(deadline_ms),
        };
        match g.queue.try_push(qs) {
            Ok(()) => {
                let position = g.queue.len() - 1;
                g.states.insert(session, SessionState::Queued { position });
                g.depth_gauges();
                self.cv.notify_all();
                SubmitResponse::Accepted { session, position }
            }
            Err(_) => {
                let reason = RejectReason::QueueFull {
                    depth: g.queue.len() as u32,
                    bound: g.queue.bound() as u32,
                };
                self.reject(&mut g, session, reason)
            }
        }
    }

    fn reject(
        &self,
        g: &mut MutexGuard<'_, Inner>,
        session: u64,
        reason: RejectReason,
    ) -> SubmitResponse {
        let depth = g.queue.len() as u32;
        let bound = g.queue.bound() as u32;
        let kind = reason.as_str();
        g.push_event(|tick| TraceEvent::AdmissionReject {
            tick,
            session,
            reason: kind,
            depth,
            bound,
        });
        SubmitResponse::Rejected { session, reason }
    }

    /// Current state of a session, with a live queue position.
    pub fn status(&self, session: u64) -> Option<SessionState> {
        let g = self.lock();
        let state = g.states.get(&session)?.clone();
        if matches!(state, SessionState::Queued { .. }) {
            let position = g.queue.iter().position(|qs| qs.id == session)?;
            return Some(SessionState::Queued { position });
        }
        Some(state)
    }

    /// Blocks until the session reaches a terminal state or `timeout`
    /// elapses; returns the last observed state (or `None` for an unknown
    /// session).
    pub fn attach(&self, session: u64, timeout: Duration) -> Option<SessionState> {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            let state = g.states.get(&session)?.clone();
            if state.is_terminal() {
                return Some(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(state);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
        }
    }

    /// Cancels a queued session. Running and terminal sessions are not
    /// cancellable; returns whether the cancel took effect.
    pub fn cancel(&self, session: u64) -> bool {
        let mut g = self.lock();
        if !matches!(g.states.get(&session), Some(SessionState::Queued { .. })) {
            return false;
        }
        g.queue.retain(|qs| qs.id != session);
        g.finish(session, SessionState::Cancelled);
        g.depth_gauges();
        self.cv.notify_all();
        true
    }

    /// Expires queued sessions whose wall-clock deadline has passed.
    /// Called automatically before each epoch; public for watchdog ticks.
    pub fn expire_overdue(&self) -> usize {
        let mut g = self.lock();
        let n = Self::expire_locked(&mut g, Instant::now());
        if n > 0 {
            g.depth_gauges();
            self.cv.notify_all();
        }
        n
    }

    fn expire_locked(g: &mut MutexGuard<'_, Inner>, now: Instant) -> usize {
        let mut expired = Vec::new();
        g.queue.retain(|qs| {
            if qs.deadline <= now {
                expired.push(qs.id);
                false
            } else {
                true
            }
        });
        for id in &expired {
            g.finish(*id, SessionState::DeadlineExpired);
            g.reg.inc(names::SERVE_DEADLINE_EXPIRED, 1);
        }
        expired.len()
    }

    /// Runs one epoch: drains up to `epoch_batch` sessions and executes
    /// them as one deterministic engine run, once. Returns `None` when the
    /// queue was empty.
    pub fn run_epoch(&self) -> Option<EpochReport> {
        let batch: Vec<QueuedSession> = {
            let mut g = self.lock();
            Self::expire_locked(&mut g, Instant::now());
            let mut batch = Vec::new();
            while batch.len() < self.cfg.epoch_batch.max(1) {
                match g.queue.pop_front() {
                    Some(qs) => batch.push(qs),
                    None => break,
                }
            }
            if batch.is_empty() {
                g.depth_gauges();
                return None;
            }
            for qs in &batch {
                g.states.insert(qs.id, SessionState::Running);
            }
            g.running_epoch = true;
            g.depth_gauges();
            batch
        };

        let result = contained(|| self.run_once(&batch));

        let mut g = self.lock();
        let epoch = g.epochs;
        g.epochs += 1;
        g.reg.inc(names::SERVE_EPOCHS, 1);
        let sessions: Vec<u64> = batch.iter().map(|qs| qs.id).collect();
        let report = match result {
            Ok((outcome, trace)) => {
                let now = Instant::now();
                for (i, qs) in batch.iter().enumerate() {
                    let q = &outcome.per_query[i];
                    let record = CompletedRecord {
                        id: qs.id,
                        digest: query_digest(q),
                        satisfaction: q.satisfaction,
                        results: q.results.len() as u64,
                    };
                    g.completed.push(record);
                    g.sat_sum += q.satisfaction;
                    g.sat_count += 1;
                    g.finish(
                        qs.id,
                        SessionState::Done(SessionResult {
                            satisfaction: q.satisfaction,
                            results: record.results,
                            digest: record.digest,
                            contract_adjusted: qs.adjusted,
                            deadline_missed: now > qs.deadline,
                        }),
                    );
                }
                if self.cfg.keep_epoch_traces {
                    g.epoch_traces.push((epoch, trace));
                }
                EpochReport {
                    epoch,
                    sessions,
                    outcome_digest: Some(outcome.digest()),
                    succeeded: true,
                }
            }
            Err(failure) => {
                for qs in &batch {
                    g.finish(qs.id, SessionState::Failed(failure.clone()));
                }
                EpochReport {
                    epoch,
                    sessions,
                    outcome_digest: None,
                    succeeded: false,
                }
            }
        };
        let mean = g.mean_satisfaction();
        g.reg.set_gauge(names::SERVE_MEAN_SATISFACTION, mean);
        g.running_epoch = false;
        self.cv.notify_all();
        Some(report)
    }

    /// One engine run over `batch`, outside the lock: the first session
    /// seeds the initial workload, the rest are `EventStream` admissions in
    /// batch order. Every epoch restarts the virtual clock at tick 0, so
    /// contract decay never leaks across epochs and each epoch is a pure
    /// function of its batch.
    fn run_once(
        &self,
        batch: &[QueuedSession],
    ) -> Result<(RunOutcome, Vec<TraceEvent>), EngineError> {
        let mut specs = batch.iter().map(|qs| {
            let mut spec = self.catalog[qs.catalog].clone();
            spec.priority = qs.priority;
            spec.contract = qs.contract.clone();
            spec
        });
        let workload = Workload::new(specs.by_ref().take(1).collect());
        let events = EventStream::new(
            specs
                .enumerate()
                .map(|(i, spec)| SessionEvent::Admit {
                    at: (i as u64 + 1) * self.cfg.admit_spacing_ticks,
                    spec,
                })
                .collect(),
        );
        let request = RunRequest::new(
            STRATEGY,
            &self.tables.0,
            &self.tables.1,
            &workload,
            &self.exec,
            &self.engine,
        )
        .events(&events)
        .plan(self.plan.as_ref());
        if self.cfg.keep_epoch_traces {
            let mut sink = RecordingSink::new();
            let o = request.try_run(&mut sink)?;
            Ok((o, sink.into_events()))
        } else {
            Ok((request.try_run(&mut NoopSink)?, Vec::new()))
        }
    }

    /// Runs epochs until the queue is empty (the direct-driven mode used
    /// by deterministic tests and the restore drain).
    pub fn drain(&self) -> Vec<EpochReport> {
        let mut reports = Vec::new();
        while let Some(r) = self.run_epoch() {
            reports.push(r);
        }
        reports
    }

    /// Worker loop for threaded serving: runs epochs as work arrives.
    /// On [`begin_shutdown`](CaqeServer::begin_shutdown), drains the queue
    /// first when `drain_on_shutdown`, else exits at the next epoch
    /// boundary (leaving the queue for a snapshot).
    pub fn run_worker(&self, drain_on_shutdown: bool) {
        loop {
            let should_run = {
                let mut g = self.lock();
                while g.queue.is_empty() && !g.shutting_down {
                    g = self
                        .cv
                        .wait_timeout(g, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                if g.shutting_down && (g.queue.is_empty() || !drain_on_shutdown) {
                    false
                } else {
                    !g.queue.is_empty()
                }
            };
            if !should_run {
                return;
            }
            self.run_epoch();
        }
    }

    /// Flags the server as shutting down: new submissions are rejected
    /// and workers stop at the next epoch boundary.
    pub fn begin_shutdown(&self) {
        let mut g = self.lock();
        g.shutting_down = true;
        self.cv.notify_all();
        drop(g);
    }

    /// Graceful shutdown: stops admissions, waits for the in-flight epoch
    /// to finish, and drains the remaining queue into a crash-safely
    /// written snapshot at `path`.
    pub fn shutdown_to_snapshot(&self, path: &Path) -> Result<Snapshot, SnapshotError> {
        self.begin_shutdown();
        let snap = {
            let mut g = self.lock();
            while g.running_epoch {
                g = self
                    .cv
                    .wait_timeout(g, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let queued: Result<Vec<SessionRecord>, SnapshotError> = g
                .queue
                .iter()
                .map(|qs| {
                    ContractSpec::from_contract(&qs.contract)
                        .map(|contract| SessionRecord {
                            id: qs.id,
                            catalog: qs.catalog,
                            priority: qs.priority,
                            contract,
                        })
                        .ok_or_else(|| SnapshotError::Corrupt {
                            reason: format!(
                                "session {} holds an unserializable contract — negotiation must \
                                 prevent this",
                                qs.id
                            ),
                        })
                })
                .collect();
            Snapshot {
                version: SNAPSHOT_VERSION,
                next_session: g.next_session,
                epochs: g.epochs,
                completed: g.completed.clone(),
                queued: queued?,
            }
        };
        write_snapshot(path, &snap)?;
        let mut g = self.lock();
        let queued = snap.queued.len() as u32;
        let drained = snap.completed.len() as u32;
        g.push_event(|tick| TraceEvent::ServerShutdown {
            tick,
            queued,
            drained,
            snapshot_version: SNAPSHOT_VERSION,
        });
        self.cv.notify_all();
        Ok(snap)
    }

    /// Completed sessions as `(session id, digest)` in session-id order —
    /// the equivalence witnesses the restore tests compare.
    pub fn session_digests(&self) -> Vec<(u64, u64)> {
        let g = self.lock();
        let mut v: Vec<(u64, u64)> = g.completed.iter().map(|c| (c.id, c.digest)).collect();
        v.sort_unstable();
        v
    }

    /// Serve-level trace events (rejects, shutdown, restore) recorded so
    /// far, in logical-tick order.
    pub fn server_events(&self) -> Vec<TraceEvent> {
        self.lock().server_events.clone()
    }

    /// Per-epoch engine traces, when `keep_epoch_traces` is set.
    pub fn take_epoch_traces(&self) -> Vec<(u64, Vec<TraceEvent>)> {
        std::mem::take(&mut self.lock().epoch_traces)
    }

    /// Metrics snapshot: serve-level counters/gauges merged with the
    /// counts derived from the serve-level trace events (so the `report`
    /// binary's reconcile closes over the server's own trace).
    pub fn metrics(&self) -> MetricsRegistry {
        let g = self.lock();
        let mut collector = ObsCollector::new(ObsConfig::default());
        collector.ingest_events(&g.server_events);
        let mut out = collector.into_registry();
        out.merge(&g.reg);
        out
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// High-water queue depth.
    pub fn queue_peak(&self) -> usize {
        self.lock().queue.peak()
    }

    /// Mean final satisfaction over completed sessions (1.0 when none).
    pub fn mean_satisfaction(&self) -> f64 {
        self.lock().mean_satisfaction()
    }

    /// Epochs completed.
    pub fn epochs(&self) -> u64 {
        self.lock().epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contained_run_passes_a_value_through() {
        assert_eq!(contained(|| Ok(42)), Ok(42));
    }

    #[test]
    fn contained_run_types_an_engine_error() {
        let error = EngineError::InvalidWorkload {
            reason: "empty".into(),
        };
        let got = contained::<()>(|| Err(error.clone()));
        assert_eq!(got, Err(SessionFailure::Engine { error }));
    }

    #[test]
    fn contained_run_catches_a_panic_and_types_the_failure() {
        match contained::<()>(|| panic!("boom {}", 7)) {
            Err(SessionFailure::Panicked { message }) => {
                assert!(message.contains("boom 7"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
