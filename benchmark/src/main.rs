//! The repo's benchmark. `run.sh` builds this and forwards its arguments.
//!
//! ```text
//! caqe-benchmark --workload <name> [--seed N] [--seconds S] [--reps R]
//!                [--trace 0|1] [--quick] [--out DIR]   one workload, one process
//! caqe-benchmark [--seed N] [--quick] [--verify-repeat] every workload, traced and not,
//!                                                       one child process each
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing off;
//! with `--trace 1` it measures the per-layer metrics from a traced run and
//! from replayed calls into each layer. The last line of standard output
//! is the result object; the exit code is non-zero if any output check
//! failed.

mod gate;
mod json;
mod layers;
mod report;
mod serve;
mod sink;
mod spans;
mod stats;
mod suite;
mod workloads;

use caqe_baselines::SJfslStrategy;
use caqe_core::{ExecutionStrategy, PreparedPlan, RunOutcome, Workload};
use caqe_obs::{ObsCollector, ObsConfig};
use caqe_trace::{to_jsonl, NoopSink, RecordingSink};
use caqe_types::{EngineError, Fnv1a};
use gate::Tally;
use json::Json;
use report::{MetricDef, Metrics, RowMeta, END_TO_END, PER_LAYER};
use sink::{Phase, Split, WallStampSink};
use spans::SpanLog;
use stats::{median, pearson, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{small_scale, Inputs, Kind, Spec, DEFAULT_SEED};

/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds` is the same.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Timed reps an untraced run makes at least, however slow the host.
const MIN_REPS: usize = 3;
/// `restore_with_plan` calls the traced `serve_restart` pass times.
const TRACED_RESTORES: usize = 11;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Exactly this many timed reps instead of filling `seconds`.
    reps: Option<usize>,
    trace: bool,
    /// A tenth of the rows, one rep, one set-up; every check still on.
    quick: bool,
    verify_repeat: bool,
    out: PathBuf,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: false,
        quick: false,
        verify_repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--reps" => {
                let v = value()?;
                args.reps = Some(v.parse().ok().filter(|r| *r > 0).ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--verify-repeat" => args.verify_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn rows(&self, spec: &Spec) -> usize {
        if self.quick {
            spec.n / 10
        } else {
            spec.n
        }
    }

    /// Whether a rep loop that has made `done` reps in `elapsed` seconds
    /// stops: after `--reps` if given (one in `--quick`), else once
    /// `budget` seconds are used and `floor` reps made.
    fn stop(&self, done: usize, elapsed: f64, budget: f64, floor: usize) -> bool {
        match (self.quick, self.reps) {
            (true, _) => done >= 1,
            (false, Some(r)) => done >= r,
            (false, None) => done >= floor && elapsed >= budget,
        }
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over a pass's `(session, digest)` pairs.
fn sessions_digest(digests: &[(u64, u64)]) -> u64 {
    let mut h = Fnv1a::new();
    for (id, d) in digests {
        h.u64(*id).u64(*d);
    }
    h.finish()
}

/// What `setup_s` times: tables, oracle run, calibration, the small-scale
/// definitional check and, for `serve_restart`, the shared plan every
/// server of the run is built with.
fn setup(
    spec: Spec,
    n: usize,
    seed: u64,
    tally: &mut Tally,
) -> Result<(Inputs, Option<serve::Prepared>), EngineError> {
    let inp = Inputs::build(spec, n, seed)?;
    let (r, t, outcome) = small_scale(&spec, n, seed, &inp.pool)?;
    gate::against_definition(spec.name, &r, &t, &inp.pool, &outcome, tally);
    let prepared = (spec.kind == Kind::Serve).then(|| serve::Prepared::new(&inp));
    Ok((inp, prepared))
}

/// The tables and one run of the workload in a process that has run no
/// oracle yet, so the oracle's materialized joins cannot set the mark.
fn peak_rss_mb(spec: Spec, n: usize, seed: u64, tally: &mut Tally) -> Result<f64, EngineError> {
    let inp = Inputs::uncalibrated(spec, n, seed)?;
    if spec.kind == Kind::Serve {
        let prepared = serve::Prepared::new(&inp);
        let cfg = serve::serve_config(false);
        serve::run_pass(&inp, &prepared, cfg, None, tally, None);
    } else {
        inp.run_engine(&inp.exec, None, &mut NoopSink)?;
    }
    let hwm = vm_hwm_mb();
    tally.check(hwm.is_some(), || {
        "VmHWM unreadable from /proc/self/status".to_string()
    });
    Ok(hwm.unwrap_or(0.0))
}

/// Facts of a finished run that the result row needs.
struct Done {
    reps: usize,
    digest: u64,
    /// Lines printed under the metrics.
    notes: Vec<String>,
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn untraced_run(
    spec: Spec,
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<Done, EngineError> {
    let n = args.rows(&spec);
    m.set("peak_rss_mb", peak_rss_mb(spec, n, args.seed, tally)?);

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        let t0 = Instant::now();
        built = Some(setup(spec, n, args.seed, tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some((inp, mut prepared)) = built else {
        unreachable!("at least one set-up runs")
    };
    m.set_fastest("setup_s", setups);
    if let Some(prepared) = &mut prepared {
        prepared.gate(&inp, tally)?;
    }

    let mut walls = Vec::new();
    let started = Instant::now();
    let stop = |walls: &Vec<f64>| {
        args.stop(
            walls.len(),
            started.elapsed().as_secs_f64(),
            args.seconds,
            MIN_REPS,
        )
    };
    let digest = match &prepared {
        // Batch / churn: a rep is one engine call, raw tables → last emission.
        None => {
            let warm = inp.run_engine(&inp.exec, None, &mut NoopSink)?;
            gate::against_oracle(&inp, &warm, tally);
            let digest = warm.digest();
            m.set("satisfaction_mean", warm.avg_satisfaction());
            while !stop(&walls) {
                let t0 = Instant::now();
                let outcome = inp.run_engine(&inp.exec, None, &mut NoopSink);
                walls.push(t0.elapsed().as_secs_f64());
                let same = outcome.as_ref().is_ok_and(|o| o.digest() == digest);
                tally.check(same, || format!("rep {}: {:?}", walls.len(), outcome.err()));
            }
            digest
        }
        // Serve: a rep is one pass with the kill-and-restore; the warm-up
        // is the uninterrupted pass whose session digests every rep must
        // reproduce.
        Some(prepared) => {
            let cfg = serve::serve_config(false);
            let reference = serve::run_pass(&inp, prepared, cfg, None, tally, None);
            m.set("satisfaction_mean", reference.satisfaction_mean);
            while !stop(&walls) {
                let restart = serve::Restart {
                    dir: &args.out,
                    restores: 1,
                };
                let pass = serve::run_pass(&inp, prepared, cfg, Some(restart), tally, None);
                walls.push(pass.wall_s);
                tally.check(pass.digests == reference.digests, || {
                    format!("pass {}: restored session digests differ", walls.len())
                });
            }
            sessions_digest(&reference.digests)
        }
    };
    let reps = walls.len();
    m.set_fastest("e2e_wall_s", walls);
    Ok(Done {
        reps,
        digest,
        notes: Vec::new(),
    })
}

/// One traced engine run through `sink`; seconds and the outcome.
fn engine_rep<S: caqe_trace::TraceSink>(
    inp: &Inputs,
    plan: Option<&PreparedPlan>,
    sink: &mut S,
) -> Result<(f64, RunOutcome), EngineError> {
    let t0 = Instant::now();
    let outcome = inp.run_engine(&inp.exec, plan, sink)?;
    Ok((t0.elapsed().as_secs_f64(), outcome))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Least-squares `wall = a + b·ticks` over the per-region pairs.
fn fit_line(pairs: &[(u64, u64)]) -> (f64, f64) {
    let n = pairs.len() as f64;
    if pairs.len() < 2 {
        return (0.0, 0.0);
    }
    let mx = pairs.iter().map(|p| p.0 as f64).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1 as f64).sum::<f64>() / n;
    let sxx: f64 = pairs.iter().map(|p| (p.0 as f64 - mx).powi(2)).sum();
    let sxy: f64 = pairs
        .iter()
        .map(|p| (p.0 as f64 - mx) * (p.1 as f64 - my))
        .sum();
    let b = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (my - b * mx, b)
}

/// The tick-calibration report of one traced run: per phase the ticks
/// charged, the wall spent and ns per tick; per region the residual of the
/// measured wall against the least-squares line through (ticks, wall).
fn tick_calibration(name: &str, split: &Split, m: &mut Metrics) -> Json {
    let per_tick = |ns: u64, ticks: u64| {
        if ticks == 0 {
            0.0
        } else {
            ns as f64 / ticks as f64
        }
    };
    let phases: Vec<Json> = Phase::ALL
        .iter()
        .map(|&p| {
            let (ns, ticks) = (split.phase_ns(p, false), split.phase_ticks(p));
            Json::obj([
                ("phase", Json::str(p.name())),
                ("ticks", Json::Num(ticks as f64)),
                ("wall_ns", Json::Num(ns as f64)),
                ("ns_per_tick", Json::Num(per_tick(ns, ticks))),
            ])
        })
        .collect();
    let (a, b) = fit_line(&split.regions);
    let residuals: Vec<f64> = split
        .regions
        .iter()
        .map(|&(t, w)| w as f64 - (a + b * t as f64))
        .collect();
    let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / residuals.len().max(1) as f64).sqrt();
    let ticks: Vec<f64> = split.regions.iter().map(|p| p.0 as f64).collect();
    let walls: Vec<f64> = split.regions.iter().map(|p| p.1 as f64).collect();
    let corr = pearson(&ticks, &walls);

    m.set(
        "clock.ns_per_tick_build",
        per_tick(
            split.phase_ns(Phase::GroupBuild, false),
            split.phase_ticks(Phase::GroupBuild),
        ),
    );
    m.set(
        "clock.ns_per_tick_tuple",
        per_tick(
            split.phase_ns(Phase::Tuple, false),
            split.phase_ticks(Phase::Tuple),
        ),
    );
    m.set("clock.tick_wall_corr", corr);
    m.set(
        "clock.uncharged_wall_share",
        split.uncharged_ns as f64 / split.end_ns.max(1) as f64,
    );
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    Json::obj([
        ("workload", Json::str(name)),
        ("phases", Json::Arr(phases)),
        (
            "region_fit",
            Json::obj([
                ("intercept_ns", Json::Num(a)),
                ("ns_per_tick", Json::Num(b)),
                ("pearson", Json::Num(corr)),
                ("residual_rms_ns", Json::Num(rms)),
                ("region_ticks", nums(&ticks)),
                ("region_wall_ns", nums(&walls)),
                ("region_residual_ns", nums(&residuals)),
            ]),
        ),
    ])
}

/// Wall seconds of the three arms of a traced run, and what the two sinks
/// saw.
struct Arms {
    /// Tracing off.
    plain: Vec<f64>,
    /// Through [`WallStampSink`]; one [`Split`] per run.
    stamped: Vec<f64>,
    splits: Vec<Split>,
    /// Through `RecordingSink`; the events of the last run.
    recorded: Vec<f64>,
    events: Vec<caqe_trace::TraceEvent>,
}

/// Runs the three arms round-robin, so drift hits them alike, for half of
/// `--seconds` (two rounds at least). The first stamped run's span tree
/// goes into `log`.
fn run_arms(
    inp: &Inputs,
    plan: Option<&PreparedPlan>,
    args: &Args,
    log: &mut SpanLog,
    same_digest: &mut dyn FnMut(&str, &RunOutcome),
) -> Result<Arms, EngineError> {
    let mut arms = Arms {
        plain: Vec::new(),
        stamped: Vec::new(),
        splits: Vec::new(),
        recorded: Vec::new(),
        events: Vec::new(),
    };
    let started = Instant::now();
    while !args.stop(
        arms.plain.len(),
        started.elapsed().as_secs_f64(),
        args.seconds / 2.0,
        2,
    ) {
        let (wall, outcome) = engine_rep(inp, plan, &mut NoopSink)?;
        arms.plain.push(wall);
        same_digest("an untraced", &outcome);

        let mut sink = WallStampSink::new();
        let base_ns = log.ns_at(sink.start());
        let (wall, outcome) = engine_rep(inp, plan, &mut sink)?;
        arms.stamped.push(wall);
        same_digest("the wall-stamped", &outcome);
        let split = sink::split(sink.marks(), (wall * 1e9) as u64);
        if arms.splits.is_empty() {
            split.record(log, "run", base_ns, 1);
        }
        arms.splits.push(split);

        let mut sink = RecordingSink::new();
        let (wall, outcome) = engine_rep(inp, plan, &mut sink)?;
        arms.recorded.push(wall);
        same_digest("the recorded", &outcome);
        arms.events = sink.into_events();
    }
    Ok(arms)
}

/// The `engine.*` metrics: per-phase medians over the stamped runs.
fn engine_metrics(arms: &Arms, m: &mut Metrics) {
    let over_splits =
        |f: &dyn Fn(&Split) -> f64| median(&arms.splits.iter().map(f).collect::<Vec<_>>());
    let phase = |p: Phase, after_build: bool| over_splits(&|s| secs(s.phase_ns(p, after_build)));
    m.set_samples("engine.traced_wall_s", arms.stamped.clone());
    m.set(
        "engine.build_s",
        over_splits(&|s| secs(s.first_decision_ns)),
    );
    m.set("engine.decide_s", phase(Phase::Decide, true));
    m.set("engine.tuple_s", phase(Phase::Tuple, true));
    m.set("engine.emit_s", phase(Phase::Emit, true));
    // An epoch of `serve_restart` admits before its first decision, so
    // these two count wherever they fall (inside `engine.build_s` there).
    m.set("engine.admit_s", phase(Phase::Admit, false));
    m.set("engine.depart_s", phase(Phase::Depart, false));
    let decisions = arms.splits.last().map_or(0, |s| s.decisions);
    m.set("engine.decisions", decisions as f64);
    m.set(
        "engine.decide_us_per_decision",
        phase(Phase::Decide, true) * 1e6 / decisions.max(1) as f64,
    );
    let emission_at = |s: &Split, i: usize| secs(s.emissions_ns.get(i).copied().unwrap_or(0));
    m.set(
        "engine.first_result_wall_s",
        over_splits(&|s| emission_at(s, 0)),
    );
    m.set(
        "engine.half_results_wall_s",
        over_splits(&|s| emission_at(s, s.emissions_ns.len() / 2)),
    );
}

/// `--trace 1`: the per-layer metrics — the engine split by a wall-stamping
/// sink, and each layer's public functions replayed on the same inputs.
fn traced_run(
    spec: Spec,
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<Done, EngineError> {
    let n = args.rows(&spec);
    let (inp, mut prepared) = setup(spec, n, args.seed, tally)?;
    if let Some(prepared) = &mut prepared {
        prepared.gate(&inp, tally)?;
    }
    let plan = prepared.as_ref().map(|p| &p.plan);
    let mut log = SpanLog::new();

    let reference = inp.run_engine(&inp.exec, plan, &mut NoopSink)?;
    if spec.kind != Kind::Serve {
        gate::against_oracle(&inp, &reference, tally);
    }
    let digest = reference.digest();
    let mut same_digest = |what: &str, outcome: &RunOutcome| {
        tally.check(outcome.digest() == digest, || {
            format!("{what} run's digest differs from the untraced run's")
        });
    };

    let arms = run_arms(&inp, plan, args, &mut log, &mut same_digest)?;
    let reps = arms.plain.len();
    engine_metrics(&arms, m);
    let last = arms.splits.last().cloned().unwrap_or_default();

    // clock: ticks against nanoseconds, from the last stamped run
    m.set("clock.virtual_s", reference.virtual_seconds);
    let calibration = tick_calibration(spec.name, &last, m);

    // contract
    m.set("contract.pscore_total", reference.total_p_score());
    m.set(
        "contract.min_query_satisfaction",
        reference
            .per_query
            .iter()
            .map(|q| q.satisfaction)
            .fold(f64::INFINITY, f64::min),
    );
    m.set("contract.emissions", reference.total_results() as f64);
    let cache = &reference.stats;
    m.set(
        "operators.presort_cache_hit_rate",
        cache.presort_cache_hits as f64
            / (cache.presort_cache_hits + cache.presort_cache_misses).max(1) as f64,
    );

    // trace / obs
    let events = &arms.events;
    m.set("trace.events", events.len() as f64);
    m.set(
        "trace.overhead_share",
        median(&arms.recorded) / median(&arms.plain) - 1.0,
    );
    let (_, s) = log.time("replay:trace.to_jsonl", None, 0, || to_jsonl(events).len());
    m.set("trace.to_jsonl_s", s);
    let (_, s) = log.time("replay:obs.fold", None, 0, || {
        let mut collector = ObsCollector::new(ObsConfig::default());
        collector.ingest_events(events);
        collector.ingest_stats(&reference.stats);
        collector.into_registry()
    });
    m.set("obs.fold_s", s);
    m.set("obs.events_per_s", events.len() as f64 / s.max(1e-9));

    // every layer under the engine loop, replayed
    layers::replay_layers(&inp, &mut log, m);
    let processed = reference.stats.regions_processed as f64;
    m.set(
        "engine.regions_processed_share",
        processed / m.get("regions.count").max(1.0),
    );

    // parallel: the same run on two workers (recorded, not gated)
    let exec2 = inp.exec.with_parallelism(Some(2));
    let mut t2 = Vec::new();
    for _ in 0..if args.quick { 1 } else { 3 } {
        let (outcome, s) = log.time("replay:parallel.t2", None, 0, || {
            inp.run_engine(&exec2, plan, &mut NoopSink)
        });
        t2.push(s);
        same_digest("the 2-thread", &outcome?);
    }
    m.set("parallel.speedup_t2", median(&arms.plain) / median(&t2));
    m.set_samples("parallel.wall_t2_s", t2);

    // baselines: S-JFSL on the same queries; JFSL is the oracle pass
    let pool = Workload::new(inp.pool.clone());
    let (sjfsl, s) = log.time("replay:baselines.sjfsl", None, 0, || {
        SJfslStrategy.try_run(&inp.r, &inp.t, &pool, &inp.exec)
    });
    m.set("baselines.sjfsl_wall_s", s);
    m.set(
        "baselines.sjfsl_satisfaction_mean",
        sjfsl?.avg_satisfaction(),
    );
    m.set(
        "baselines.jfsl_wall_s",
        inp.oracle.as_ref().map_or(0.0, |o| o.wall_seconds),
    );

    // plan: the workload's own — or, with the serving metrics, the server's
    let digest = match &prepared {
        None => {
            layers::replay_plan(&inp, &args.out, &mut log, m);
            digest
        }
        Some(prepared) => serve_layers(&inp, prepared, args, tally, m, &mut log),
    };

    let mut notes = vec![format!("  self time by span name, {} spans:", log.len())];
    for (name, own) in log.self_seconds_by_name() {
        if own >= 1e-4 {
            notes.push(format!("    {name:<34} {own:>16.6} s"));
        }
    }
    std::fs::write(
        args.out.join(format!("{}.spans.jsonl", spec.name)),
        log.to_jsonl(),
    )
    .and_then(|()| {
        std::fs::write(
            args.out
                .join(format!("{}.tick_calibration.json", spec.name)),
            format!("{}\n", calibration.to_json()),
        )
    })
    .unwrap_or_else(|e| tally.check(false, || format!("cannot write span files: {e}")));
    Ok(Done {
        reps,
        digest,
        notes,
    })
}

/// The serving-layer metrics: an uninterrupted pass, a logged pass with the
/// kill-and-restore, a pass with `keep_epoch_traces`, and the restore path
/// replayed piece by piece. Returns the digest over the session digests.
fn serve_layers(
    inp: &Inputs,
    prepared: &serve::Prepared,
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
    log: &mut SpanLog,
) -> u64 {
    let reference = serve::run_pass(inp, prepared, serve::serve_config(false), None, tally, None);
    let restart = |restores| serve::Restart {
        dir: &args.out,
        restores,
    };
    let restores = if args.quick { 1 } else { TRACED_RESTORES };
    let pass = serve::run_pass(
        inp,
        prepared,
        serve::serve_config(false),
        Some(restart(restores)),
        tally,
        Some(log),
    );
    let traced = serve::run_pass(
        inp,
        prepared,
        serve::serve_config(true),
        Some(restart(1)),
        tally,
        None,
    );
    for (what, p) in [("restored", &pass), ("epoch-traced", &traced)] {
        tally.check(p.digests == reference.digests, || {
            format!("{what} pass: session digests differ from the uninterrupted pass")
        });
    }
    m.set(
        "serve.session_latency_p50_ms",
        percentile(&pass.latency_ms, 50.0),
    );
    m.set(
        "serve.session_latency_p90_ms",
        percentile(&pass.latency_ms, 90.0),
    );
    m.set(
        "serve.sessions_per_s",
        reference.sessions as f64 / reference.wall_s,
    );
    m.set_samples("serve.restart_recovery_ms", pass.recovery_ms);
    m.set_samples("serve.submit_us", pass.submit_us);
    m.set_samples("serve.queue_wait_ms", pass.queue_wait_ms);
    m.set_samples("serve.epoch_ms", pass.epoch_ms);
    m.set("serve.epochs", pass.epochs as f64);
    m.set("serve.queue_peak", pass.queue_peak as f64);
    m.set("serve.snapshot_write_ms", pass.snapshot_write_ms);
    m.set("serve.snapshot_bytes", pass.snapshot_bytes as f64);
    // On this workload tracing's user-visible cost is the server keeping
    // its epoch traces, so that replaces the engine-level figure.
    m.set("trace.events", traced.trace_events as f64);
    m.set(
        "trace.overhead_share",
        traced.wall_s / reference.wall_s - 1.0,
    );
    let [snapshot_load, plan_load, restore] =
        serve::replay_restore(inp, &prepared.plan, &args.out, tally, log);
    m.set("serve.snapshot_load_ms", snapshot_load);
    m.set("serve.restore_ms", restore);
    // The plan that matters here is the server's (every catalog entry, both
    // session modes), not the first epoch's.
    let (_, s) = log.time("replay:plan.build", None, 0, || serve::Prepared::new(inp));
    m.set("plan.build_s", s);
    m.set("plan.save_s", pass.plan_save_ms / 1e3);
    m.set("plan.load_s", plan_load / 1e3);
    m.set("plan.bytes", pass.plan_bytes as f64);
    sessions_digest(&reference.digests)
}

/// Runs one workload in this process, prints its metrics and the result
/// line, stores its row. `true` if every check passed.
fn run_one(spec: Spec, args: &Args) -> bool {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return false;
    }
    let done = if args.trace {
        traced_run(spec, args, &mut tally, &mut m)
    } else {
        untraced_run(spec, args, &mut tally, &mut m)
    };
    let done = done.unwrap_or_else(|e| {
        tally.check(false, || format!("engine error: {e}"));
        Done {
            reps: 0,
            digest: 0,
            notes: Vec::new(),
        }
    });
    let correct = tally.failed == 0;
    let meta = RowMeta {
        workload: spec.name.to_string(),
        trace: args.trace,
        n: args.rows(&spec),
        reps: done.reps,
        seed: args.seed,
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        threads: 1,
        git_sha: git_sha(),
        digest: format!("{:016x}", done.digest),
    };
    println!(
        "== {} trace={} n={} reps={} seed={:#x} host_cores={} threads={} git={} digest={}",
        meta.workload,
        u8::from(meta.trace),
        meta.n,
        meta.reps,
        meta.seed,
        meta.host_cores,
        meta.threads,
        meta.git_sha,
        meta.digest
    );
    m.print(defs);
    for note in &done.notes {
        println!("{note}");
    }
    println!(
        "  {:<36} {:>16.6} ratio ({} failed of {} attempted)",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for msg in &tally.messages {
        eprintln!("FAILED: {msg}");
    }
    let row = report::row(&meta, correct, tally.attempted, tally.failed, &m, defs);
    let path = suite::row_path(&args.out, spec.name, args.trace);
    if let Err(e) = std::fs::write(&path, format!("{}\n", row.to_json())) {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", m.result_object(defs)),
    ]);
    println!("{}", result.to_json());
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => match workloads::spec_named(name) {
            Some(spec) => run_one(spec, &args),
            None => {
                eprintln!("unknown workload `{name}`");
                return ExitCode::from(2);
            }
        },
        None => suite::run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload corr_join --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("corr_join"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 8.0, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.quick),
            (DEFAULT_SEED, 10.0, false, false)
        );
        assert_eq!(parse_args(&argv("--seed 0xff")).unwrap().seed, 255);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--reps 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn rep_loops_stop_on_reps_quick_or_budget() {
        let mut a = parse_args(&[]).unwrap();
        assert!(!a.stop(2, 100.0, 8.0, 3), "below the floor");
        assert!(!a.stop(5, 7.9, 8.0, 3), "budget not used");
        assert!(a.stop(3, 8.0, 8.0, 3));
        a.reps = Some(7);
        assert!(!a.stop(6, 100.0, 8.0, 3));
        assert!(a.stop(7, 0.0, 8.0, 3));
        a.quick = true;
        assert!(a.stop(1, 0.0, 8.0, 3));
    }

    #[test]
    fn line_fit_recovers_slope_and_intercept() {
        let pairs: Vec<(u64, u64)> = (1..=5).map(|t| (t * 10, 100 + t * 30)).collect();
        let (a, b) = fit_line(&pairs);
        assert!((a - 100.0).abs() < 1e-9 && (b - 3.0).abs() < 1e-9);
        assert_eq!(fit_line(&pairs[..1]), (0.0, 0.0));
    }
}
