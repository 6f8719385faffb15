//! What the `report` binary checks (DESIGN.md §11, §16): one fold over a
//! trace's typed events feeds its summary, every check rule and the trace
//! side of the metrics reconcile. That side never comes from
//! `caqe_obs::ObsCollector`, which made the metrics: it would check itself.

use caqe_obs::names;
use caqe_trace::json::{parse, JsonValue};
use caqe_trace::{chrome_trace, estimator_summary, satisfaction_csv, SpanKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One trace's fold: the facts its summary prints, the counts the
/// reconcile compares, and the check rules' findings.
#[derive(Debug, Default)]
pub struct Fold {
    /// Strategy named by the first `meta` event.
    pub strategy: String,
    /// `ev` tag -> events.
    pub events: BTreeMap<&'static str, u64>,
    /// Span kind -> spans.
    pub spans: BTreeMap<&'static str, u64>,
    /// Query -> (emissions, satisfaction after its last one).
    pub queries: BTreeMap<u16, (u64, f64)>,
    /// (duration ticks, kind, group) of the three longest spans.
    pub longest: Vec<(u64, SpanKind, Option<u32>)>,
    /// Estimate audits, and the sum and max of their ticks errors.
    pub estimator: (u64, f64, f64),
    /// Non-finite floats, each written as `null` by the JSON exporter.
    pub non_finite: u64,
    /// Broken rules, each as `line N: what`.
    pub problems: Vec<String>,
}

impl Fold {
    /// How many events of `ev` kind the trace holds.
    pub fn count(&self, ev: &str) -> u64 {
        self.events.get(ev).copied().unwrap_or(0)
    }
}

/// Folds a trace and checks its rules: emission ticks never run
/// backwards, each query's `seq` is gapless from 1, a query emits only
/// between its admission and departure, admissions take fresh slots and
/// departures are of live queries, a quarantine follows a retry, a shed
/// region is never scheduled again, a queue-full reject happens at the
/// bound, and a server shuts down once, after which nothing runs, and
/// restores before anything runs.
pub fn fold(events: &[TraceEvent]) -> Fold {
    use TraceEvent as E;
    let mut f = Fold::default();
    let (mut initial, mut last_emit, mut activity) = (0, 0, false);
    let mut shutdown: Option<usize> = None;
    let (mut retried, mut admitted) = (BTreeSet::new(), BTreeSet::new());
    let (mut shed, mut departed) = (BTreeMap::new(), BTreeMap::new());
    let mut problems = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let (line, tick) = (i + 1, ev.tick());
        let mut problem = |what: String| problems.push(format!("line {line}: {what}"));
        *f.events.entry(ev.name()).or_insert(0) += 1;
        f.non_finite += non_finite(ev);
        if matches!(ev, E::Emission { .. } | E::Decision { .. }) {
            activity = true;
            if let Some(at) = shutdown {
                problem(format!("{} after the shutdown at line {at}", ev.name()));
            }
        }
        match ev {
            E::Meta {
                strategy: s,
                queries,
                ..
            } => {
                if f.strategy.is_empty() {
                    f.strategy = s.clone();
                }
                initial = *queries;
            }
            E::Emission {
                query: q,
                seq,
                satisfaction: sat,
                ..
            } => {
                if tick < last_emit {
                    problem(format!("emission tick {tick} precedes {last_emit}"));
                }
                last_emit = tick;
                if usize::from(*q) >= initial && !admitted.contains(q) {
                    problem(format!("emission for query {q} before its admission"));
                }
                if let Some(gone) = departed.get(q).filter(|&&gone| tick > gone) {
                    problem(format!(
                        "query {q} emitted at tick {tick} after departing at tick {gone}"
                    ));
                }
                let (n, last_sat) = f.queries.entry(*q).or_insert((0, 0.0));
                (*n, *last_sat) = (*n + 1, *sat);
                if *seq != *n {
                    problem(format!("query {q} emission seq {seq}, expected {n}"));
                }
            }
            E::Span {
                kind,
                group,
                end_tick,
                ..
            } => {
                *f.spans.entry(kind.name()).or_insert(0) += 1;
                f.longest
                    .push((end_tick.saturating_sub(tick), *kind, *group));
            }
            E::EstimateAudit { estimate, .. } => {
                let err = estimate.ticks_rel_error();
                let (n, sum, max) = &mut f.estimator;
                (*n, *sum, *max) = (*n + 1, *sum + err, max.max(err));
            }
            E::Decision { group, region, .. } => {
                if let Some(at) = shed.get(&(group, region)).filter(|&&at| tick >= at) {
                    let region = format!("region {group}/{region}");
                    problem(format!(
                        "{region} scheduled at tick {tick} after its shed at {at}"
                    ));
                }
            }
            E::RegionRetry { group, region, .. } => {
                retried.insert((group, region));
            }
            E::RegionQuarantined { group, region, .. } if !retried.contains(&(group, region)) => {
                problem(format!(
                    "region {group}/{region} quarantined, never retried"
                ));
            }
            E::RegionShed { group, region, .. } => {
                shed.insert((group, region), tick);
            }
            E::Admit { query: q, .. } => {
                let fresh = usize::from(*q) >= initial && admitted.insert(*q);
                if !fresh {
                    problem(format!("admission reuses query slot {q}"));
                }
            }
            E::Depart { query: q, .. } => {
                if usize::from(*q) >= initial && !admitted.contains(q) {
                    problem(format!("departure of never-admitted query {q}"));
                }
                if departed.insert(*q, tick).is_some() {
                    problem(format!("query {q} departed twice"));
                }
            }
            E::AdmissionReject {
                reason: "full",
                depth,
                bound,
                ..
            } if depth < bound => {
                problem(format!(
                    "queue-full reject at depth {depth} below bound {bound}"
                ));
            }
            E::ServerShutdown { .. } => {
                let first = shutdown.replace(line).is_none();
                if !first {
                    problem("second shutdown event".into());
                }
            }
            E::ServerRestore { .. } if activity => {
                problem("restore after decision/emission activity".into());
            }
            _ => {}
        }
    }
    f.longest.sort_by_key(|s| std::cmp::Reverse(s.0));
    f.longest.truncate(3);
    f.problems = problems;
    f
}

/// Floats of `ev` the JSON exporter writes as `null`.
fn non_finite(ev: &TraceEvent) -> u64 {
    use TraceEvent as E;
    let floats = match ev {
        E::Meta {
            ticks_per_second: x,
            ..
        }
        | E::FaultInjected { factor: x, .. } => vec![*x],
        E::RegionShed {
            satisfaction: x, ..
        } => vec![*x],
        E::Emission {
            utility: u,
            satisfaction: s,
            ..
        } => vec![*u, *s],
        E::Decision {
            score,
            csm,
            prog_est,
            weights: w,
            ..
        } => [vec![*score, *csm, *prog_est], w.clone()].concat(),
        E::EstimateAudit { estimate: e, .. } => {
            let errors = [
                e.join_rel_error(),
                e.skyline_rel_error(),
                e.ticks_rel_error(),
            ];
            [[e.est_join, e.est_skyline].as_slice(), &errors].concat()
        }
        _ => Vec::new(),
    };
    floats.iter().filter(|v| !v.is_finite()).count() as u64
}

/// The siblings `write_trace` exports beside `<label>.jsonl` must each be
/// the re-export of the parsed events, byte for byte.
pub fn check_siblings(jsonl: &Path, events: &[TraceEvent]) -> Vec<String> {
    let stem = jsonl.to_string_lossy();
    let stem = stem.strip_suffix(".jsonl").unwrap_or(&stem);
    [
        ("satisfaction.csv", satisfaction_csv(events)),
        ("spans.json", chrome_trace(events)),
        ("estimator.json", estimator_summary(events).to_json()),
    ]
    .into_iter()
    .filter_map(|(ext, want)| {
        let path = format!("{stem}.{ext}");
        match std::fs::read_to_string(&path) {
            Ok(text) if text == want => None,
            Ok(_) => Some(format!("{path} is not the re-export of the trace")),
            Err(e) => Some(format!("sibling {path}: {e}")),
        }
    })
    .collect()
}

/// A metrics snapshot's counters, gauges and non-finite drop count.
#[derive(Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub dropped_non_finite: u64,
}

impl Snapshot {
    /// Reads a `<label>.metrics.json` file.
    pub fn load(path: &Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
        let v = parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
        let numbers = |key: &str, missing: f64| match &v[key] {
            JsonValue::Object(map) => map
                .iter()
                .map(|(k, n)| (k.clone(), n.as_f64().unwrap_or(missing)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Snapshot {
            counters: numbers("counters", 0.0)
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            gauges: numbers("gauges", f64::NAN).into_iter().collect(),
            dropped_non_finite: v["dropped_non_finite"].as_f64().unwrap_or(0.0) as u64,
        })
    }

    /// A counter's value, 0 when the snapshot lacks it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Each metric that counts trace events, and the event kind it counts.
/// Every shutdown writes one snapshot, so both count `shutdown`.
const EVENT_COUNTERS: [(&str, &str); 19] = [
    (names::RUNS, "meta"),
    (names::EMISSIONS, "emit"),
    (names::DECISIONS, "decision"),
    (names::RETRIES, "retry"),
    (names::QUARANTINES, "quarantine"),
    (names::SHEDS, "shed"),
    (names::ADMITS, "admit"),
    (names::DEPARTS, "depart"),
    (names::ESTIMATE_AUDITS, "estimate"),
    (names::FAULTS, "fault"),
    (names::INGEST_AUDITS, "ingest"),
    (names::SERVE_REJECTS, "reject"),
    (names::SERVE_SHUTDOWNS, "shutdown"),
    (names::SERVE_SNAPSHOTS, "shutdown"),
    (names::SERVE_RESTORES, "restore"),
    // End-of-run `Stats` must agree with the event stream too.
    ("caqe_stats_tuples_emitted", "emit"),
    ("caqe_stats_region_retries", "retry"),
    ("caqe_stats_regions_quarantined", "quarantine"),
    ("caqe_stats_regions_shed", "shed"),
];

/// Cross-validates a snapshot against its trace's fold; each problem
/// starts with the claim that failed.
pub fn reconcile(snap: &Snapshot, f: &Fold) -> Vec<String> {
    let mut problems = Vec::new();
    let mut claim = |what: &str, metric: u64, trace: u64| {
        if metric != trace {
            problems.push(format!("{what}: metric says {metric}, trace says {trace}"));
        }
    };
    for (name, ev) in EVENT_COUNTERS {
        claim(name, snap.counter(name), f.count(ev));
    }
    for (kind, n) in &f.spans {
        let key = caqe_obs::key(names::SPANS, &[("kind", kind)]);
        claim(&key, snap.counter(&key), *n);
    }
    for (q, (n, _)) in &f.queries {
        let key = caqe_obs::key(names::EMISSIONS, &[("query", &q.to_string())]);
        claim(&key, snap.counter(&key), *n);
    }
    // Engine invariants, for strategies that schedule regions (baseline
    // traces carry no decisions).
    if f.count("decision") > 0 {
        let region_spans = f.spans.get("region").copied().unwrap_or(0);
        claim(
            "decisions = region spans + retries + quarantines",
            snap.counter(names::DECISIONS),
            region_spans + f.count("retry") + f.count("quarantine"),
        );
        claim(
            "caqe_stats_regions_processed = region spans",
            snap.counter("caqe_stats_regions_processed"),
            region_spans,
        );
    }
    // Screening is invisible to the trace, so these relate the snapshot's
    // own diagnostic counters.
    let builds = snap.counter("caqe_stats_sig_builds");
    let hits = snap.counter("caqe_stats_presort_cache_hits");
    if builds == 0 && hits > 0 {
        problems.push(format!("screens reused {hits} times, never built"));
    }
    if hits > 0 && snap.counter("caqe_stats_presort_cache_misses") == 0 {
        problems.push(format!("screens reused {hits} times, never attached"));
    }
    problems
}
