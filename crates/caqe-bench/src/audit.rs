//! What the `report` binary checks (DESIGN.md §11, §16) beyond the rules
//! of `caqe_obs::Fold`, the one fold over a trace's events that also
//! makes the metrics: the trace's exported siblings, and the reconcile of
//! a metrics snapshot with its trace. The metrics being a view of that
//! fold, the reconcile compares only what the engine counted itself, its
//! `Stats`, with the trace.

use caqe_obs::{key, Fold, MetricsRegistry};
use caqe_trace::{chrome_trace, estimator_summary, satisfaction_csv, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;

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

/// Each `Stats` counter that counts trace events, and the event kind.
const STATS_EVENTS: [(&str, &str); 4] = [
    ("caqe_stats_tuples_emitted", "emit"),
    ("caqe_stats_region_retries", "retry"),
    ("caqe_stats_regions_quarantined", "quarantine"),
    ("caqe_stats_regions_shed", "shed"),
];

/// Cross-validates a snapshot's `Stats` counters with its trace's fold; a
/// counter the snapshot lacks reads 0. Each problem starts with the claim
/// that failed.
pub fn reconcile(reg: &MetricsRegistry, f: &Fold) -> Vec<String> {
    let counter = |name: &str| reg.counter(name).unwrap_or(0);
    let mut problems = Vec::new();
    let mut claim = |what: &str, metric: u64, trace: u64| {
        if metric != trace {
            problems.push(format!("{what}: metric says {metric}, trace says {trace}"));
        }
    };
    for (name, ev) in STATS_EVENTS {
        claim(name, counter(name), f.count(ev));
    }
    // Per query, over every query either side names: (metric, trace).
    let emitted = STATS_EVENTS[0].0;
    let mut per_query: BTreeMap<String, (u64, u64)> = f
        .queries
        .iter()
        .map(|(q, (n, _))| (key(emitted, &[("query", &q.to_string())]), (0, *n)))
        .collect();
    let labelled = format!("{emitted}{{");
    for (k, n) in reg.counters().filter(|(k, _)| k.starts_with(&labelled)) {
        per_query.entry(k.to_string()).or_default().0 = n;
    }
    for (k, (metric, trace)) in per_query {
        claim(&k, metric, trace);
    }
    // Strategies that schedule regions (baseline traces carry no decisions).
    if f.count("decision") > 0 {
        claim(
            "caqe_stats_regions_processed = region spans",
            counter("caqe_stats_regions_processed"),
            f.region_spans,
        );
    }
    // Screening is invisible to the trace, so these relate the snapshot's
    // own diagnostic counters.
    let builds = counter("caqe_stats_sig_builds");
    let hits = counter("caqe_stats_presort_cache_hits");
    if builds == 0 && hits > 0 {
        problems.push(format!("screens reused {hits} times, never built"));
    }
    if hits > 0 && counter("caqe_stats_presort_cache_misses") == 0 {
        problems.push(format!("screens reused {hits} times, never attached"));
    }
    problems
}
