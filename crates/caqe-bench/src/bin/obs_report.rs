//! Text dashboard and reconciliation tool for metrics snapshots produced
//! with `--metrics <dir>` (DESIGN.md §16).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin obs_report -- --metrics <dir>
//!     [--reconcile <trace-dir>]
//! ```
//!
//! Per `*.metrics.json` snapshot found (recursively): the run's counter
//! totals, the phase profile (virtual-tick and dominance-charge breakdown),
//! the prune-layer counts, per-query satisfaction and SLO at-risk state.
//! Snapshots that dropped non-finite gauge values carry a visible warning,
//! like `trace_report` does for the JSON exporter's non-finite→null drops.
//!
//! With `--reconcile <trace-dir>`, every snapshot is paired with the trace
//! stream of the same label (`<label>.jsonl` at the same relative path)
//! and every event-derived counter is cross-validated against counts
//! derived independently from the trace: emissions (total and per query),
//! decisions, spans per kind, retries, quarantines, sheds, admissions,
//! departures, estimate audits, faults and ingestion audits — plus the
//! engine invariants `decisions = region spans + retries + quarantines`
//! and `stats.tuples_emitted = emission events`. Any mismatch exits 1,
//! so CI can gate on metrics/trace agreement; a missing `--metrics` is a
//! usage error and exits 2.

use caqe_bench::json::{parse, JsonValue};
use caqe_bench::report::{cli_arg, cli_args};
use caqe_obs::names;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect_snapshots(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_snapshots(&p, out);
        } else if p
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".metrics.json"))
        {
            out.push(p);
        }
    }
}

/// A parsed snapshot: counters, gauges and the drop counter.
struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    dropped_non_finite: u64,
}

fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let v = parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let mut counters = BTreeMap::new();
    if let JsonValue::Object(map) = &v["counters"] {
        for (k, val) in map {
            counters.insert(k.clone(), val.as_f64().unwrap_or(0.0) as u64);
        }
    }
    let mut gauges = BTreeMap::new();
    if let JsonValue::Object(map) = &v["gauges"] {
        for (k, val) in map {
            gauges.insert(k.clone(), val.as_f64().unwrap_or(f64::NAN));
        }
    }
    Ok(Snapshot {
        counters,
        gauges,
        dropped_non_finite: v["dropped_non_finite"].as_f64().unwrap_or(0.0) as u64,
    })
}

/// Counts derived independently from a `<label>.jsonl` trace stream.
#[derive(Default)]
struct TraceCounts {
    /// `ev` kind -> occurrences.
    events: BTreeMap<String, u64>,
    /// span kind -> occurrences.
    spans: BTreeMap<String, u64>,
    /// query id -> emission count.
    per_query: BTreeMap<u64, u64>,
}

fn trace_counts(path: &Path) -> Result<TraceCounts, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let mut c = TraceCounts::default();
    for (lineno, line) in text.lines().enumerate() {
        let v = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ev = v["ev"].as_str().unwrap_or("?").to_string();
        *c.events.entry(ev.clone()).or_insert(0) += 1;
        match ev.as_str() {
            "span" => {
                let kind = v["kind"].as_str().unwrap_or("?").to_string();
                *c.spans.entry(kind).or_insert(0) += 1;
            }
            "emit" => {
                let q = v["query"].as_f64().unwrap_or(-1.0) as u64;
                *c.per_query.entry(q).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    Ok(c)
}

/// One reconciliation claim: metric value vs trace-derived value.
fn claim(problems: &mut Vec<String>, what: &str, metric: u64, trace: u64) {
    if metric != trace {
        problems.push(format!("{what}: metric says {metric}, trace says {trace}"));
    }
}

/// Cross-validates one snapshot against its trace stream.
fn reconcile(snap: &Snapshot, tc: &TraceCounts) -> Vec<String> {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let event = |kind: &str| tc.events.get(kind).copied().unwrap_or(0);
    let mut problems = Vec::new();
    for (name, kind) in [
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
        // Serving-layer events (wall-clock front door, DESIGN.md §18):
        // every reject/shutdown/restore in the server trace must be
        // counted, and each shutdown writes exactly one snapshot.
        (names::SERVE_REJECTS, "reject"),
        (names::SERVE_SHUTDOWNS, "shutdown"),
        (names::SERVE_SNAPSHOTS, "shutdown"),
        (names::SERVE_RESTORES, "restore"),
    ] {
        claim(&mut problems, name, counter(name), event(kind));
    }
    for (kind, n) in &tc.spans {
        claim(
            &mut problems,
            &format!("{}{{kind={kind}}}", names::SPANS),
            counter(&caqe_obs::key(names::SPANS, &[("kind", kind)])),
            *n,
        );
    }
    for (q, n) in &tc.per_query {
        let label = q.to_string();
        claim(
            &mut problems,
            &format!("{}{{query={q}}}", names::EMISSIONS),
            counter(&caqe_obs::key(names::EMISSIONS, &[("query", &label)])),
            *n,
        );
    }
    // Cross-source: end-of-run Stats must agree with the event stream.
    for (stat, kind) in [
        ("caqe_stats_tuples_emitted", "emit"),
        ("caqe_stats_region_retries", "retry"),
        ("caqe_stats_regions_quarantined", "quarantine"),
        ("caqe_stats_regions_shed", "shed"),
    ] {
        claim(&mut problems, stat, counter(stat), event(kind));
    }
    // Screening invariants (within-snapshot: signature screening is
    // deliberately invisible to the trace stream, so the claims relate the
    // diagnostic counters to each other).
    let builds = counter("caqe_stats_sig_builds");
    let hits = counter("caqe_stats_presort_cache_hits");
    let misses = counter("caqe_stats_presort_cache_misses");
    if builds == 0 && hits > 0 {
        problems.push(format!(
            "screened windows reused ({hits}) without a signature build"
        ));
    }
    if hits > 0 && misses == 0 {
        problems.push(format!(
            "screened windows reused ({hits}) without a single attach — \
             nothing could have screened them"
        ));
    }
    // Engine invariants — only meaningful for strategies that schedule
    // regions (baseline traces carry no decisions).
    if event("decision") > 0 {
        let region_spans = tc.spans.get("region").copied().unwrap_or(0);
        claim(
            &mut problems,
            "decisions = region spans + retries + quarantines",
            counter(names::DECISIONS),
            region_spans + event("retry") + event("quarantine"),
        );
        claim(
            &mut problems,
            "caqe_stats_regions_processed = region spans",
            counter("caqe_stats_regions_processed"),
            region_spans,
        );
    }
    problems
}

/// Extracts the `query="N"` label value from a metric key.
fn query_of(key: &str) -> Option<&str> {
    key.split("query=\"").nth(1)?.split('"').next()
}

fn dashboard(label: &str, snap: &Snapshot) {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!("== {label} ==");
    println!(
        "  runs {}  decisions {}  emissions {}  estimate audits {}",
        counter(names::RUNS),
        counter(names::DECISIONS),
        counter(names::EMISSIONS),
        counter(names::ESTIMATE_AUDITS),
    );
    let degradation = [
        ("faults", counter(names::FAULTS)),
        ("retries", counter(names::RETRIES)),
        ("quarantined", counter(names::QUARANTINES)),
        ("shed", counter(names::SHEDS)),
        ("admits", counter(names::ADMITS)),
        ("departs", counter(names::DEPARTS)),
    ];
    if degradation.iter().any(|(_, v)| *v > 0) {
        let parts: Vec<String> = degradation
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("  lifecycle: {}", parts.join("  "));
    }
    let serving = [
        ("submits", counter(names::SERVE_SUBMITS)),
        ("rejects", counter(names::SERVE_REJECTS)),
        ("epochs", counter(names::SERVE_EPOCHS)),
        ("snapshots", counter(names::SERVE_SNAPSHOTS)),
        ("restores", counter(names::SERVE_RESTORES)),
        ("expired", counter(names::SERVE_DEADLINE_EXPIRED)),
    ];
    if serving.iter().any(|(_, v)| *v > 0) {
        let parts: Vec<String> = serving
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("  serving: {}", parts.join("  "));
    }
    let stat = |field: &str| counter(&format!("{}{field}", names::STATS_PREFIX));
    let phases = ["build", "probe", "insert", "emit"];
    let ticks: Vec<u64> = phases.iter().map(|p| stat(&format!("{p}_ticks"))).collect();
    let total: u64 = ticks.iter().sum();
    if total > 0 {
        let parts: Vec<String> = phases
            .iter()
            .zip(&ticks)
            .map(|(p, t)| format!("{p} {t} ({:.0}%)", 100.0 * *t as f64 / total as f64))
            .collect();
        println!("  phase ticks: {}", parts.join("  "));
        let cmp_parts: Vec<String> = [
            ("build", "build_dom_cmps"),
            ("insert", "insert_dom_cmps"),
            ("emit", "emit_region_cmps"),
        ]
        .iter()
        .map(|(p, field)| format!("{p} {}", stat(field)))
        .collect();
        println!("  phase dominance charges: {}", cmp_parts.join("  "));
    }
    let prune: Vec<(&str, u64)> = [
        ("sig builds", "sig_builds"),
        ("cache hits", "presort_cache_hits"),
        ("cache misses", "presort_cache_misses"),
    ]
    .iter()
    .map(|(show, field)| (*show, stat(field)))
    .collect();
    if prune.iter().any(|(_, v)| *v > 0) {
        let parts: Vec<String> = prune.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("  prune layer: {}", parts.join("  "));
    }
    // Per-query satisfaction + SLO state, in query order.
    let mut sats: Vec<(u64, f64)> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with(names::SATISFACTION) && !k.starts_with(names::SLO_AT_RISK))
        .filter_map(|(k, v)| Some((query_of(k)?.parse::<u64>().ok()?, *v)))
        .collect();
    sats.sort_unstable_by_key(|(q, _)| *q);
    if !sats.is_empty() {
        let parts: Vec<String> = sats.iter().map(|(q, v)| format!("q{q}={v:.3}")).collect();
        println!("  satisfaction: {}", parts.join("  "));
    }
    let at_risk: Vec<String> = snap
        .gauges
        .iter()
        .filter(|(k, v)| k.starts_with(names::SLO_AT_RISK) && **v == 1.0)
        .filter_map(|(k, _)| Some(format!("q{}", query_of(k)?)))
        .collect();
    let transitions = counter(names::SLO_TRANSITIONS);
    if !at_risk.is_empty() || transitions > 0 {
        println!(
            "  SLO: at risk [{}], {transitions} at-risk transition(s)",
            at_risk.join(", ")
        );
    }
    if snap.dropped_non_finite > 0 {
        println!(
            "  warning: {} non-finite gauge value(s) dropped by the metrics registry",
            snap.dropped_non_finite
        );
    }
}

fn main() -> ExitCode {
    let (args, _) = cli_args("--metrics --reconcile", "", "");
    let Some(dir) = cli_arg(&args, "--metrics").map(PathBuf::from) else {
        eprintln!("usage: obs_report --metrics <dir> [--reconcile <trace-dir>]");
        return ExitCode::from(2);
    };
    let reconcile_dir = cli_arg(&args, "--reconcile").map(PathBuf::from);

    let mut files = Vec::new();
    collect_snapshots(&dir, &mut files);
    if files.is_empty() {
        eprintln!("no .metrics.json snapshots under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for path in &files {
        let rel = path.strip_prefix(&dir).unwrap_or(path);
        let label = rel
            .to_string_lossy()
            .trim_end_matches(".metrics.json")
            .to_string();
        let snap = match load_snapshot(path) {
            Ok(s) => s,
            Err(e) => {
                println!("== {label} ==\n  FAIL {e}");
                failed = true;
                continue;
            }
        };
        dashboard(&label, &snap);
        if let Some(tdir) = &reconcile_dir {
            let trace_path = tdir.join(format!("{label}.jsonl"));
            match trace_counts(&trace_path) {
                Ok(tc) => {
                    let problems = reconcile(&snap, &tc);
                    if problems.is_empty() {
                        println!(
                            "  reconcile: ok ({} event(s))",
                            tc.events.values().sum::<u64>()
                        );
                    } else {
                        failed = true;
                        for p in &problems {
                            println!("  reconcile: FAIL {p}");
                        }
                    }
                }
                Err(e) => {
                    failed = true;
                    println!("  reconcile: FAIL {}: {e}", trace_path.display());
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
