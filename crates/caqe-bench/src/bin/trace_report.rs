//! Offline summarizer and validator for trace directories produced with
//! `--trace <dir>` (see DESIGN.md §11).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin trace_report -- --trace <dir> [--check]
//! ```
//!
//! Per `*.jsonl` stream found (recursively): event counts, per-query
//! emission totals and final satisfaction, estimator-accuracy aggregates
//! and the longest phase spans. With `--check`, the tool instead acts as a
//! validator — every line must parse, emission ticks must be monotone
//! non-decreasing (the virtual clock never runs backwards), per-query
//! emission sequence numbers must be gapless from 1, and the sibling
//! `.satisfaction.csv` must exist with a monotone `virtual_seconds` column.
//! Chaos events (DESIGN.md §13) are validated too: a `quarantine` must be
//! preceded by at least one `retry` for the same region, and a region that
//! was `shed` must never appear in a later scheduling decision.
//! Any violation exits 1, so CI can gate on it; a missing `--trace` is a
//! usage error and exits 2.

use caqe_bench::json::{parse, JsonValue};
use caqe_bench::report::{cli_args, cli_flag, cli_trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect_jsonl(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_jsonl(&p, out);
        } else if p.extension().is_some_and(|e| e == "jsonl") {
            out.push(p);
        }
    }
}

/// One stream's digest; `problems` is non-empty only when validation fails.
#[derive(Default)]
struct Digest {
    counts: BTreeMap<String, u64>,
    strategy: String,
    /// query id -> (emissions, final satisfaction).
    queries: BTreeMap<u64, (u64, f64)>,
    /// (duration ticks, kind, group) of the longest spans.
    spans: Vec<(u64, String, Option<u64>)>,
    estimator: (u64, f64, f64), // audits, Σ ticks_err, max ticks_err
    /// (group, region) -> retry count, for the quarantine-implies-retry rule.
    retries: BTreeMap<(u64, u64), u64>,
    /// (group, region) -> tick it was shed at; shed regions must never be
    /// scheduled again.
    shed: BTreeMap<(u64, u64), u64>,
    /// Queries declared by the run's `meta` line (the initial workload).
    initial_queries: u64,
    /// query -> admission tick, for queries added by session events.
    admitted: BTreeMap<u64, u64>,
    /// query -> departure tick; a departed query must never emit again.
    departed: BTreeMap<u64, u64>,
    /// `null` values in the stream — the JSON exporter writes non-finite
    /// floats as `null`, so every one is a dropped number worth a warning.
    nulls: u64,
    /// Serving-layer admission rejects (`reject` events).
    rejects: u64,
    /// Line a `shutdown` event was seen at; nothing may execute after it.
    shutdown_line: Option<usize>,
    /// Whether any `decision`/`emit` activity was seen yet — a `restore`
    /// must precede all of it (a server restores before serving).
    activity_seen: bool,
    problems: Vec<String>,
}

/// Recursively counts `null` values (non-finite floats dropped at export).
fn count_nulls(v: &JsonValue) -> u64 {
    match v {
        JsonValue::Null => 1,
        JsonValue::Array(items) => items.iter().map(count_nulls).sum(),
        JsonValue::Object(map) => map.values().map(count_nulls).sum(),
        _ => 0,
    }
}

fn group_region(v: &caqe_bench::json::JsonValue) -> (u64, u64) {
    (
        v["group"].as_f64().unwrap_or(-1.0) as u64,
        v["region"].as_f64().unwrap_or(-1.0) as u64,
    )
}

fn digest(path: &Path) -> Digest {
    let mut d = Digest::default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            d.problems.push(format!("unreadable: {e}"));
            return d;
        }
    };
    let mut last_emit_tick = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let v = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                d.problems.push(format!("line {}: {e}", lineno + 1));
                continue;
            }
        };
        d.nulls += count_nulls(&v);
        let ev = v["ev"].as_str().unwrap_or("?").to_string();
        *d.counts.entry(ev.clone()).or_insert(0) += 1;
        match ev.as_str() {
            "meta" => {
                if let Some(s) = v["strategy"].as_str() {
                    if d.strategy.is_empty() {
                        d.strategy = s.to_string();
                    }
                }
                d.initial_queries = v["queries"].as_f64().unwrap_or(0.0) as u64;
            }
            "emit" => {
                d.activity_seen = true;
                if let Some(at) = d.shutdown_line {
                    d.problems.push(format!(
                        "line {}: emission after the shutdown at line {at}",
                        lineno + 1
                    ));
                }
                let tick = v["tick"].as_f64().unwrap_or(-1.0) as u64;
                if tick < last_emit_tick {
                    d.problems.push(format!(
                        "line {}: emission tick {tick} precedes {last_emit_tick}",
                        lineno + 1
                    ));
                }
                last_emit_tick = tick;
                let q = v["query"].as_f64().unwrap_or(-1.0) as u64;
                // Session lifetime rules: a query only emits between its
                // admission (birth at tick 0 for the initial workload) and
                // its departure.
                if q >= d.initial_queries && !d.admitted.contains_key(&q) {
                    d.problems.push(format!(
                        "line {}: emission for query {q} before its admission",
                        lineno + 1
                    ));
                }
                if let Some(depart_tick) = d.departed.get(&q) {
                    if tick > *depart_tick {
                        d.problems.push(format!(
                            "line {}: query {q} emitted at tick {tick} after departing \
                             at tick {depart_tick}",
                            lineno + 1
                        ));
                    }
                }
                let seq = v["seq"].as_f64().unwrap_or(0.0) as u64;
                let sat = v["satisfaction"].as_f64().unwrap_or(f64::NAN);
                let entry = d.queries.entry(q).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 = sat;
                if seq != entry.0 {
                    d.problems.push(format!(
                        "line {}: query {q} emission seq {seq}, expected {}",
                        lineno + 1,
                        entry.0
                    ));
                }
            }
            "span" => {
                let start = v["start_tick"].as_f64().unwrap_or(0.0) as u64;
                let end = v["end_tick"].as_f64().unwrap_or(0.0) as u64;
                d.spans.push((
                    end.saturating_sub(start),
                    v["kind"].as_str().unwrap_or("?").to_string(),
                    v["group"].as_f64().map(|g| g as u64),
                ));
            }
            "estimate" => {
                let err = v["ticks_err"].as_f64().unwrap_or(f64::NAN);
                d.estimator.0 += 1;
                d.estimator.1 += err;
                d.estimator.2 = d.estimator.2.max(err);
            }
            "decision" => {
                d.activity_seen = true;
                if let Some(at) = d.shutdown_line {
                    d.problems.push(format!(
                        "line {}: scheduling decision after the shutdown at line {at}",
                        lineno + 1
                    ));
                }
                // A shed region must never be scheduled again: shedding
                // retires it from the dependency graph, so any later
                // Decision naming it means the degradation path leaked.
                let key = group_region(&v);
                let tick = v["tick"].as_f64().unwrap_or(-1.0) as u64;
                if let Some(shed_tick) = d.shed.get(&key) {
                    if tick >= *shed_tick {
                        d.problems.push(format!(
                            "line {}: region {}/{} scheduled at tick {tick} after being \
                             shed at tick {shed_tick}",
                            lineno + 1,
                            key.0,
                            key.1
                        ));
                    }
                }
            }
            "fault" | "ingest" => {}
            "retry" => {
                *d.retries.entry(group_region(&v)).or_insert(0) += 1;
            }
            "quarantine" => {
                // Quarantine is the terminal state of the retry ladder —
                // it can only be reached after at least one recorded retry
                // for the same region.
                let key = group_region(&v);
                if d.retries.get(&key).copied().unwrap_or(0) == 0 {
                    d.problems.push(format!(
                        "line {}: region {}/{} quarantined without a prior retry",
                        lineno + 1,
                        key.0,
                        key.1
                    ));
                }
            }
            "shed" => {
                let tick = v["tick"].as_f64().unwrap_or(-1.0) as u64;
                d.shed.insert(group_region(&v), tick);
            }
            "admit" => {
                let q = v["query"].as_f64().unwrap_or(-1.0) as u64;
                let tick = v["tick"].as_f64().unwrap_or(-1.0) as u64;
                // Global query slots are never reused: an admission must
                // name a fresh id past the initial workload.
                if q < d.initial_queries || d.admitted.contains_key(&q) {
                    d.problems.push(format!(
                        "line {}: admission reuses query slot {q}",
                        lineno + 1
                    ));
                }
                d.admitted.insert(q, tick);
            }
            "depart" => {
                let q = v["query"].as_f64().unwrap_or(-1.0) as u64;
                let tick = v["tick"].as_f64().unwrap_or(-1.0) as u64;
                if q >= d.initial_queries && !d.admitted.contains_key(&q) {
                    d.problems.push(format!(
                        "line {}: departure of never-admitted query {q}",
                        lineno + 1
                    ));
                }
                if d.departed.contains_key(&q) {
                    d.problems
                        .push(format!("line {}: query {q} departed twice", lineno + 1));
                }
                d.departed.insert(q, tick);
            }
            "reject" => {
                d.rejects += 1;
                // A queue-full reject is only honest backpressure when the
                // queue really was at its bound.
                if v["reason"].as_str() == Some("full") {
                    let depth = v["depth"].as_f64().unwrap_or(-1.0);
                    let bound = v["bound"].as_f64().unwrap_or(f64::INFINITY);
                    if depth < bound {
                        d.problems.push(format!(
                            "line {}: queue-full reject at depth {depth} below bound {bound}",
                            lineno + 1
                        ));
                    }
                }
            }
            "shutdown" => {
                if d.shutdown_line.is_some() {
                    d.problems
                        .push(format!("line {}: second shutdown event", lineno + 1));
                }
                d.shutdown_line = Some(lineno + 1);
            }
            "restore" => {
                // A restore happens before the server serves anything:
                // decision/emit activity before it means the stream mixes a
                // live run with a restored one.
                if d.activity_seen {
                    d.problems.push(format!(
                        "line {}: restore after decision/emission activity",
                        lineno + 1
                    ));
                }
            }
            other => {
                d.problems
                    .push(format!("line {}: unknown event kind `{other}`", lineno + 1));
            }
        }
    }
    d.spans.sort_by_key(|s| std::cmp::Reverse(s.0));
    d.spans.truncate(3);
    check_csv(path, &mut d);
    d
}

/// The sibling `.satisfaction.csv` must exist and be monotone in virtual
/// time (emissions happen in clock order).
fn check_csv(jsonl: &Path, d: &mut Digest) {
    let csv = jsonl.with_extension("").with_extension("satisfaction.csv");
    let text = match std::fs::read_to_string(&csv) {
        Ok(t) => t,
        Err(_) => {
            d.problems
                .push(format!("missing sibling {}", csv.display()));
            return;
        }
    };
    let mut last = f64::NEG_INFINITY;
    for (lineno, line) in text.lines().enumerate().skip(1) {
        let Some(first) = line.split(',').next() else {
            continue;
        };
        let Ok(secs) = first.parse::<f64>() else {
            d.problems.push(format!(
                "csv line {}: bad virtual_seconds `{first}`",
                lineno + 1
            ));
            continue;
        };
        if secs < last {
            d.problems.push(format!(
                "csv line {}: virtual_seconds {secs} precedes {last}",
                lineno + 1
            ));
        }
        last = secs;
    }
}

fn main() -> ExitCode {
    let (args, _) = cli_args("--trace", "--check", "");
    let Some(dir) = cli_trace(&args) else {
        eprintln!("usage: trace_report --trace <dir> [--check]");
        return ExitCode::from(2);
    };
    let check = cli_flag(&args, "--check");

    let mut files = Vec::new();
    collect_jsonl(&dir, &mut files);
    if files.is_empty() {
        eprintln!("no .jsonl traces under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for path in &files {
        let d = digest(path);
        let rel = path.strip_prefix(&dir).unwrap_or(path);
        let counts: Vec<String> = d.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("== {} ({}) ==", rel.display(), d.strategy);
        println!("  events: {}", counts.join("  "));
        for (q, (n, sat)) in &d.queries {
            println!("  query {q}: {n} emissions, final satisfaction {sat:.3}");
        }
        if !d.admitted.is_empty() || !d.departed.is_empty() {
            println!(
                "  session: {} admission(s), {} departure(s)",
                d.admitted.len(),
                d.departed.len()
            );
        }
        let serving = |kind: &str| d.counts.get(kind).copied().unwrap_or(0);
        if d.rejects + serving("shutdown") + serving("restore") > 0 {
            println!(
                "  serving: {} reject(s), {} shutdown(s), {} restore(s)",
                d.rejects,
                serving("shutdown"),
                serving("restore")
            );
        }
        if d.estimator.0 > 0 {
            println!(
                "  estimator: {} audits, ticks rel-error mean {:.3} max {:.3}",
                d.estimator.0,
                d.estimator.1 / d.estimator.0 as f64,
                d.estimator.2
            );
        }
        for (dur, kind, group) in &d.spans {
            match group {
                Some(g) => println!("  span {kind} (group {g}): {dur} ticks"),
                None => println!("  span {kind}: {dur} ticks"),
            }
        }
        if d.nulls > 0 {
            println!(
                "  warning: {} non-finite value(s) dropped to null by the JSON exporter",
                d.nulls
            );
        }
        if check {
            if d.problems.is_empty() {
                println!("  check: ok");
            } else {
                failed = true;
                for p in &d.problems {
                    println!("  check: FAIL {p}");
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
