//! Offline report over the trace and metrics directories the drivers
//! write with `--trace <dir>` and `--metrics <dir>` (DESIGN.md §11, §16).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin report -- --trace <dir> [--metrics <dir>]
//! ```
//!
//! Both directories are walked recursively; `<label>.jsonl` pairs with the
//! `<label>.metrics.json` at the same relative path. Each trace is
//! summarized and checked ([`caqe_bench::audit::fold`]), each snapshot
//! shown as a dashboard and, when both directories are given, reconciled
//! with its trace. A failed check or reconcile exits 1; neither flag, 2.

use caqe_bench::audit::{check_siblings, fold, reconcile, Fold, Snapshot};
use caqe_bench::report::{cli_arg, cli_args};
use caqe_obs::names;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files under `dir` named `*<suffix>`, recursively, keyed by their path
/// relative to `root` without the suffix.
fn collect(root: &Path, dir: &Path, suffix: &str, out: &mut BTreeMap<String, PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            collect(root, &path, suffix, out);
        } else if let Some(label) = path
            .strip_prefix(root)
            .ok()
            .and_then(|rel| rel.to_str()?.strip_suffix(suffix))
        {
            out.insert(label.to_string(), path.clone());
        }
    }
}

/// Reads and folds one trace; its siblings' check joins the rules'.
fn read_trace(path: &Path) -> Result<Fold, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let events = caqe_trace::from_jsonl(&text).map_err(|e| e.to_string())?;
    let mut f = fold(&events);
    f.problems.extend(check_siblings(path, &events));
    Ok(f)
}

fn summary(f: &Fold) {
    let counts: Vec<String> = f.events.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("  events: {}", counts.join("  "));
    for (q, (n, sat)) in &f.queries {
        println!("  query {q}: {n} emissions, final satisfaction {sat:.3}");
    }
    let (admits, departs) = (f.count("admit"), f.count("depart"));
    if admits + departs > 0 {
        println!("  session: {admits} admission(s), {departs} departure(s)");
    }
    let [rejects, shutdowns, restores] = ["reject", "shutdown", "restore"].map(|ev| f.count(ev));
    if rejects + shutdowns + restores > 0 {
        println!("  serving: {rejects} reject(s), {shutdowns} shutdown(s), {restores} restore(s)");
    }
    let (audits, sum, max) = f.estimator;
    if audits > 0 {
        let mean = sum / audits as f64;
        println!("  estimator: {audits} audits, ticks rel-error mean {mean:.3} max {max:.3}");
    }
    for (dur, kind, group) in &f.longest {
        match group {
            Some(g) => println!("  span {} (group {g}): {dur} ticks", kind.name()),
            None => println!("  span {}: {dur} ticks", kind.name()),
        }
    }
    let dropped = f.non_finite;
    if dropped > 0 {
        println!("  warning: {dropped} non-finite value(s) dropped to null by the JSON exporter");
    }
}

/// Prints `what: name=value …` for the non-zero parts, if any.
fn nonzero(what: &str, parts: &[(&str, u64)]) {
    let shown: Vec<String> = parts
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !shown.is_empty() {
        println!("  {what}: {}", shown.join("  "));
    }
}

/// Extracts the `query="N"` label value from a metric key.
fn query_of(key: &str) -> Option<&str> {
    key.split("query=\"").nth(1)?.split('"').next()
}

fn dashboard(snap: &Snapshot) {
    let c = |name: &str| snap.counter(name);
    let stat = |field: &str| c(&format!("{}{field}", names::STATS_PREFIX));
    println!(
        "  runs {}  decisions {}  emissions {}  estimate audits {}",
        c(names::RUNS),
        c(names::DECISIONS),
        c(names::EMISSIONS),
        c(names::ESTIMATE_AUDITS),
    );
    let lifecycle = [
        ("faults", c(names::FAULTS)),
        ("retries", c(names::RETRIES)),
        ("quarantined", c(names::QUARANTINES)),
        ("shed", c(names::SHEDS)),
        ("admits", c(names::ADMITS)),
        ("departs", c(names::DEPARTS)),
    ];
    nonzero("lifecycle", &lifecycle);
    let serving = [
        ("submits", c(names::SERVE_SUBMITS)),
        ("rejects", c(names::SERVE_REJECTS)),
        ("epochs", c(names::SERVE_EPOCHS)),
        ("snapshots", c(names::SERVE_SNAPSHOTS)),
        ("restores", c(names::SERVE_RESTORES)),
        ("expired", c(names::SERVE_DEADLINE_EXPIRED)),
    ];
    nonzero("serving", &serving);
    let phases = ["build", "probe", "insert", "emit"].map(|p| (p, stat(&format!("{p}_ticks"))));
    let total: u64 = phases.iter().map(|(_, t)| t).sum();
    if total > 0 {
        let parts: Vec<String> = phases
            .iter()
            .map(|(p, t)| format!("{p} {t} ({:.0}%)", 100.0 * *t as f64 / total as f64))
            .collect();
        println!("  phase ticks: {}", parts.join("  "));
        println!(
            "  phase dominance charges: build {}  insert {}  emit {}",
            stat("build_dom_cmps"),
            stat("insert_dom_cmps"),
            stat("emit_region_cmps")
        );
    }
    let prune = [
        ("sig builds", stat("sig_builds")),
        ("cache hits", stat("presort_cache_hits")),
        ("cache misses", stat("presort_cache_misses")),
    ];
    if prune.iter().any(|(_, v)| *v > 0) {
        let parts: Vec<String> = prune.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("  prune layer: {}", parts.join("  "));
    }
    let skipped = stat("rows_skipped");
    if skipped > 0 {
        println!(
            "  row look-ahead: {skipped} rows skipped, {} join results not made ({} made)",
            stat("skipped_join_results"),
            stat("join_results")
        );
    }
    // Per-query satisfaction and SLO state, in query order.
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
    let transitions = c(names::SLO_TRANSITIONS);
    if !at_risk.is_empty() || transitions > 0 {
        println!(
            "  SLO: at risk [{}], {transitions} at-risk transition(s)",
            at_risk.join(", ")
        );
    }
    let dropped = snap.dropped_non_finite;
    if dropped > 0 {
        println!("  warning: {dropped} non-finite gauge value(s) dropped by the metrics registry");
    }
}

/// Prints `ok` or every problem under `what`; whether it passed.
fn verdict(what: &str, ok: &str, problems: &[String]) -> bool {
    if problems.is_empty() {
        println!("  {what}: ok{ok}");
    }
    for p in problems {
        println!("  {what}: FAIL {p}");
    }
    problems.is_empty()
}

fn main() -> ExitCode {
    let (args, _) = cli_args("--trace --metrics", "", "");
    let trace_dir = cli_arg(&args, "--trace").map(PathBuf::from);
    let metrics_dir = cli_arg(&args, "--metrics").map(PathBuf::from);
    if trace_dir.is_none() && metrics_dir.is_none() {
        eprintln!("usage: report --trace <dir> [--metrics <dir>] (give at least one of the two)");
        return ExitCode::from(2);
    }
    let (mut traces, mut snapshots) = (BTreeMap::new(), BTreeMap::new());
    for (dir, suffix, found) in [
        (&trace_dir, ".jsonl", &mut traces),
        (&metrics_dir, ".metrics.json", &mut snapshots),
    ] {
        if let Some(dir) = dir {
            collect(dir, dir, suffix, found);
            if found.is_empty() {
                eprintln!("no {suffix} files under {}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut labels: Vec<&String> = traces.keys().chain(snapshots.keys()).collect();
    labels.sort();
    labels.dedup();
    let mut passed = true;
    for label in labels {
        let folded = traces.get(label).map(|path| read_trace(path));
        match &folded {
            Some(Ok(f)) => println!("== {label} ({}) ==", f.strategy),
            _ => println!("== {label} =="),
        }
        match &folded {
            Some(Ok(f)) => {
                summary(f);
                passed &= verdict("check", "", &f.problems);
            }
            Some(Err(e)) => passed &= verdict("check", "", std::slice::from_ref(e)),
            None => {}
        }
        let Some(path) = snapshots.get(label) else {
            continue;
        };
        let snap = match Snapshot::load(path) {
            Ok(snap) => snap,
            Err(e) => {
                passed &= verdict("metrics", "", &[e]);
                continue;
            }
        };
        dashboard(&snap);
        if trace_dir.is_some() {
            let (problems, events) = match &folded {
                Some(Ok(f)) => (reconcile(&snap, f), f.events.values().sum()),
                Some(Err(_)) => (vec!["its trace does not read".into()], 0),
                None => (vec![format!("no {label}.jsonl trace")], 0),
            };
            passed &= verdict("reconcile", &format!(" ({events} event(s))"), &problems);
        }
    }
    ExitCode::from(u8::from(!passed))
}
