//! Offline report over the trace and metrics directories the drivers
//! write with `--trace <dir>` and `--metrics <dir>` (DESIGN.md §11, §16).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin report -- --trace <dir> [--metrics <dir>]
//! ```
//!
//! Both directories are walked recursively; `<label>.jsonl` pairs with the
//! `<label>.metrics.json` at the same relative path. Each trace is
//! summarized and checked through the one fold that makes the metrics
//! ([`caqe_obs::Fold`]), each snapshot read back
//! ([`MetricsRegistry::from_json`]) and shown as a dashboard and, when both
//! directories are given, reconciled with its trace. A failed check or
//! reconcile, or a snapshot that does not read, exits 1; neither flag, 2.

use caqe_bench::audit::{check_siblings, reconcile};
use caqe_bench::report::{cli_arg, cli_args};
use caqe_obs::{names, Fold, MetricsRegistry, ObsCollector, ObsConfig};
use std::collections::BTreeMap;
use std::io::{self, Write};
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

/// Reads and folds one trace, and every problem its rules and its
/// siblings' check find.
fn read_trace(path: &Path) -> Result<(ObsCollector, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let events = caqe_trace::from_jsonl(&text).map_err(|e| e.to_string())?;
    let mut c = ObsCollector::new(ObsConfig::default());
    c.ingest_events(&events);
    let mut problems = c.fold().problems();
    problems.extend(check_siblings(path, &events));
    Ok((c, problems))
}

fn summary(out: &mut impl Write, f: &Fold) -> io::Result<()> {
    let counts: Vec<String> = f.events.iter().map(|(k, v)| format!("{k}={v}")).collect();
    writeln!(out, "  events: {}", counts.join("  "))?;
    for (q, (n, sat)) in &f.queries {
        writeln!(
            out,
            "  query {q}: {n} emissions, final satisfaction {sat:.3}"
        )?;
    }
    let (admits, departs) = (f.count("admit"), f.count("depart"));
    if admits + departs > 0 {
        writeln!(
            out,
            "  session: {admits} admission(s), {departs} departure(s)"
        )?;
    }
    let [rejects, shutdowns, restores] = ["reject", "shutdown", "restore"].map(|ev| f.count(ev));
    if rejects + shutdowns + restores > 0 {
        writeln!(
            out,
            "  serving: {rejects} reject(s), {shutdowns} shutdown(s), {restores} restore(s)"
        )?;
    }
    let (audits, (sum, max)) = (f.count("estimate"), f.estimator);
    if audits > 0 {
        let mean = sum / audits as f64;
        writeln!(
            out,
            "  estimator: {audits} audits, ticks rel-error mean {mean:.3} max {max:.3}"
        )?;
    }
    for (dur, kind, group) in &f.longest {
        match group {
            Some(g) => writeln!(out, "  span {} (group {g}): {dur} ticks", kind.name())?,
            None => writeln!(out, "  span {}: {dur} ticks", kind.name())?,
        }
    }
    let dropped = f.non_finite;
    if dropped > 0 {
        writeln!(
            out,
            "  warning: {dropped} non-finite value(s) dropped to null by the JSON exporter"
        )?;
    }
    Ok(())
}

/// Prints `what: name=value …` for the non-zero parts, if any.
fn nonzero(out: &mut impl Write, what: &str, parts: &[(&str, u64)]) -> io::Result<()> {
    let shown: Vec<String> = parts
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !shown.is_empty() {
        writeln!(out, "  {what}: {}", shown.join("  "))?;
    }
    Ok(())
}

/// Extracts the `query="N"` label value from a metric key.
fn query_of(key: &str) -> Option<&str> {
    key.split("query=\"").nth(1)?.split('"').next()
}

fn dashboard(out: &mut impl Write, reg: &MetricsRegistry) -> io::Result<()> {
    let c = |name: &str| reg.counter(name).unwrap_or(0);
    let stat = |field: &str| c(&format!("{}{field}", names::STATS_PREFIX));
    writeln!(
        out,
        "  runs {}  decisions {}  emissions {}  estimate audits {}",
        c(names::RUNS),
        c(names::DECISIONS),
        c(names::EMISSIONS),
        c(names::ESTIMATE_AUDITS),
    )?;
    let lifecycle = [
        ("faults", c(names::FAULTS)),
        ("retries", c(names::RETRIES)),
        ("quarantined", c(names::QUARANTINES)),
        ("shed", c(names::SHEDS)),
        ("admits", c(names::ADMITS)),
        ("departs", c(names::DEPARTS)),
    ];
    nonzero(out, "lifecycle", &lifecycle)?;
    let serving = [
        ("submits", c(names::SERVE_SUBMITS)),
        ("rejects", c(names::SERVE_REJECTS)),
        ("epochs", c(names::SERVE_EPOCHS)),
        ("snapshots", c(names::SERVE_SNAPSHOTS)),
        ("restores", c(names::SERVE_RESTORES)),
        ("expired", c(names::SERVE_DEADLINE_EXPIRED)),
    ];
    nonzero(out, "serving", &serving)?;
    let phases = ["build", "probe", "insert", "emit"].map(|p| (p, stat(&format!("{p}_ticks"))));
    let total: u64 = phases.iter().map(|(_, t)| t).sum();
    if total > 0 {
        let parts: Vec<String> = phases
            .iter()
            .map(|(p, t)| format!("{p} {t} ({:.0}%)", 100.0 * *t as f64 / total as f64))
            .collect();
        writeln!(out, "  phase ticks: {}", parts.join("  "))?;
        writeln!(
            out,
            "  phase dominance charges: build {}  insert {}  emit {}",
            stat("build_dom_cmps"),
            stat("insert_dom_cmps"),
            stat("emit_region_cmps")
        )?;
    }
    let prune = [
        ("sig builds", stat("sig_builds")),
        ("cache hits", stat("presort_cache_hits")),
        ("cache misses", stat("presort_cache_misses")),
    ];
    if prune.iter().any(|(_, v)| *v > 0) {
        let parts: Vec<String> = prune.iter().map(|(k, v)| format!("{k} {v}")).collect();
        writeln!(out, "  prune layer: {}", parts.join("  "))?;
    }
    let skipped = stat("rows_skipped");
    if skipped > 0 {
        writeln!(
            out,
            "  row look-ahead: {skipped} rows skipped, {} join results not made ({} made)",
            stat("skipped_join_results"),
            stat("join_results")
        )?;
    }
    // Per-query satisfaction and SLO state, in query order.
    let mut sats: Vec<(u64, f64)> = reg
        .gauges()
        .filter(|(k, _)| k.starts_with(names::SATISFACTION) && !k.starts_with(names::SLO_AT_RISK))
        .filter_map(|(k, v)| Some((query_of(k)?.parse::<u64>().ok()?, v)))
        .collect();
    sats.sort_unstable_by_key(|(q, _)| *q);
    if !sats.is_empty() {
        let parts: Vec<String> = sats.iter().map(|(q, v)| format!("q{q}={v:.3}")).collect();
        writeln!(out, "  satisfaction: {}", parts.join("  "))?;
    }
    let at_risk: Vec<String> = reg
        .gauges()
        .filter(|(k, v)| k.starts_with(names::SLO_AT_RISK) && *v == 1.0)
        .filter_map(|(k, _)| Some(format!("q{}", query_of(k)?)))
        .collect();
    let transitions = c(names::SLO_TRANSITIONS);
    if !at_risk.is_empty() || transitions > 0 {
        writeln!(
            out,
            "  SLO: at risk [{}], {transitions} at-risk transition(s)",
            at_risk.join(", ")
        )?;
    }
    let dropped = reg.dropped_non_finite();
    if dropped > 0 {
        writeln!(
            out,
            "  warning: {dropped} non-finite gauge value(s) dropped by the metrics registry"
        )?;
    }
    Ok(())
}

/// Prints `ok` or every problem under `what`; whether it passed.
fn verdict(out: &mut impl Write, what: &str, ok: &str, problems: &[String]) -> io::Result<bool> {
    if problems.is_empty() {
        writeln!(out, "  {what}: ok{ok}")?;
    }
    for p in problems {
        writeln!(out, "  {what}: FAIL {p}")?;
    }
    Ok(problems.is_empty())
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
    // One locked handle for every line; a reader that closes early (`| head`)
    // ends the report quietly.
    let mut out = io::stdout().lock();
    let passed = report(&mut out, &traces, &snapshots, trace_dir.is_some()).and_then(|passed| {
        out.flush()?;
        Ok(passed)
    });
    match passed {
        Ok(passed) => ExitCode::from(u8::from(!passed)),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reports every label of `traces` and `snapshots` to `out`; whether every
/// check (and, `with_traces`, every reconcile) passed.
fn report(
    out: &mut impl Write,
    traces: &BTreeMap<String, PathBuf>,
    snapshots: &BTreeMap<String, PathBuf>,
    with_traces: bool,
) -> io::Result<bool> {
    let mut labels: Vec<&String> = traces.keys().chain(snapshots.keys()).collect();
    labels.sort();
    labels.dedup();
    let mut passed = true;
    for label in labels {
        let folded = traces.get(label).map(|path| read_trace(path));
        match &folded {
            Some(Ok((c, _))) => writeln!(out, "== {label} ({}) ==", c.fold().strategy)?,
            _ => writeln!(out, "== {label} ==")?,
        }
        match &folded {
            Some(Ok((c, problems))) => {
                summary(out, c.fold())?;
                passed &= verdict(out, "check", "", problems)?;
            }
            Some(Err(e)) => passed &= verdict(out, "check", "", std::slice::from_ref(e))?,
            None => {}
        }
        let Some(path) = snapshots.get(label) else {
            continue;
        };
        let read = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"));
        let reg = match read
            .and_then(|text| MetricsRegistry::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(reg) => reg,
            Err(e) => {
                passed &= verdict(out, "metrics", "", &[e])?;
                continue;
            }
        };
        dashboard(out, &reg)?;
        if with_traces {
            let (problems, events) = match &folded {
                Some(Ok((c, _))) => (reconcile(&reg, c.fold()), c.fold().events.values().sum()),
                Some(Err(_)) => (vec!["its trace does not read".into()], 0),
                None => (vec![format!("no {label}.jsonl trace")], 0),
            };
            passed &= verdict(
                out,
                "reconcile",
                &format!(" ({events} event(s))"),
                &problems,
            )?;
        }
    }
    Ok(passed)
}
