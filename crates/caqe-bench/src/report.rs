//! Plain-text and JSON rendering of comparison rows.

use crate::experiment::ComparisonRow;
use caqe_data::{Distribution, ValidationPolicy};
use caqe_faults::FaultPlan;

/// Renders rows as an aligned plain-text table, one line per row.
pub fn render_table(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<9} {:<15} {:<4} {:>4} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
        "strategy",
        "distribution",
        "ctr",
        "|Q|",
        "avg-sat",
        "p-score",
        "joins",
        "dom-cmps",
        "virt-sec",
        "results"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<15} {:<4} {:>4} {:>8.3} {:>12.1} {:>12} {:>12} {:>10.2} {:>8}\n",
            r.strategy,
            r.distribution,
            r.contract,
            r.workload_size,
            r.avg_satisfaction,
            r.total_p_score,
            r.join_results,
            r.dom_comparisons,
            r.virtual_seconds,
            r.results
        ));
    }
    // Degradation summary: only printed when fault handling actually fired,
    // so fault-free reports look exactly as before.
    let (retries, quar, shed, iq, ic) = rows.iter().fold((0, 0, 0, 0, 0), |a, r| {
        (
            a.0 + r.region_retries,
            a.1 + r.regions_quarantined,
            a.2 + r.regions_shed,
            a.3 + r.ingest_quarantined,
            a.4 + r.ingest_clamped,
        )
    });
    if retries + quar + shed + iq + ic > 0 {
        out.push_str(&format!(
            "-- degradation: {retries} retries, {quar} quarantined, {shed} shed, \
             {iq} records quarantined at ingest, {ic} values clamped\n"
        ));
    }
    out
}

/// Serializes rows as JSON lines (one object per row) for machine use.
/// Non-finite numbers are serialized as `null` — see
/// [`render_jsonl_counted`] for surfacing how many.
pub fn render_jsonl(rows: &[ComparisonRow]) -> String {
    render_jsonl_counted(rows).0
}

/// [`render_jsonl`] plus the total count of non-finite values that were
/// serialized as `null`; drivers print the count in their report summary
/// instead of dropping the information silently.
pub fn render_jsonl_counted(rows: &[ComparisonRow]) -> (String, u64) {
    let mut dropped = 0;
    let text = rows
        .iter()
        .map(|r| {
            let (json, n) = r.to_json_counted();
            dropped += n;
            json
        })
        .collect::<Vec<_>>()
        .join("\n");
    (text, dropped)
}

/// The value following `key`, `Ok(None)` when the flag is absent, and an
/// error naming the flag when it is present with no value after it (last
/// argument, or followed by another `--flag`).
fn cli_lookup(args: &[String], key: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{key} needs a value")),
    }
}

/// Parses a `--key value`-style CLI, returning the value for `key`. A flag
/// given without a value exits with code 2 — treating it as absent would
/// let e.g. `--n` silently run the default size.
pub fn cli_arg(args: &[String], key: &str) -> Option<String> {
    match cli_lookup(args, key) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Parses `--key value` into any `FromStr` type, `None` when the flag is
/// absent. A present-but-unparsable value exits with code 2 and a
/// contextual message naming the flag and the offending text — drivers must
/// never panic on user input.
pub fn cli_parse_opt<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    cli_arg(args, key).map(|text| match text.parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad {key} value `{text}`: {e}");
            std::process::exit(2);
        }
    })
}

/// [`cli_parse_opt`] falling back to `default` when the flag is absent.
pub fn cli_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    cli_parse_opt(args, key).unwrap_or(default)
}

/// Parses the shared `--dist <name>` knob (`None` when absent). An unknown
/// distribution exits with code 2 naming the flag.
pub fn cli_dist(args: &[String]) -> Option<Distribution> {
    cli_arg(args, "--dist").map(|d| match Distribution::parse(&d) {
        Some(dist) => dist,
        None => {
            eprintln!("bad --dist value `{d}` (expected independent|correlated|anticorrelated)");
            std::process::exit(2);
        }
    })
}

/// Whether a bare flag is present.
pub fn cli_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Parses the shared `--threads <n>` knob (`0` = all cores) and says on
/// stderr that it is inert: the value lands in `ExecConfig::parallelism`,
/// which the serial engine ignores (stdout, traces and JSON are untouched).
/// Call it once per process.
pub fn cli_threads(args: &[String]) -> Option<usize> {
    let threads = cli_parse_opt(args, "--threads");
    if threads.is_some() {
        eprintln!("--threads has no effect: the engine is serial until ROADMAP item 4 lands");
    }
    threads
}

/// Parses the shared `--trace <dir>` knob: when present, every run also
/// writes its deterministic trace exports (JSONL, satisfaction CSV,
/// Chrome-trace spans, estimator audit) into the directory.
pub fn cli_trace(args: &[String]) -> Option<std::path::PathBuf> {
    cli_arg(args, "--trace").map(std::path::PathBuf::from)
}

/// Parses the shared `--metrics <dir>` knob: when present, every run also
/// writes its deterministic metrics snapshot (`<label>.metrics.json` +
/// `<label>.prom`, DESIGN.md §16) into the directory.
pub fn cli_metrics(args: &[String]) -> Option<std::path::PathBuf> {
    cli_arg(args, "--metrics").map(std::path::PathBuf::from)
}

/// Parses the shared `--faults <spec>` knob into a deterministic fault
/// plan (see [`FaultPlan::parse`] for the spec grammar, e.g.
/// `seed=7,panic=0.2,spike=0.3x8`). Exits with the parse error on a bad
/// spec. Absent flag → inert plan.
pub fn cli_faults(args: &[String]) -> FaultPlan {
    match cli_arg(args, "--faults") {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                if plan.is_active() {
                    // Injected panics are caught by the engine; keep their
                    // banners out of the driver's report.
                    caqe_faults::silence_injected_panics();
                }
                plan
            }
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                std::process::exit(2);
            }
        },
        None => FaultPlan::none(),
    }
}

/// Parses the shared `--validation reject|quarantine|clamp` knob (absent
/// flag → the `Reject` default). Exits with the parse error on a bad name.
pub fn cli_validation(args: &[String]) -> ValidationPolicy {
    match cli_arg(args, "--validation") {
        Some(name) => match ValidationPolicy::parse(&name) {
            Ok(policy) => policy,
            Err(e) => {
                eprintln!("bad --validation policy: {e}");
                std::process::exit(2);
            }
        },
        None => ValidationPolicy::default(),
    }
}

/// Parses both chaos knobs at once — every execution driver takes
/// `--faults <spec>` and `--validation <policy>` (DESIGN.md §13).
pub fn cli_chaos(args: &[String]) -> (FaultPlan, ValidationPolicy) {
    (cli_faults(args), cli_validation(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> ComparisonRow {
        ComparisonRow {
            strategy: "CAQE".into(),
            distribution: "independent".into(),
            contract: "C2".into(),
            workload_size: 11,
            avg_satisfaction: 0.82,
            total_p_score: 123.4,
            join_results: 1000,
            dom_comparisons: 5000,
            region_comparisons: 700,
            virtual_seconds: 12.5,
            wall_seconds: 0.2,
            results: 88,
            region_retries: 0,
            regions_quarantined: 0,
            regions_shed: 0,
            ingest_quarantined: 0,
            ingest_clamped: 0,
        }
    }

    #[test]
    fn table_contains_key_fields() {
        let s = render_table("Figure 9.b", &[row()]);
        assert!(s.contains("Figure 9.b"));
        assert!(s.contains("CAQE"));
        assert!(s.contains("0.820"));
        assert!(s.contains("independent"));
    }

    #[test]
    fn jsonl_round_trips() {
        let s = render_jsonl(&[row(), row()]);
        assert_eq!(s.lines().count(), 2);
        let v = crate::json::parse(s.lines().next().unwrap()).unwrap();
        assert_eq!(v["strategy"], "CAQE");
        assert_eq!(v["join_results"], 1000);
    }

    #[test]
    fn degradation_summary_only_when_faults_fired() {
        let clean = render_table("t", &[row()]);
        assert!(!clean.contains("degradation"));
        let mut r = row();
        r.region_retries = 3;
        r.regions_quarantined = 1;
        let chaotic = render_table("t", &[r]);
        assert!(chaotic.contains("degradation: 3 retries, 1 quarantined"));
    }

    #[test]
    fn jsonl_counts_dropped_non_finite_values() {
        let (_, none) = render_jsonl_counted(&[row()]);
        assert_eq!(none, 0);
        let mut r = row();
        r.avg_satisfaction = f64::NAN;
        r.virtual_seconds = f64::INFINITY;
        let (text, dropped) = render_jsonl_counted(&[r]);
        assert_eq!(dropped, 2);
        assert!(text.contains("\"avg_satisfaction\":null"));
    }

    #[test]
    fn cli_faults_parses_specs() {
        let none: Vec<String> = vec![];
        assert!(!cli_faults(&none).is_active());
        let args: Vec<String> = ["--faults", "seed=9,panic=0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let plan = cli_faults(&args);
        assert!(plan.is_active());
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn cli_helpers() {
        let args: Vec<String> = ["--dist", "correlated", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(cli_arg(&args, "--dist").as_deref(), Some("correlated"));
        assert_eq!(cli_arg(&args, "--n"), None);
        assert!(cli_flag(&args, "--full"));
        assert!(!cli_flag(&args, "--quick"));
    }

    #[test]
    fn flag_without_value_is_an_error_not_absent() {
        let args: Vec<String> = ["--trace", "--check", "--threads"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            cli_lookup(&args, "--threads"),
            Err("--threads needs a value".to_string())
        );
        assert_eq!(
            cli_lookup(&args, "--trace"),
            Err("--trace needs a value".to_string())
        );
        assert_eq!(cli_lookup(&args, "--events"), Ok(None));
    }
}
