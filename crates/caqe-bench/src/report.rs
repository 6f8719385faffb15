//! JSON rendering of comparison rows and the drivers' shared CLI parsing.

use crate::experiment::ComparisonRow;
use caqe_data::ValidationPolicy;
use caqe_faults::FaultPlan;

/// Serializes rows as JSON lines (one object per row) for machine use,
/// plus the total count of non-finite values that were serialized as
/// `null`; drivers report the count instead of dropping the information
/// silently.
pub fn render_jsonl(rows: &[ComparisonRow]) -> (String, u64) {
    let mut dropped = 0;
    let text = rows
        .iter()
        .map(|r| {
            let (json, n) = r.to_json();
            dropped += n;
            json
        })
        .collect::<Vec<_>>()
        .join("\n");
    (text, dropped)
}

/// Checks every token of `args` against what a driver accepts, each list
/// whitespace-separated: a flag in `valued` takes the next token as its
/// value, a flag in `bare` takes none, and any other token must be one of
/// `words`. Returns the words given, in order; the error names the first
/// token that is none of these.
fn check_args(
    args: &[String],
    valued: &str,
    bare: &str,
    words: &str,
) -> Result<Vec<String>, String> {
    let listed = |list: &str, token: &str| list.split_whitespace().any(|w| w == token);
    let mut given = Vec::new();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if listed(valued, token) {
            if !tokens.next().is_some_and(|v| !v.starts_with("--")) {
                return Err(format!("{token} needs a value"));
            }
        } else if token.starts_with("--") {
            if !listed(bare, token) {
                return Err(format!("unknown flag `{token}`"));
            }
        } else if !listed(words, token) {
            return Err(if words.is_empty() {
                format!("unexpected argument `{token}`")
            } else {
                let expected: Vec<&str> = words.split_whitespace().collect();
                format!(
                    "unknown argument `{token}` (expected {})",
                    expected.join("|")
                )
            });
        } else {
            given.push(token.clone());
        }
    }
    Ok(given)
}

/// The process arguments and the words among them, checked by
/// [`check_args`] before the driver runs anything: an unknown flag or word
/// exits with code 2 naming it, so a typo such as `--nn 300` never silently
/// runs the defaults.
pub fn cli_args(valued: &str, bare: &str, words: &str) -> (Vec<String>, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match check_args(&args, valued, bare, words) {
        Ok(given) => (args, given),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
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

/// Parses `--key value` into any `FromStr` type, `default` when the flag
/// is absent. A present-but-unparsable value exits with code 2 and a
/// contextual message naming the flag and the offending text — drivers must
/// never panic on user input.
pub fn cli_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match cli_arg(args, key) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|e| {
            eprintln!("bad {key} value `{text}`: {e}");
            std::process::exit(2);
        }),
    }
}

/// Whether a bare flag is present.
pub fn cli_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
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
        ComparisonRow::sample("CAQE", 0.82, 1000)
    }

    #[test]
    fn jsonl_round_trips() {
        let (s, _) = render_jsonl(&[row(), row()]);
        assert_eq!(s.lines().count(), 2);
        let v = caqe_trace::json::parse(s.lines().next().unwrap()).unwrap();
        assert_eq!(v["strategy"], "CAQE");
        assert_eq!(v["join_results"], 1000);
    }

    #[test]
    fn jsonl_counts_dropped_non_finite_values() {
        let (_, none) = render_jsonl(&[row()]);
        assert_eq!(none, 0);
        let mut r = row();
        r.avg_satisfaction = f64::NAN;
        r.virtual_seconds = f64::INFINITY;
        let (text, dropped) = render_jsonl(&[r]);
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
        let args: Vec<String> = ["--events", "admit@5=0", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(cli_arg(&args, "--events").as_deref(), Some("admit@5=0"));
        assert_eq!(cli_arg(&args, "--n"), None);
        assert!(cli_flag(&args, "--full"));
        assert!(!cli_flag(&args, "--quick"));
    }

    #[test]
    fn flag_without_value_is_an_error_not_absent() {
        let args: Vec<String> = ["--trace", "--check", "--n"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            cli_lookup(&args, "--n"),
            Err("--n needs a value".to_string())
        );
        assert_eq!(
            cli_lookup(&args, "--trace"),
            Err("--trace needs a value".to_string())
        );
        assert_eq!(cli_lookup(&args, "--events"), Ok(None));
    }

    #[test]
    fn unknown_flags_and_words_are_named() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (valued, bare, words) = ("--n --trace", "--json", "fig9 fig10");
        let ok = args(&["fig10", "--json", "--trace", "/tmp/t", "--n", "5"]);
        assert_eq!(
            check_args(&ok, valued, bare, words),
            Ok(vec!["fig10".to_string()])
        );
        assert_eq!(
            check_args(&args(&["--nn", "300"]), valued, bare, words),
            Err("unknown flag `--nn`".to_string())
        );
        assert_eq!(
            check_args(&args(&["bogus"]), valued, bare, words),
            Err("unknown argument `bogus` (expected fig9|fig10)".to_string())
        );
        assert_eq!(
            check_args(&args(&["300"]), valued, bare, ""),
            Err("unexpected argument `300`".to_string())
        );
        assert_eq!(
            check_args(&args(&["--json", "--n"]), valued, bare, words),
            Err("--n needs a value".to_string())
        );
    }
}
