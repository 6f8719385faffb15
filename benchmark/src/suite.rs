//! The whole benchmark: every workload, untraced and traced, one child
//! process each (so peak RSS is per workload), and the repeat check.

use crate::json::Json;
use crate::report::END_TO_END;
use crate::workloads::SPECS;
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the run of `workload` stores its row.
pub fn row_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn read_json(path: &Path) -> Option<Json> {
    Json::parse(std::fs::read_to_string(path).ok()?.trim()).ok()
}

/// Runs all ten children, then gathers their rows into `results.json` and
/// their calibration reports into `tick_calibration.json`. `None` if a
/// child failed or left no row.
fn run_all(args: &Args) -> Option<Vec<Json>> {
    let exe = std::env::current_exe().ok()?;
    let mut ok = true;
    for spec in SPECS {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out);
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(r) = args.reps {
                cmd.args(["--reps", &r.to_string()]);
            }
            // `status` waits for the child; its output goes straight through.
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} trace={}: {s}", spec.name, u8::from(trace));
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{}: cannot start {}: {e}", spec.name, exe.display());
                    ok = false;
                }
            }
        }
    }
    let mut rows = Vec::new();
    let mut calibrations = Vec::new();
    for spec in SPECS {
        for trace in [false, true] {
            rows.push(read_json(&row_path(&args.out, spec.name, trace))?);
        }
        let path = args
            .out
            .join(format!("{}.tick_calibration.json", spec.name));
        calibrations.push(read_json(&path)?);
    }
    let write = |name: &str, doc: Json| {
        std::fs::write(args.out.join(name), format!("{}\n", doc.to_json()))
            .map_err(|e| eprintln!("cannot write {name}: {e}"))
            .is_ok()
    };
    ok &= write(
        "results.json",
        Json::obj([("rows", Json::Arr(rows.clone()))]),
    );
    ok &= write("tick_calibration.json", Json::Arr(calibrations));
    ok.then_some(rows)
}

/// One line of the repeat check: how far two runs of one commit lie apart
/// on one metric, against the bound (`None`: the values must be equal).
#[derive(Debug, PartialEq)]
pub struct Repeat {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    pub spread: f64,
    pub bound: Option<f64>,
    pub ok: bool,
}

/// Compares the rows of two full runs. End-to-end metrics may differ by
/// their bound — except `satisfaction_mean`, which is a virtual-clock value
/// and must repeat exactly, like every count and the digests.
pub fn compare(first: &[Json], second: &[Json]) -> Vec<Repeat> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let mut push = |metric: &str, x: f64, y: f64, bound: Option<f64>| {
            let spread = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(f64::MIN_POSITIVE)
            };
            out.push(Repeat {
                workload: workload.to_string(),
                metric: metric.to_string(),
                first: x,
                second: y,
                spread,
                bound,
                ok: spread <= bound.unwrap_or(0.0),
            });
        };
        let same_digest =
            a.get("digest").and_then(Json::as_str) == b.get("digest").and_then(Json::as_str);
        push("digest", 0.0, if same_digest { 0.0 } else { 1.0 }, None);
        let Some(fields) = a.get("metrics").and_then(Json::as_object) else {
            continue;
        };
        for (name, ma) in fields {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(x), Some(y)) = (
                value(ma),
                b.get("metrics").and_then(|m| m.get(name)).and_then(value),
            ) else {
                continue;
            };
            let bound = END_TO_END
                .iter()
                .find(|d| d.name == name)
                .and_then(|d| d.bound);
            let exact = name == "satisfaction_mean"
                || ma.get("unit").and_then(Json::as_str) == Some("count");
            match (bound, exact) {
                (_, true) => push(name, x, y, None),
                (Some(b), false) => push(name, x, y, Some(b)),
                (None, false) => {}
            }
        }
    }
    out
}

/// The suite, or with `--verify-repeat` the suite twice and the comparison
/// (stored in `verify_repeat.json`, spread beside bound).
pub fn run(args: &Args) -> bool {
    let Some(first) = run_all(args) else {
        return false;
    };
    if !args.verify_repeat {
        return true;
    }
    let Some(second) = run_all(args) else {
        return false;
    };
    let lines = compare(&first, &second);
    println!("== verify-repeat: two runs of one commit");
    for l in &lines {
        println!(
            "  {:<14} {:<34} {:>14.6} {:>14.6}  spread {:>8.4}  bound {:<6} {}",
            l.workload,
            l.metric,
            l.first,
            l.second,
            l.spread,
            l.bound.map_or("exact".to_string(), |b| b.to_string()),
            if l.ok { "ok" } else { "FAILED" }
        );
    }
    let doc = Json::Arr(
        lines
            .iter()
            .map(|l| {
                Json::obj([
                    ("workload", Json::str(l.workload.as_str())),
                    ("metric", Json::str(l.metric.as_str())),
                    ("first", Json::Num(l.first)),
                    ("second", Json::Num(l.second)),
                    ("spread", Json::Num(l.spread)),
                    ("bound", l.bound.map_or(Json::Null, Json::Num)),
                    ("ok", Json::Bool(l.ok)),
                ])
            })
            .collect(),
    );
    let path = args.out.join("verify_repeat.json");
    if let Err(e) = std::fs::write(&path, format!("{}\n", doc.to_json())) {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }
    lines.iter().all(|l| l.ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(digest: &str, wall: f64, sat: f64, decisions: f64) -> Json {
        Json::obj([
            ("workload", Json::str("anti_tuple")),
            ("digest", Json::str(digest)),
            (
                "metrics",
                Json::obj([
                    (
                        "e2e_wall_s",
                        Json::obj([("value", Json::Num(wall)), ("unit", Json::str("s"))]),
                    ),
                    (
                        "satisfaction_mean",
                        Json::obj([("value", Json::Num(sat)), ("unit", Json::str("ratio"))]),
                    ),
                    (
                        "engine.decisions",
                        Json::obj([
                            ("value", Json::Num(decisions)),
                            ("unit", Json::str("count")),
                        ]),
                    ),
                    (
                        "engine.tuple_s",
                        Json::obj([("value", Json::Num(wall)), ("unit", Json::str("s"))]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn repeat_check_bounds_timings_and_pins_counts() {
        let a = [row("aa", 1.00, 0.4, 59.0)];
        let within = compare(&a, &[row("aa", 1.08, 0.4, 59.0)]);
        assert!(within.iter().all(|l| l.ok), "{within:?}");
        // Per-layer timings are not gated: digest, wall, satisfaction, count.
        assert_eq!(within.len(), 4);
        let wall = within.iter().find(|l| l.metric == "e2e_wall_s").unwrap();
        assert!((wall.spread - 0.08).abs() < 1e-12);
        assert_eq!(wall.bound, Some(0.25));

        let failed = |rows: &[Json]| -> Vec<String> {
            compare(&a, rows)
                .into_iter()
                .filter(|l| !l.ok)
                .map(|l| l.metric)
                .collect()
        };
        assert_eq!(failed(&[row("aa", 1.3, 0.4, 59.0)]), ["e2e_wall_s"]);
        assert_eq!(
            failed(&[row("aa", 1.0, 0.4000001, 59.0)]),
            ["satisfaction_mean"]
        );
        assert_eq!(failed(&[row("aa", 1.0, 0.4, 60.0)]), ["engine.decisions"]);
        assert_eq!(failed(&[row("ab", 1.0, 0.4, 59.0)]), ["digest"]);
    }
}
