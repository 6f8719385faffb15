//! The drivers refuse input they do not understand: an unknown flag or
//! section name, or a missing required flag, exits 2 naming the token,
//! before anything runs. Exit 1 is kept for a failed check, which a trace
//! line with a missing or mistyped field is.

use caqe_trace::TraceEvent;
use std::process::{Command, Stdio};

fn refused(bin: &str, args: &[&str], token: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("driver starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(token),
        "{args:?}: stderr does not name `{token}`: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
}

#[test]
fn paper_refuses_an_unknown_section() {
    refused(env!("CARGO_BIN_EXE_paper"), &["bogus"], "`bogus`");
}

#[test]
fn paper_refuses_a_retired_scale_flag() {
    refused(env!("CARGO_BIN_EXE_paper"), &["fig9", "--n", "5"], "`--n`");
}

#[test]
fn caqe_run_refuses_a_misspelt_flag() {
    refused(env!("CARGO_BIN_EXE_caqe_run"), &["--nn", "300"], "`--nn`");
}

#[test]
fn report_without_a_directory_is_a_usage_error() {
    refused(env!("CARGO_BIN_EXE_report"), &[], "--trace");
    refused(env!("CARGO_BIN_EXE_report"), &["--metrics"], "--metrics");
    refused(env!("CARGO_BIN_EXE_report"), &["--check"], "`--check`");
}

#[test]
fn serve_soak_waits_for_sigterm_only_after_its_epochs() {
    // The wait follows `--kill-after-epochs`: alone, it would have no
    // point at which to stop serving.
    let args = [
        "--mode",
        "run",
        "--sigterm-wait",
        "--snapshot",
        "unused.snap",
    ];
    refused(
        env!("CARGO_BIN_EXE_serve_soak"),
        &args,
        "--kill-after-epochs",
    );
}

/// A trace with one event of each kind the cases below damage, and the
/// region span its decision ends in.
fn trace() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Meta {
            strategy: "CAQE".into(),
            queries: 1,
            ticks_per_second: 100.0,
            start_tick: 0,
        },
        TraceEvent::Decision {
            tick: 5,
            group: 0,
            region: 3,
            policy: "contract",
            root: true,
            score: 1.5,
            csm: 1.25,
            prog_est: 0.75,
            est_ticks: 40,
            weights: vec![1.0],
        },
        TraceEvent::Emission {
            tick: 80,
            query: 0,
            seq: 1,
            rid: 3,
            tid: 0,
            utility: 1.0,
            satisfaction: 0.5,
        },
        TraceEvent::Span {
            kind: caqe_trace::SpanKind::Region,
            group: Some(0),
            region: Some(3),
            start_tick: 5,
            end_tick: 90,
        },
    ]
}

/// Runs `report` over a directory holding the trace above with `from`
/// replaced by `to` on line `line` (1-based).
fn report_edited(line: usize, from: &str, to: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("caqe_report_cli_{}_{line}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    caqe_trace::write_trace(&dir, "run", &trace()).expect("trace written");
    let path = dir.join("run.jsonl");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let lines: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i + 1 == line {
                l.replace(from, to)
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&path, lines.join("\n") + "\n").expect("trace rewritten");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--trace", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("report starts");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_dropped_or_garbled_field_fails_the_check_naming_line_and_field() {
    let (code, stdout) = report_edited(0, "", "");
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("check: ok"), "{stdout}");
    for (line, from, to, named) in [
        (3, "\"tick\":80,", "", "line 3: field `tick`"),
        (
            2,
            "\"region\":3",
            "\"region\":3.5",
            "line 2: field `region`",
        ),
        (2, "contract", "bogus", "line 2: field `policy`"),
    ] {
        let (code, stdout) = report_edited(line, from, to);
        assert_eq!(code, Some(1), "{named}: {stdout}");
        assert!(
            stdout.contains(&format!("check: FAIL {named}")),
            "{named}: {stdout}"
        );
    }
}

#[test]
fn report_exits_quietly_when_its_reader_closes_early() {
    // One emission for each of 4,000 queries: the summary's per-query lines
    // run past any pipe buffer, so the writes fail even if the read end
    // closes only after the first of them.
    let queries: u16 = 4000;
    let mut events = vec![TraceEvent::Meta {
        strategy: "CAQE".into(),
        queries: queries.into(),
        ticks_per_second: 100.0,
        start_tick: 0,
    }];
    events.extend((0..queries).map(|q| TraceEvent::Emission {
        tick: 10 + u64::from(q),
        query: q,
        seq: 1,
        rid: q.into(),
        tid: 0,
        utility: 1.0,
        satisfaction: 0.5,
    }));
    let dir = std::env::temp_dir().join(format!("caqe_report_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    caqe_trace::write_trace(&dir, "run", &events).expect("trace written");
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--trace", dir.to_str().expect("utf-8 path")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("report starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("report ends");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// Runs `report` over `dir` (its `trace` and, if present, `metrics`
/// subdirectories), then removes `dir`.
fn report_dir(dir: &std::path::Path) -> (Option<i32>, String) {
    let mut args = vec![
        "--trace".to_string(),
        dir.join("trace").display().to_string(),
    ];
    if dir.join("metrics").exists() {
        args.extend([
            "--metrics".to_string(),
            dir.join("metrics").display().to_string(),
        ]);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(&args)
        .output()
        .expect("report starts");
    let _ = std::fs::remove_dir_all(dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_garbled_metrics_snapshot_fails_naming_the_key() {
    for (from, to, named) in [
        ("", "", ""),
        (
            "\"caqe_stats_regions_shed\":0",
            "\"caqe_stats_regions_shed\":\"zero\"",
            "`counters.caqe_stats_regions_shed`",
        ),
        ("\"gauges\":{", "\"gauges\":\"gone\",\"was\":{", "`gauges`"),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "caqe_report_metrics_{}_{}",
            std::process::id(),
            named.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        caqe_trace::write_trace(&dir.join("trace"), "run", &trace()).expect("trace written");
        let mut c = caqe_obs::ObsCollector::new(caqe_obs::ObsConfig::default());
        c.ingest_events(&trace());
        let mut stats = caqe_types::Stats::new();
        stats.tuples_emitted = 1;
        stats.regions_processed = 1;
        stats.ensure_queries(1);
        stats.per_query[0].tuples_emitted = 1;
        c.ingest_stats(&stats);
        let json = c.registry().to_json();
        assert!(json.contains(from), "{json}");
        std::fs::create_dir_all(dir.join("metrics")).expect("metrics dir");
        std::fs::write(
            dir.join("metrics/run.metrics.json"),
            json.replacen(from, to, 1),
        )
        .expect("snapshot written");
        let (code, stdout) = report_dir(&dir);
        if named.is_empty() {
            assert_eq!(code, Some(0), "{stdout}");
            assert!(stdout.contains("reconcile: ok"), "{stdout}");
        } else {
            assert_eq!(code, Some(1), "{named}: {stdout}");
            assert!(
                stdout.contains(&format!("metrics: FAIL {named}")),
                "{named}: {stdout}"
            );
        }
    }
}

#[test]
fn infinite_floats_export_as_the_null_they_read_back_as() {
    let mut events = trace();
    if let TraceEvent::Meta {
        ticks_per_second, ..
    } = &mut events[0]
    {
        *ticks_per_second = f64::INFINITY;
    }
    for est_join in [f64::INFINITY, f64::NEG_INFINITY] {
        events.push(TraceEvent::EstimateAudit {
            scheduled_tick: 5,
            completed_tick: 9,
            group: 0,
            region: 3,
            estimate: caqe_regions::ReconciledEstimate {
                est_join,
                est_skyline: 1.0,
                est_ticks: 4,
                actual_join: 2,
                actual_skyline: 1,
                actual_ticks: 4,
            },
        });
    }
    let dir = std::env::temp_dir().join(format!("caqe_report_inf_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    caqe_trace::write_trace(&dir.join("trace"), "run", &events).expect("trace written");
    let (code, stdout) = report_dir(&dir);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("check: ok"), "{stdout}");
}
