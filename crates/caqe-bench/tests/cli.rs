//! The drivers refuse input they do not understand: an unknown flag or
//! section name, or a missing required flag, exits 2 naming the token,
//! before anything runs. Exit 1 is kept for a failed check.

use std::process::Command;

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
fn trace_report_without_a_trace_dir_is_a_usage_error() {
    refused(env!("CARGO_BIN_EXE_trace_report"), &["--check"], "--trace");
}

#[test]
fn obs_report_without_a_metrics_dir_is_a_usage_error() {
    refused(env!("CARGO_BIN_EXE_obs_report"), &[], "--metrics");
}
