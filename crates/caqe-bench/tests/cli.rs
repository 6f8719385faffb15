//! The drivers refuse input they do not understand: an unknown flag or
//! section name exits 2 naming the token, before anything runs.

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
