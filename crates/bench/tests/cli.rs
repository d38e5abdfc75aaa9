//! `evaluate` rejects what it does not understand: a misspelled command
//! in a CI step must fail the step, not run nothing and exit 0, and so
//! must a misspelled worker count in the environment. And `evaluate all`
//! still prints the committed `docs/evaluate_output.txt`. `greenweb_lint`
//! answers `--help` with the usage block of its module doc, and a bad
//! argument with the same block on stderr and exit status 2.

use std::process::Command;

fn exit_code(args: &[&str]) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .args(args)
        .output()
        .expect("evaluate runs");
    if output.status.code() == Some(2) {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: evaluate"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
    output.status.code().expect("evaluate exited")
}

#[test]
fn unknown_commands_flags_and_stray_words_exit_2() {
    assert_eq!(exit_code(&["bogus"]), 2);
    assert_eq!(exit_code(&["--jsno", "attribute"]), 2);
    assert_eq!(exit_code(&["fig9a", "extra"]), 2);
}

#[test]
fn a_known_command_exits_0() {
    assert_eq!(exit_code(&["table1"]), 0);
}

#[test]
fn a_malformed_worker_count_in_the_environment_is_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .arg("table1")
        .env("GREENWEB_JOBS", "two")
        .output()
        .expect("evaluate runs");
    assert!(!output.status.success(), "GREENWEB_JOBS=two was accepted");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("GREENWEB_JOBS=\"two\" is not a worker count"),
        "{stderr}"
    );
}

/// The committed `docs/evaluate_output.txt` is the one record of every
/// figure and table; `cargo test` catches a drift, not only CI.
#[test]
fn evaluate_all_matches_the_committed_output() {
    let output = Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .args(["--jobs", "2", "all"])
        .output()
        .expect("evaluate runs");
    assert!(output.status.success(), "evaluate --jobs 2 all failed");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        stdout == include_str!("../../../docs/evaluate_output.txt"),
        "`evaluate --jobs 2 all` drifted from docs/evaluate_output.txt"
    );
}

/// The usage block of `greenweb_lint`'s module doc, one line per entry.
fn lint_usage_in_module_doc() -> String {
    let source = include_str!("../src/bin/greenweb_lint.rs");
    let block = source
        .split_once("//! ```text\n")
        .and_then(|(_, rest)| rest.split_once("//! ```\n"))
        .expect("the module doc has a usage block")
        .0;
    block
        .lines()
        .map(|line| format!("{}\n", line.trim_start_matches("//! ")))
        .collect()
}

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_greenweb_lint"))
        .args(args)
        .output()
        .expect("greenweb_lint runs")
}

#[test]
fn greenweb_lint_help_prints_the_module_doc_usage() {
    let usage = format!("usage:\n{}", lint_usage_in_module_doc());
    for help in ["--help", "-h"] {
        let output = lint(&[help]);
        assert_eq!(output.status.code(), Some(0), "{help}");
        assert_eq!(String::from_utf8_lossy(&output.stdout), usage, "{help}");
    }
}

#[test]
fn greenweb_lint_rejects_unknown_words_and_missing_values_with_usage() {
    let usage = format!("usage:\n{}", lint_usage_in_module_doc());
    for args in [
        &["--bogus"][..],
        &["Todo"],
        &["--write"],
        &["--check"],
        &["--workload"],
        &["--json", "--jobs"],
    ] {
        let output = lint(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.ends_with(&usage), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
