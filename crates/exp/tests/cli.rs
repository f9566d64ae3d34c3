//! `mrs-repro serve` and `mrs-repro schedule` reject malformed arguments
//! with the usage message and a non-zero exit code instead of silently
//! truncating, ignoring or panicking on them.

use std::process::Command;

fn repro(subcommand: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mrs-repro"))
        .arg(subcommand)
        .args(args)
        .output()
        .expect("mrs-repro runs")
}

/// Asserts `subcommand` refuses every argument set in `bad` with the
/// usage message on stderr and nothing on stdout.
fn assert_rejected(subcommand: &str, bad: &[&[&str]]) {
    for args in bad {
        let out = repro(subcommand, args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert_eq!(out.status.code(), Some(1), "{args:?} did not exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn serve_rejects_bad_arguments() {
    assert_rejected(
        "serve",
        &[
            &["--queries", "2.5"],
            &["--seed", "1.9"],
            &["--sites", "-4"],
            &["--mtbf", "-1"],
            &["--deadline", "-0.5"],
            &["--mtbf", "inf"],
            &["--deadline", "NaN"],
            &["--load", "1e308"],
            &["--load", "1e-320"],
            &["--queries"],
            &["--shards", "2"],
            &["--no-batch"],
        ],
    );
    // Control: the same options with well-formed values run.
    let ok = repro(
        "serve",
        &[
            "--queries",
            "2",
            "--sites",
            "4",
            "--seed",
            "7",
            "--mtbf",
            "0",
        ],
    );
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}

#[test]
fn schedule_rejects_bad_arguments() {
    assert_rejected(
        "schedule",
        &[
            &["--joins", "2.5"],
            &["--seed", "1.9"],
            &["--sites", "-4"],
            &["--f", "-1"],
            &["--f", "nan"],
            &["--f", "inf"],
            &["--joins"],
            &["--shards", "2"],
        ],
    );
    // Control: the same options with well-formed values run.
    let ok = repro(
        "schedule",
        &["--joins", "2", "--sites", "4", "--seed", "7", "--f", "0.7"],
    );
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("TREESCHEDULE"));
}
