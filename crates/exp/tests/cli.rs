//! `mrs-repro serve` and `mrs-repro schedule` reject malformed arguments
//! with the usage message and a non-zero exit code instead of silently
//! truncating, ignoring or panicking on them, and `serve` fails rather
//! than hangs when its virtual clock can no longer advance.

use std::process::Command;
use std::time::{Duration, Instant};

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

#[test]
fn serve_fails_instead_of_hanging_on_a_stalled_clock() {
    // Load 1e-300 spaces arrivals near 1e300, where a clone's duration
    // is below one ULP of the clock: the runtime must report the stall
    // and exit 1 rather than spin.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrs-repro"))
        .args(["serve", "--load", "1e-300"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("mrs-repro runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child is waitable") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("child is killable");
            child.wait().expect("killed child is reaped");
            panic!("serve --load 1e-300 still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("stderr is readable");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("runtime failed:"), "{stderr}");
    assert!(stderr.contains("stalled"), "{stderr}");
}
