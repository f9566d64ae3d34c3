//! `mrs-repro serve` rejects malformed arguments with the usage message
//! and a non-zero exit code instead of silently truncating or ignoring
//! them.

use std::process::Command;

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mrs-repro"))
        .arg("serve")
        .args(args)
        .output()
        .expect("mrs-repro runs")
}

#[test]
fn serve_rejects_bad_arguments() {
    for bad in [
        &["--queries", "2.5"][..],
        &["--seed", "1.9"],
        &["--sites", "-4"],
        &["--mtbf", "-1"],
        &["--deadline", "-0.5"],
        &["--mtbf", "inf"],
        &["--deadline", "NaN"],
        &["--queries"],
        &["--shards", "2"],
        &["--no-batch"],
    ] {
        let out = serve(bad);
        assert!(!out.status.success(), "{bad:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} served anyway");
    }
    // Control: the same options with well-formed values run.
    let ok = serve(&[
        "--queries",
        "2",
        "--sites",
        "4",
        "--seed",
        "7",
        "--mtbf",
        "0",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
