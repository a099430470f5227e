//! CLI contract: bad invocations exit 2 with usage on stderr — never a
//! panic, never a silent fallback to the default subcommand.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    for bad in ["frobnicate", "Serve", "--serve"] {
        let out = harness(&[bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = stderr(&out);
        assert!(err.contains("usage"), "{bad}: {err}");
        assert!(!err.contains("panicked"), "{bad}: {err}");
    }
}

#[test]
fn malformed_flags_exit_2() {
    for bad in [
        &["serve", "--capacity", "lots"][..],
        &["serve", "--queue", "-1"],
        &["serve", "--addr"],
        &["submit", "--addr", "127.0.0.1:1", "--fault-seed", "x"],
        &["submit", "--addr", "127.0.0.1:1", "--cells"],
        &["suite", "--threads", "zero"],
        &["jsonl", "--no-such-flag"],
    ] {
        let out = harness(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{bad:?}");
    }
}

#[test]
fn submit_requires_an_address() {
    let out = harness(&["submit"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--addr"), "{}", stderr(&out));
}

#[test]
fn help_documents_the_serving_layer() {
    let out = harness(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned() + &stderr(&out);
    for needle in [
        "serve",
        "submit",
        "--queue",
        "--cache",
        "--trace-dir",
        "--trace-sample",
        "--slow-ms",
        "--replicas",
        "--retry-budget",
        "--breaker-threshold",
        "--timeout-ms",
        "X-Sim-Trace-Id",
    ] {
        assert!(text.contains(needle), "help missing {needle}: {text}");
    }
}

#[test]
fn bounded_serving_flags_reject_zero() {
    for bad in [
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "127.0.0.1:1",
            "--replicas",
            "0",
        ][..],
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "127.0.0.1:1",
            "--retry-budget",
            "0",
        ],
        &["serve", "--timeout-ms", "0"],
    ] {
        let out = harness(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{bad:?}");
    }
}

/// `harness submit` retries transient connection failures with seeded
/// backoff before giving up: against a dead address it reports each
/// retry on stderr and still exits 1 (transport error), not 2 (usage).
#[test]
fn submit_retries_transient_connection_failures_before_failing() {
    let out = harness(&[
        "submit",
        "--addr",
        "127.0.0.1:1",
        "--retry-budget",
        "2",
        "--metrics",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("retrying"), "no retry reported: {err}");
    assert!(err.contains("attempt 2 of 2"), "{err}");
}
