//! `unfold-verify` keeps its exit status when the reader of its output
//! stops early, as `unfold-verify ... | head -1` does: a closed stdout
//! ends the output, not the campaign, and the status is its verdict.

use std::process::{Command, Output, Stdio};

/// Runs the verifier with `args` and its stdout closed before it
/// writes anything.
fn run_with_stdout_closed(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_unfold-verify"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn unfold-verify");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for unfold-verify")
}

#[test]
fn a_clean_campaign_exits_0_with_its_stdout_closed() {
    let out = run_with_stdout_closed(&[
        "--cases",
        "4",
        "--seed",
        "42",
        "--jobs",
        "1",
        "--check",
        "soa-identity",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_failing_campaign_exits_1_with_its_stdout_closed() {
    let out = run_with_stdout_closed(&[
        "--cases",
        "8",
        "--seed",
        "42",
        "--jobs",
        "1",
        "--check",
        "stable-prefix",
        "--mutation",
        "stable-prefix-best-only",
        "--no-shrink",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
