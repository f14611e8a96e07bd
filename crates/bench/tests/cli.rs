//! Bad command lines end the `experiments` binary with exit 2 and a
//! one-line reason on stderr — for the suite grammar and both
//! subcommands — and never with a panic (exit 101).

use std::process::Command;

fn rejects(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{args:?} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(
        stderr.lines().next() == Some(reason),
        "{args:?}: expected {reason:?} first on stderr, got:\n{stderr}"
    );
    assert!(stderr.contains("usage: experiments"), "{args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn suite_rejects_zero_jobs_and_zero_deadline() {
    rejects(
        &["--jobs", "0", "E1"],
        "invalid --jobs \"0\": expected a positive integer",
    );
    rejects(
        &["--deadline-secs", "0", "E1"],
        "invalid --deadline-secs \"0\": expected a positive integer",
    );
}

#[test]
fn fleet_rejects_a_nan_attack_rate() {
    rejects(
        &["fleet", "--attack-rate", "nan"],
        "invalid --attack-rate \"nan\": expected a finite nonnegative rate",
    );
}

#[test]
fn fleet_rejects_zero_shards() {
    rejects(
        &["fleet", "--shards", "0"],
        "invalid --shards \"0\": expected a positive integer",
    );
}

#[test]
fn generate_rejects_zero_jobs() {
    rejects(
        &["generate", "--jobs", "0"],
        "--count, --max-len, --trials and --jobs must be positive",
    );
}
