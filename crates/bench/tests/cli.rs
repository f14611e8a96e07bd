//! Bad command lines end the `experiments` binary with exit 2 and a
//! one-line reason on stderr — for the suite grammar and both
//! subcommands — and never with a panic (exit 101).

use std::process::{Command, Output};

fn spawn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn rejects(args: &[&str], reason: &str) {
    let out = spawn(args);
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
    // Refused before any worker thread starts.
    rejects(
        &["--jobs", "1025", "E1"],
        "invalid --jobs \"1025\": expected a positive integer up to 1024",
    );
}

#[test]
fn fleet_rejects_a_nan_attack_rate() {
    rejects(
        &["fleet", "--attack-rate", "nan"],
        "invalid --attack-rate \"nan\": expected a probability in [0, 1]",
    );
}

/// The rate is a probability, so a value above 1 is refused rather
/// than run as 1.
#[test]
fn fleet_rejects_an_attack_rate_above_one() {
    rejects(
        &["fleet", "--attack-rate", "1e308"],
        "invalid --attack-rate \"1e308\": expected a probability in [0, 1]",
    );
}

#[test]
fn fleet_rejects_zero_shards() {
    rejects(
        &["fleet", "--shards", "0"],
        "invalid --shards \"0\": expected a positive integer",
    );
    rejects(
        &["fleet", "--shards", "1025"],
        "invalid --shards \"1025\": expected a positive integer up to 1024",
    );
}

#[test]
fn generate_rejects_zero_jobs() {
    rejects(
        &["generate", "--jobs", "0"],
        "invalid --jobs \"0\": expected a positive integer",
    );
    rejects(
        &["generate", "--jobs", "1025"],
        "invalid --jobs \"1025\": expected a positive integer up to 1024",
    );
}

/// Sizes past their bound are refused while the arguments are read,
/// before any fleet, trial vector or campaign attempt is allocated.
#[test]
fn oversized_sizes_exit_2() {
    rejects(
        &["fleet", "--vehicles", "100000000000"],
        "invalid --vehicles \"100000000000\": expected a positive integer up to 10000000",
    );
    rejects(
        &["fleet", "--ticks", "100000000000"],
        "invalid --ticks \"100000000000\": expected a positive integer up to 100000",
    );
    rejects(
        &["generate", "--trials", "1000000000000"],
        "invalid --trials \"1000000000000\": expected a positive integer up to 1000000",
    );
    rejects(
        &["generate", "--count", "1000000000000"],
        "invalid --count \"1000000000000\": expected a positive integer up to 4096",
    );
    rejects(
        &["fleet", "--campaign", "generated:4097"],
        "invalid --campaign \"generated:4097\": expected fixed or generated:N (1 <= N <= 4096)",
    );
    rejects(
        &["--trials-scale", "1e30", "E2"],
        "invalid --trials-scale \"1e30\": expected a positive number up to 50",
    );
}

/// Every value-taking flag of every grammar, given without its value,
/// and each grammar's `--help` and `-h` exit 2 with the usage text.
/// Each run stops at its arguments, so the ~40 spawns stay quick.
#[test]
fn every_flag_missing_its_value_and_every_help_exit_2() {
    let grammars: [(&[&str], &[&str]); 3] = [
        (
            &[],
            &[
                "--filter",
                "--seed",
                "--jobs",
                "--trials-scale",
                "--deadline-secs",
                "--isolate",
                "--rss-limit-mb",
                "--cpu-limit-secs",
                "--worker-one",
                "--out",
            ],
        ),
        (
            &["fleet"],
            &[
                "--vehicles",
                "--ticks",
                "--shards",
                "--seed",
                "--snapshot-every",
                "--posture",
                "--fidelity",
                "--campaign",
                "--attack-rate",
                "--defender",
                "--defender-budget",
                "--out",
            ],
        ),
        (
            &["generate"],
            &[
                "--count",
                "--max-len",
                "--seed",
                "--jobs",
                "--trials",
                "--layer",
                "--stride-class",
                "--out",
            ],
        ),
    ];
    for (command, flags) in grammars {
        for flag in flags {
            rejects(
                &[command, &[flag]].concat(),
                &format!("missing value for {flag}"),
            );
        }
        for help in ["--help", "-h"] {
            let args = [command, &[help]].concat();
            let out = spawn(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
            assert!(
                stderr.starts_with("usage: experiments"),
                "{args:?}:\n{stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?} ran something");
        }
    }
}
