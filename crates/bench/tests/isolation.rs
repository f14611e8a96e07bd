//! End-to-end process isolation of the `experiments` binary: under
//! `--isolate on` a deadline SIGKILLs the worker child for real (with
//! bounded suite wall time), resource budgets land `oom_killed` /
//! `cpu_exceeded` manifest statuses, healthy artifacts stay
//! bit-identical between isolate on and off, and a suite killed
//! mid-child leaves a parseable incremental manifest that `--resume`
//! finishes.
//!
//! The workload is the hidden `x0-chaos` probe (registered only when
//! `AUTOSEC_CHAOS` is set — env vars are passed per child process, so
//! these tests never mutate their own environment).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autosec-isolation-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the chaos probe alone, isolated, against `out`.
fn run_chaos(mode: &str, out: &Path, extra: &[&str]) -> Output {
    Command::new(bin())
        .env("AUTOSEC_CHAOS", mode)
        .args(["--filter", "x0-chaos", "--json", "--keep-going", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("binary runs")
}

fn manifest(out: &Path) -> Value {
    let text = std::fs::read_to_string(out.join("manifest.json")).expect("manifest exists");
    serde_json::from_str(&text).expect("manifest parses")
}

fn entry<'a>(m: &'a Value, slug: &str) -> &'a Value {
    m["experiments"]
        .as_array()
        .expect("experiments array")
        .iter()
        .find(|e| e["slug"].as_str() == Some(slug))
        .unwrap_or_else(|| panic!("no manifest entry for {slug}"))
}

/// Pids of the live processes whose command line contains `needle`
/// (zombies have an empty command line, so they never match).
fn processes_naming(needle: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let pid: u32 = e.file_name().to_str()?.parse().ok()?;
            let cmdline = std::fs::read(e.path().join("cmdline")).ok()?;
            String::from_utf8_lossy(&cmdline)
                .contains(needle)
                .then_some(pid)
        })
        .collect()
}

#[test]
fn isolated_deadline_kills_the_sleeper_with_bounded_wall_time() {
    let out = tmp("deadline");
    let start = Instant::now();
    // A 30 s sleeper under a 1 s deadline: in-process this worker would
    // detach and run to completion; isolated it dies by SIGKILL.
    let slow = run_chaos(
        "sleep:30000",
        &out,
        &["--isolate", "on", "--deadline-secs", "1"],
    );
    let wall = start.elapsed();
    assert_eq!(slow.status.code(), Some(1));
    assert!(
        wall < Duration::from_secs(20),
        "deadline must bound the suite, took {wall:?}"
    );
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("timed_out"));
    assert_eq!(e["deadline_secs"].as_f64(), Some(1.0));
    assert!(
        e.get("overtime_detached").is_none(),
        "an isolated kill leaves nothing running: {e}"
    );
    // True elapsed time, not the 30 s the sleeper wanted.
    let secs = e["duration_ms"].as_f64().expect("duration recorded") / 1e3;
    assert!(secs < 15.0, "recorded {secs} s for a 1 s deadline");

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn rss_budget_lands_oom_killed() {
    let out = tmp("oom");
    // The leaker wants 300 MiB; the budget is 64. --isolate auto must
    // switch isolation on because a budget flag is present.
    let killed = run_chaos("alloc:300", &out, &["--rss-limit-mb", "64"]);
    assert_eq!(killed.status.code(), Some(1));
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("oom_killed"));
    assert_eq!(e["rss_limit_mb"].as_u64(), Some(64));
    let peak = e["peak_rss_mb"].as_u64().expect("peak recorded");
    assert!(peak >= 64, "kill fired below the limit: peak {peak} MiB");
    assert!(!out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn cpu_budget_lands_cpu_exceeded() {
    let out = tmp("cpu");
    let start = Instant::now();
    // The spinner wants 30 s of CPU; the ceiling is 1 CPU-second, which
    // fires long before the cost-derived wall deadline.
    let killed = run_chaos("spin:30", &out, &["--cpu-limit-secs", "1"]);
    let wall = start.elapsed();
    assert_eq!(killed.status.code(), Some(1));
    assert!(
        wall < Duration::from_secs(20),
        "CPU ceiling must bound the suite, took {wall:?}"
    );
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("cpu_exceeded"));
    assert_eq!(e["cpu_limit_secs"].as_u64(), Some(1));
    assert!(e["cpu_secs"].as_f64().expect("usage recorded") >= 1.0);

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn healthy_artifacts_are_bit_identical_between_isolate_on_and_off() {
    let isolated = tmp("identity-on");
    let inprocess = tmp("identity-off");
    for (out, mode) in [(&isolated, "on"), (&inprocess, "off")] {
        let run = Command::new(bin())
            .args([
                "--filter",
                "e3-technologies",
                "--filter",
                "e4-protocol-matrix",
                "--json",
                "--canonical",
                "--isolate",
                mode,
                "--out",
            ])
            .arg(out)
            .output()
            .expect("binary runs");
        assert_eq!(run.status.code(), Some(0), "isolate {mode} failed");
    }
    // No handoff residue may survive a clean isolated run...
    assert!(!isolated.join(".workers").exists(), "handoff dir leaked");
    // ...and the whole canonical artifact tree must diff clean,
    // manifest included.
    let mut names: Vec<String> = std::fs::read_dir(&isolated)
        .expect("dir")
        .map(|f| f.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "e3-technologies.json",
            "e4-protocol-matrix.json",
            "manifest.json"
        ],
        "unexpected artifact set"
    );
    for name in names {
        let a = std::fs::read(isolated.join(&name)).expect("isolated artifact");
        let b = std::fs::read(inprocess.join(&name)).expect("in-process artifact");
        assert_eq!(a, b, "{name} differs between isolate on and off");
    }

    let _ = std::fs::remove_dir_all(&isolated);
    let _ = std::fs::remove_dir_all(&inprocess);
}

#[test]
fn a_suite_killed_mid_child_resumes_to_green() {
    let out = tmp("kill-resume");
    // Healthy members first (registration order), then the sleeper;
    // the incremental manifest is rewritten after every record.
    let filters = [
        "--filter",
        "e3-technologies",
        "--filter",
        "e4-protocol-matrix",
        "--filter",
        "x0-chaos",
    ];
    let mut suite = Command::new(bin())
        .env("AUTOSEC_CHAOS", "sleep:60000")
        .args(filters)
        .args(["--json", "--isolate", "on", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("suite starts");

    // Wait until both healthy records are on disk — the sleeper child
    // is then the one in flight — and kill the supervising parent.
    // (Grepping the manifest text would trip on the `filter` field,
    // which also names every slug; parse the records instead.)
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "suite never reached the sleeper");
        let healthy_done = std::fs::read_to_string(out.join("manifest.json"))
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .is_some_and(|m: Value| {
                let has = |slug| {
                    m["experiments"]
                        .as_array()
                        .is_some_and(|a| a.iter().any(|e| e["slug"].as_str() == Some(slug)))
                };
                has("e3-technologies") && has("e4-protocol-matrix")
            });
        if healthy_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    suite.kill().expect("kill the parent");
    suite.wait().expect("reap the parent");

    // The orphaned sleeper notices its parent is gone and exits rather
    // than sleeping out its 60 s.
    let needle = out.display().to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let alive = processes_naming(&needle);
        if alive.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "processes naming {needle} outlived their parent: {alive:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The interrupted manifest parses and already carries the healthy
    // entries.
    let m = manifest(&out);
    for slug in ["e3-technologies", "e4-protocol-matrix"] {
        assert_eq!(entry(&m, slug)["status"].as_str(), Some("ok"));
    }

    // Resume with the chaos healed: healthy artifacts are reused, only
    // the killed entry re-runs, the suite goes green.
    let resumed = Command::new(bin())
        .env("AUTOSEC_CHAOS", "ok")
        .args(filters)
        .args(["--json", "--isolate", "on", "--resume", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert_eq!(resumed.status.code(), Some(0), "resume must finish green");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("skipped e3-technologies"),
        "healthy artifact not reused:\n{stderr}"
    );
    let m = manifest(&out);
    assert_eq!(m["failures"].as_u64(), Some(0));
    assert_eq!(entry(&m, "x0-chaos")["status"].as_str(), Some("ok"));
    assert!(out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_dir_all(&out);
}

/// A worker whose supervisor died before its sleep began has already
/// been handed to another parent (here the test, which runs another
/// executable), so it ends at once instead of sleeping out its 60 s.
#[cfg(target_os = "linux")]
#[test]
fn a_worker_orphaned_before_its_sleep_ends_at_once() {
    let out = tmp("orphan-at-start");
    let start = Instant::now();
    let worker = Command::new(bin())
        .env("AUTOSEC_CHAOS", "sleep:60000")
        .args(["--worker-one", "x0-chaos", "--out"])
        .arg(&out)
        .output()
        .expect("worker runs");
    assert_eq!(worker.status.code(), Some(1));
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the orphaned worker slept for {:?}",
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&out);
}
