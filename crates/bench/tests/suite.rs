//! End-to-end fault tolerance of the `experiments` binary: a suite
//! with a deterministically failing member must degrade (not abort)
//! under `--keep-going`, leave healthy artifacts bit-identical to a
//! clean run, and come back to green via `--resume` / `failed:` — also
//! after the suite process itself was killed mid-entry.
//!
//! The failing member is the hidden `x0-chaos` probe, registered only
//! when `AUTOSEC_CHAOS` is set — env vars are passed per child
//! process, so these tests never mutate their own environment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autosec-suite-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary with the chaos probe in `mode` against `out`.
///
/// Plain `--json`, not `--canonical`: canonical manifests strip
/// `trials_scale`, which (by design, conservatively) disables resume.
/// The byte-identity test below passes `--canonical` explicitly.
fn run(mode: &str, out: &Path, extra: &[&str]) -> Output {
    Command::new(bin())
        .env("AUTOSEC_CHAOS", mode)
        .args([
            "--filter",
            "e3-technologies",
            "--filter",
            "e4-protocol-matrix",
            "--filter",
            "x0-chaos",
            "--json",
            "--out",
        ])
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

#[test]
fn keep_going_records_the_failure_and_spares_the_neighbors() {
    let chaotic = tmp("keep-going");
    let clean = tmp("keep-going-clean");

    // Degraded run: the probe panics, the suite continues, exit is 1.
    let degraded = run("panic", &chaotic, &["--keep-going", "--canonical"]);
    assert_eq!(degraded.status.code(), Some(1), "failures must exit 1");
    let m = manifest(&chaotic);
    assert_eq!(m["failures"].as_u64(), Some(1));
    let failed = entry(&m, "x0-chaos");
    assert_eq!(failed["status"].as_str(), Some("failed"));
    assert_eq!(
        failed["message"].as_str(),
        Some("chaos probe: injected panic (AUTOSEC_CHAOS=panic)")
    );
    assert!(!chaotic.join("x0-chaos.json").exists());
    for slug in ["e3-technologies", "e4-protocol-matrix"] {
        assert_eq!(entry(&m, slug)["status"].as_str(), Some("ok"));
    }

    // The healthy artifacts are byte-identical to a run with no chaos.
    let ok = run("ok", &clean, &["--keep-going", "--canonical"]);
    assert_eq!(ok.status.code(), Some(0));
    for slug in ["e3-technologies", "e4-protocol-matrix"] {
        let a = std::fs::read(chaotic.join(format!("{slug}.json"))).expect("degraded artifact");
        let b = std::fs::read(clean.join(format!("{slug}.json"))).expect("clean artifact");
        assert_eq!(a, b, "{slug} artifact perturbed by a neighbor's panic");
    }

    let _ = std::fs::remove_dir_all(&chaotic);
    let _ = std::fs::remove_dir_all(&clean);
}

#[test]
fn without_keep_going_the_suite_aborts_but_stays_resumable() {
    let out = tmp("abort");

    // x0-chaos sorts... runs last (registration order), so the healthy
    // experiments complete first, then the abort happens; the manifest
    // written so far must already be on disk.
    let aborted = run("panic", &out, &[]);
    assert_eq!(aborted.status.code(), Some(1));
    let m = manifest(&out);
    assert_eq!(entry(&m, "x0-chaos")["status"].as_str(), Some("failed"));

    // --resume with the chaos healed: healthy artifacts are skipped,
    // the probe re-runs, the suite goes green.
    let resumed = run("ok", &out, &["--resume"]);
    assert_eq!(resumed.status.code(), Some(0), "resume must finish green");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("skipped e3-technologies"),
        "healthy artifact not reused:\n{stderr}"
    );
    let m = manifest(&out);
    assert_eq!(m["failures"].as_u64(), Some(0));
    assert_eq!(entry(&m, "x0-chaos")["status"].as_str(), Some("ok"));
    assert_eq!(
        entry(&m, "e3-technologies")["status"].as_str(),
        Some("skipped")
    );
    assert!(out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn resume_reruns_everything_when_the_parameters_changed() {
    let out = tmp("resume-mismatch");
    assert_eq!(run("ok", &out, &["--keep-going"]).status.code(), Some(0));

    // Same filters, different seed: nothing may be reused.
    let reseeded = run("ok", &out, &["--resume", "--seed", "7"]);
    assert_eq!(reseeded.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&reseeded.stderr);
    assert!(
        stderr.contains("does not match this run"),
        "seed change must disable resume:\n{stderr}"
    );
    assert!(!stderr.contains("skipped e3-technologies"));

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn failed_pseudo_filter_reselects_only_the_failures() {
    let out = tmp("failed-filter");
    assert_eq!(run("panic", &out, &["--keep-going"]).status.code(), Some(1));

    // Re-run just the manifest's failures, healed; write elsewhere so
    // the prior manifest stays what failed: reads.
    let retry_out = tmp("failed-filter-retry");
    let retry = Command::new(bin())
        .env("AUTOSEC_CHAOS", "ok")
        .arg("--filter")
        .arg(format!("failed:{}", out.display()))
        .args(["--json", "--out"])
        .arg(&retry_out)
        .output()
        .expect("binary runs");
    assert_eq!(retry.status.code(), Some(0));
    let m = manifest(&retry_out);
    let slugs: Vec<&str> = m["experiments"]
        .as_array()
        .expect("array")
        .iter()
        .filter_map(|e| e["slug"].as_str())
        .collect();
    assert_eq!(slugs, vec!["x0-chaos"], "only the failure re-runs");

    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&retry_out);
}

#[test]
fn failed_pseudo_filter_on_a_clean_manifest_has_nothing_to_rerun() {
    let out = tmp("failed-filter-clean");
    assert_eq!(run("ok", &out, &["--keep-going"]).status.code(), Some(0));

    let retry_out = tmp("failed-filter-clean-retry");
    let retry = Command::new(bin())
        .env("AUTOSEC_CHAOS", "ok")
        .arg("--filter")
        .arg(format!("failed:{}", out.display()))
        .args(["--json", "--out"])
        .arg(&retry_out)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&retry.stderr);
    assert_eq!(retry.status.code(), Some(0), "{stderr}");
    let expected = format!(
        "nothing to re-run: {} records no failures",
        out.join("manifest.json").display()
    );
    assert_eq!(stderr.trim_end(), expected);
    assert!(retry.stdout.is_empty(), "nothing ran");
    assert!(!retry_out.join("manifest.json").exists());

    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&retry_out);
}

#[test]
fn a_suite_killed_mid_entry_resumes_to_green() {
    let out = tmp("kill-resume");
    // Healthy members first (registration order), then the sleeper;
    // the incremental manifest is rewritten after every record.
    let mut suite = Command::new(bin())
        .env("AUTOSEC_CHAOS", "sleep:60000")
        .args([
            "--filter",
            "e3-technologies",
            "--filter",
            "e4-protocol-matrix",
            "--filter",
            "x0-chaos",
            "--json",
            "--out",
        ])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("suite starts");

    // Wait until both healthy records are on disk — the sleeper is then
    // the entry in flight — and SIGKILL the suite process. (Grepping
    // the manifest text would trip on the `filter` field, which also
    // names every slug; parse the records instead.)
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
    suite.kill().expect("kill the suite");
    suite.wait().expect("reap the suite");

    // The interrupted manifest parses and already carries the healthy
    // entries.
    let m = manifest(&out);
    for slug in ["e3-technologies", "e4-protocol-matrix"] {
        assert_eq!(entry(&m, slug)["status"].as_str(), Some("ok"));
    }

    // Resume with the chaos healed: healthy artifacts are reused, only
    // the interrupted entry re-runs, the suite goes green.
    let resumed = run("ok", &out, &["--resume"]);
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

#[test]
fn deadline_override_times_a_sleeper_out() {
    let out = tmp("deadline");
    let slow = Command::new(bin())
        .env("AUTOSEC_CHAOS", "sleep:3000")
        .args([
            "--filter",
            "x0-chaos",
            "--json",
            "--keep-going",
            "--deadline-secs",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert_eq!(slow.status.code(), Some(1));
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("timed_out"));
    assert_eq!(e["deadline_secs"].as_f64(), Some(1.0));

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn list_shows_the_deadline_column() {
    let out = Command::new(bin())
        .args(["--list"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let header = text.lines().next().expect("header line");
    assert!(header.contains("deadline"), "missing column:\n{header}");
    let e18 = text
        .lines()
        .find(|l| l.starts_with("e18-harness-resilience"))
        .expect("E18 listed");
    assert!(e18.contains("120s"), "moderate deadline shown:\n{e18}");
}
