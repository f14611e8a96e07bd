//! The fault-tolerant suite runner: experiment-level degradation.
//!
//! [`run_suite`] executes a selection of experiments the way the
//! layered-defense story says a system should fail — partially, not
//! whole:
//!
//! - every experiment runs under supervision with a **soft deadline**
//!   derived from its [`Cost`](crate::Cost) class (or a fixed
//!   override). In-process mode contains panics with `catch_unwind`
//!   and *detaches* overtime worker threads (Rust cannot kill a
//!   thread); with [`SuiteOptions::isolation`] set, each entry instead
//!   runs in a spawned **child process** that a deadline or resource
//!   budget SIGKILLs for real — see [`crate::proc`];
//! - budget violations are first-class outcomes: a child killed over
//!   its peak-RSS budget records `oom_killed`, one over its
//!   CPU-seconds budget records `cpu_exceeded`, and both are
//!   re-run by `--resume` or `failed:<manifest>` like any failure;
//! - with `keep_going`, failures degrade the run instead of ending it:
//!   untouched experiments produce bit-identical artifacts to a clean
//!   run, because trial RNG streams never depend on what other
//!   experiments did — and a worker child's artifact is identical to
//!   in-process output by construction (same pure function of seed);
//! - each entry runs once: every experiment is a pure function of
//!   `(seed, trials-scale)`, so an immediate re-run would fail the
//!   same way;
//! - a `skip` set (computed by the caller from a prior manifest via
//!   [`ResumeState`](crate::ResumeState)) turns already-completed
//!   experiments into `skipped` records, which is how `--resume`
//!   restarts a 30-experiment run in seconds.
//!
//! The runner reports each record through a callback as it is
//! produced, so the caller can print tables and persist artifacts
//! incrementally — an interrupted process leaves a resumable manifest
//! behind rather than nothing.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::artifact::ExperimentRecord;
use crate::ctx::RunCtx;
use crate::par::{panic_message, silence_panics};
use crate::proc::{supervise, worker_failure_path, KillReason, ResourceBudgets, WorkerSpec};
use crate::registry::Experiment;
use crate::table::Table;

/// Process-isolation settings for a suite run (`--isolate on`).
#[derive(Debug, Clone)]
pub struct Isolation {
    /// How to re-invoke the experiments binary as a worker.
    pub spec: WorkerSpec,
    /// Requested budgets. An unset CPU ceiling is derived per
    /// experiment from its [`Cost`](crate::Cost)
    /// (`cpu_budget_secs`); an unset RSS ceiling leaves memory
    /// unbudgeted.
    pub budgets: ResourceBudgets,
    /// Directory for per-experiment handoff subdirectories
    /// (`<root>/<slug>/`), recreated per run.
    pub handoff_root: PathBuf,
}

/// Degradation policy for one suite run.
#[derive(Debug, Clone, Default)]
pub struct SuiteOptions {
    /// Record failures and keep running (`--keep-going`). Without it
    /// the suite stops at the first failure — but still returns the
    /// failure record, so the caller can persist a resumable manifest.
    pub keep_going: bool,
    /// Fixed per-experiment deadline replacing the cost-derived one
    /// (`--deadline-secs`).
    pub deadline_override: Option<Duration>,
    /// Slugs to skip because a prior run's artifact already covers
    /// them (`--resume`).
    pub skip: BTreeSet<String>,
    /// `Some` switches entries from supervised threads to supervised
    /// child processes (`--isolate on`).
    pub isolation: Option<Isolation>,
}

impl SuiteOptions {
    /// The soft deadline in force for `exp`.
    pub fn deadline_for(&self, exp: &Experiment) -> Duration {
        self.deadline_override
            .unwrap_or_else(|| exp.cost.deadline())
    }
}

/// What [`run_suite`] produced.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One record per selected experiment, in run order (all
    /// statuses). When `aborted`, the trailing experiments were never
    /// attempted and have no record.
    pub records: Vec<ExperimentRecord>,
    /// Whether the suite stopped early (first failure without
    /// `keep_going`).
    pub aborted: bool,
}

impl SuiteReport {
    /// Records of experiments that failed, timed out, or were killed
    /// over a budget, in run order.
    pub fn failures(&self) -> Vec<&ExperimentRecord> {
        self.records
            .iter()
            .filter(|r| r.status.is_failure())
            .collect()
    }

    /// Whether every selected experiment completed or was skipped.
    pub fn all_ok(&self) -> bool {
        !self.aborted && self.failures().is_empty()
    }
}

/// How one supervised experiment ended (internal).
enum WorkerVerdict {
    Done(Table),
    Panicked(String),
    Overtime { detached: bool },
    OomKilled { peak_mb: u64, limit_mb: u64 },
    CpuExceeded { used_secs: f64, limit_secs: u64 },
}

/// Runs one experiment on a supervised worker thread with a deadline.
///
/// On timeout the worker is detached: it keeps running (Rust offers no
/// safe way to kill a thread) but its eventual result is discarded —
/// the channel's receiver is gone. The suite only ever waits
/// `deadline` for it; `detached` records whether the thread was in
/// fact still running when the suite moved on, so the manifest can
/// flag the leak (`overtime_detached`). Process isolation
/// ([`run_isolated`]) is the mode that actually reclaims the worker.
fn run_supervised(
    exp: &Arc<Experiment>,
    ctx: &RunCtx,
    deadline: Duration,
) -> (Duration, WorkerVerdict) {
    let (tx, rx) = mpsc::channel();
    let worker_exp = Arc::clone(exp);
    let worker_ctx = *ctx;
    let start = Instant::now();
    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| worker_exp.run(&worker_ctx)));
        // A send after the deadline fails harmlessly: nobody listens.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(result) => {
            let elapsed = start.elapsed();
            let _ = handle.join();
            match result {
                Ok(table) => (elapsed, WorkerVerdict::Done(table)),
                Err(payload) => (
                    elapsed,
                    WorkerVerdict::Panicked(panic_message(payload.as_ref())),
                ),
            }
        }
        Err(_) => (
            start.elapsed(),
            WorkerVerdict::Overtime {
                detached: !handle.is_finished(),
            },
        ),
    }
}

/// Runs one experiment in a supervised child process with a deadline
/// and resource budgets (see [`crate::proc`]). The child writes its
/// artifact into a private handoff directory; the parent parses the
/// table back out, so the caller's artifact pipeline is identical to
/// in-process execution.
fn run_isolated(
    exp: &Arc<Experiment>,
    ctx: &RunCtx,
    deadline: Duration,
    iso: &Isolation,
) -> (Duration, WorkerVerdict) {
    let handoff = iso.handoff_root.join(exp.slug);
    let _ = std::fs::remove_dir_all(&handoff);
    if let Err(e) = std::fs::create_dir_all(&handoff) {
        return (
            Duration::ZERO,
            WorkerVerdict::Panicked(format!("worker handoff dir failed: {e}")),
        );
    }
    let budgets = ResourceBudgets {
        rss_limit_mb: iso.budgets.rss_limit_mb,
        cpu_limit_secs: Some(
            iso.budgets
                .cpu_limit_secs
                .unwrap_or_else(|| exp.cost.cpu_budget_secs(ctx.jobs)),
        ),
    };
    let mut cmd = iso.spec.command(exp.slug, &handoff, budgets);
    let outcome = match supervise(&mut cmd, deadline, budgets) {
        Ok(o) => o,
        Err(e) => {
            return (
                Duration::ZERO,
                WorkerVerdict::Panicked(format!("worker spawn failed: {e}")),
            )
        }
    };
    let elapsed = outcome.elapsed;
    let verdict = classify_outcome(exp, &handoff, outcome, budgets);
    // Everything the verdict needs has been read back; a stale handoff
    // tree must not leak into artifact-dir diffs.
    let _ = std::fs::remove_dir_all(&handoff);
    (elapsed, verdict)
}

/// Maps a supervised child's exit (or kill) to a verdict, folding in
/// the handoff artifact / failure file it left behind.
fn classify_outcome(
    exp: &Experiment,
    handoff: &std::path::Path,
    outcome: crate::proc::ProcOutcome,
    budgets: ResourceBudgets,
) -> WorkerVerdict {
    if let Some(reason) = outcome.killed {
        return match reason {
            KillReason::Deadline => WorkerVerdict::Overtime { detached: false },
            KillReason::Rss { peak_mb, limit_mb } => WorkerVerdict::OomKilled { peak_mb, limit_mb },
            KillReason::Cpu {
                used_secs,
                limit_secs,
            } => WorkerVerdict::CpuExceeded {
                used_secs,
                limit_secs,
            },
        };
    }

    let exit = outcome.exit.expect("no kill means the child exited");
    if exit.success() {
        let path = handoff.join(format!("{}.json", exp.slug));
        let table = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .and_then(|v: Value| v.get("table").and_then(Table::from_json));
        return match table {
            Some(table) => WorkerVerdict::Done(table),
            None => WorkerVerdict::Panicked(format!(
                "worker exited cleanly but left no readable artifact at {}",
                path.display()
            )),
        };
    }
    if let Ok(message) = std::fs::read_to_string(worker_failure_path(handoff, exp.slug)) {
        return WorkerVerdict::Panicked(message);
    }
    // The rlimit backstop fires as a signal with no failure file; if
    // the observed peaks explain the death, classify it as the budget
    // breach it is rather than an anonymous crash.
    if let Some(sig) = exit_signal(&exit) {
        if let Some(limit_mb) = budgets.rss_limit_mb {
            if outcome.peak_rss_mb >= limit_mb {
                return WorkerVerdict::OomKilled {
                    peak_mb: outcome.peak_rss_mb,
                    limit_mb,
                };
            }
        }
        if let Some(limit_secs) = budgets.cpu_limit_secs {
            if outcome.cpu_secs >= limit_secs as f64 {
                return WorkerVerdict::CpuExceeded {
                    used_secs: outcome.cpu_secs,
                    limit_secs,
                };
            }
        }
        return WorkerVerdict::Panicked(format!("worker killed by signal {sig}"));
    }
    WorkerVerdict::Panicked(format!(
        "worker exited with code {}",
        exit.code().unwrap_or(-1)
    ))
}

#[cfg(unix)]
fn exit_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn exit_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

/// Maps one run's verdict to its record.
fn verdict_record(
    exp: &Experiment,
    elapsed: Duration,
    deadline: Duration,
    verdict: WorkerVerdict,
) -> ExperimentRecord {
    match verdict {
        WorkerVerdict::Done(table) => ExperimentRecord::ok(exp.slug, exp.id, elapsed, table),
        WorkerVerdict::Panicked(message) => {
            ExperimentRecord::failed(exp.slug, exp.id, elapsed, message)
        }
        WorkerVerdict::Overtime { detached } => {
            ExperimentRecord::timed_out(exp.slug, exp.id, elapsed, deadline, detached)
        }
        WorkerVerdict::OomKilled { peak_mb, limit_mb } => {
            ExperimentRecord::oom_killed(exp.slug, exp.id, elapsed, peak_mb, limit_mb)
        }
        WorkerVerdict::CpuExceeded {
            used_secs,
            limit_secs,
        } => ExperimentRecord::cpu_exceeded(exp.slug, exp.id, elapsed, used_secs, limit_secs),
    }
}

/// Runs `experiments` in order under the given degradation policy,
/// reporting each [`ExperimentRecord`] through `on_record` the moment
/// it exists (print the table, write the artifact, rewrite the
/// manifest — whatever the caller does with progress).
///
/// Determinism: experiments influence each other only through the
/// shared `ctx` seed, which none of them mutates, so the set of
/// failures never changes *what the healthy experiments compute* —
/// their tables are bit-identical to a clean run's, whether computed
/// in-process or inside a worker child.
pub fn run_suite(
    experiments: &[Arc<Experiment>],
    ctx: &RunCtx,
    opts: &SuiteOptions,
    mut on_record: impl FnMut(&ExperimentRecord),
) -> SuiteReport {
    // Panics are contained and reported through the manifest; the
    // default hook's stderr dump would only repeat them (and a chaos
    // experiment under --keep-going would flood the log).
    let _quiet = opts.keep_going.then(silence_panics);

    let mut report = SuiteReport {
        records: Vec::with_capacity(experiments.len()),
        aborted: false,
    };
    for exp in experiments {
        let record = if opts.skip.contains(exp.slug) {
            ExperimentRecord::skipped(exp.slug, exp.id)
        } else {
            let deadline = opts.deadline_for(exp);
            let (elapsed, verdict) = match &opts.isolation {
                Some(iso) => run_isolated(exp, ctx, deadline, iso),
                None => run_supervised(exp, ctx, deadline),
            };
            verdict_record(exp, elapsed, deadline, verdict)
        };
        let failed = record.status.is_failure();
        on_record(&record);
        report.records.push(record);
        if failed && !opts.keep_going {
            report.aborted = true;
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::RunStatus;
    use crate::registry::{Cost, Registry};

    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        r.register(Experiment::new(
            "T1",
            "t1-ok",
            "healthy",
            &[],
            Cost::Cheap,
            |ctx| {
                let mut t = Table::new("T1", "healthy", &["seed"]);
                t.push_row(vec![ctx.seed.to_string()]);
                t
            },
        ));
        r.register(Experiment::new(
            "T2",
            "t2-panic",
            "always panics",
            &[],
            Cost::Cheap,
            |_| panic!("t2 exploded deterministically"),
        ));
        r.register(Experiment::new(
            "T3",
            "t3-slow",
            "sleeps 300 ms",
            &[],
            Cost::Cheap,
            |_| {
                std::thread::sleep(Duration::from_millis(300));
                Table::new("T3", "slow", &["a"])
            },
        ));
        r.register(Experiment::new(
            "T4",
            "t4-ok",
            "healthy too",
            &[],
            Cost::Cheap,
            |_| Table::new("T4", "ok", &["a"]),
        ));
        r
    }

    #[test]
    fn keep_going_quarantines_the_panicking_experiment() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            ..Default::default()
        };
        let mut seen = Vec::new();
        let report = run_suite(&reg.all(), &RunCtx::new(42, 1), &opts, |r| {
            seen.push(r.slug.clone());
        });
        assert_eq!(seen, vec!["t1-ok", "t2-panic", "t3-slow", "t4-ok"]);
        assert!(!report.aborted);
        assert_eq!(report.failures().len(), 1);
        let failure = &report.records[1];
        assert_eq!(
            failure.status,
            RunStatus::Failed {
                message: "t2 exploded deterministically".into()
            }
        );
        assert!(failure.table.is_none());
        // The healthy experiments still produced their tables.
        assert!(report.records[0].table.is_some());
        assert!(report.records[3].table.is_some());
    }

    #[test]
    fn without_keep_going_the_suite_stops_at_the_failure() {
        let reg = toy_registry();
        let report = run_suite(
            &reg.all(),
            &RunCtx::new(42, 1),
            &SuiteOptions::default(),
            |_| {},
        );
        assert!(report.aborted);
        assert_eq!(report.records.len(), 2, "t3/t4 never attempted");
        assert!(report.records[1].status.is_failure());
    }

    #[test]
    fn deadline_marks_slow_experiments_overtime_and_flags_the_leak() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            deadline_override: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let report = run_suite(&reg.select("t3-slow"), &RunCtx::new(42, 1), &opts, |_| {});
        assert_eq!(report.records.len(), 1);
        match &report.records[0].status {
            RunStatus::TimedOut { deadline, detached } => {
                assert_eq!(*deadline, Duration::from_millis(50));
                // The 300 ms sleeper is still running when the 50 ms
                // deadline fires — the in-process fallback must admit
                // the leak instead of silently dropping the thread.
                assert!(*detached, "overtime worker was still running");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(report.records[0].duration >= Duration::from_millis(50));
    }

    #[test]
    fn generous_deadline_lets_slow_experiments_finish() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            deadline_override: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let report = run_suite(&reg.select("t3-slow"), &RunCtx::new(42, 1), &opts, |_| {});
        assert_eq!(report.records[0].status, RunStatus::Ok);
    }

    #[test]
    fn skip_set_produces_skipped_records_without_running() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            // Skipping the panicking experiment means nothing fails.
            skip: ["t2-panic".to_owned(), "t1-ok".to_owned()].into(),
            ..Default::default()
        };
        let report = run_suite(&reg.all(), &RunCtx::new(42, 1), &opts, |_| {});
        assert!(report.all_ok());
        assert_eq!(report.records[0].status, RunStatus::Skipped);
        assert_eq!(report.records[1].status, RunStatus::Skipped);
        assert_eq!(report.records[2].status, RunStatus::Ok);
        assert_eq!(report.records[0].duration, Duration::ZERO);
    }

    #[test]
    fn healthy_tables_are_identical_with_and_without_a_neighbor_failing() {
        // The core keep-going promise: a failure changes nothing for
        // the experiments around it.
        let reg = toy_registry();
        let ctx = RunCtx::new(7, 2);
        let opts = SuiteOptions {
            keep_going: true,
            ..Default::default()
        };
        let degraded = run_suite(&reg.all(), &ctx, &opts, |_| {});
        let clean = run_suite(
            &reg.select_many(&["t1-ok", "t4-ok"]),
            &ctx,
            &SuiteOptions::default(),
            |_| {},
        );
        assert_eq!(degraded.records[0].table, clean.records[0].table);
        assert_eq!(degraded.records[3].table, clean.records[1].table);
    }

    #[test]
    fn cost_derived_deadline_is_used_when_no_override() {
        let reg = toy_registry();
        let opts = SuiteOptions::default();
        let exp = &reg.select("t1-ok")[0];
        assert_eq!(opts.deadline_for(exp), Cost::Cheap.deadline());
        let fixed = SuiteOptions {
            deadline_override: Some(Duration::from_secs(1)),
            ..Default::default()
        };
        assert_eq!(fixed.deadline_for(exp), Duration::from_secs(1));
    }

    // Process-isolation plumbing tested with /bin/sh standing in for
    // the experiments binary: `sh -c <script>` receives the appended
    // worker args as $0..$3 (`--worker-one <slug> --out <handoff>`),
    // so a script can address its own handoff directory as "$3".
    #[cfg(unix)]
    fn sh_isolation(script: &str, tag: &str) -> Isolation {
        let root = std::env::temp_dir().join(format!("autosec-suite-iso-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        Isolation {
            spec: WorkerSpec {
                exe: PathBuf::from("/bin/sh"),
                base_args: vec!["-c".into(), script.into()],
            },
            budgets: ResourceBudgets::default(),
            handoff_root: root,
        }
    }

    #[cfg(unix)]
    #[test]
    fn isolated_worker_artifact_becomes_the_record_table() {
        let script = r#"printf '{"table":{"id":"T1","title":"from child","headers":["a"],"rows":[["7"]]}}' > "$3/$1.json""#;
        let iso = sh_isolation(script, "ok");
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        assert!(report.all_ok());
        let table = report.records[0].table.as_ref().expect("parsed back");
        assert_eq!(table.id, "T1");
        assert_eq!(table.title, "from child");
        assert_eq!(table.rows, vec![vec!["7".to_owned()]]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[cfg(unix)]
    #[test]
    fn isolated_deadline_kills_the_child_for_real() {
        let iso = sh_isolation("sleep 30", "deadline");
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            keep_going: true,
            deadline_override: Some(Duration::from_millis(200)),
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let start = Instant::now();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the 30 s sleeper must not hold the suite"
        );
        match &report.records[0].status {
            RunStatus::TimedOut { deadline, detached } => {
                assert_eq!(*deadline, Duration::from_millis(200));
                assert!(!*detached, "a killed child leaks nothing");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[cfg(unix)]
    #[test]
    fn isolated_crash_reports_the_exit_code() {
        let iso = sh_isolation("exit 7", "crash");
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            keep_going: true,
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        assert_eq!(
            report.records[0].status,
            RunStatus::Failed {
                message: "worker exited with code 7".into()
            }
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[cfg(unix)]
    #[test]
    fn isolated_panic_file_preserves_the_message() {
        // A worker that panics writes <slug>.panic.txt and exits 101;
        // the manifest must carry the original message, exactly as the
        // in-process path does.
        let script = r#"printf 'chaos probe: injected panic' > "$3/$1.panic.txt"; exit 101"#;
        let iso = sh_isolation(script, "panic");
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            keep_going: true,
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        assert_eq!(
            report.records[0].status,
            RunStatus::Failed {
                message: "chaos probe: injected panic".into()
            }
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[cfg(unix)]
    #[test]
    fn isolated_clean_exit_without_artifact_is_a_failure() {
        let iso = sh_isolation("exit 0", "no-artifact");
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            keep_going: true,
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        match &report.records[0].status {
            RunStatus::Failed { message } => {
                assert!(message.contains("no readable artifact"), "{message}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn spawn_failure_is_contained_not_fatal() {
        let iso = Isolation {
            spec: WorkerSpec {
                exe: PathBuf::from("/nonexistent/experiments-binary"),
                base_args: vec![],
            },
            budgets: ResourceBudgets::default(),
            handoff_root: std::env::temp_dir().join("autosec-suite-iso-spawnfail"),
        };
        let root = iso.handoff_root.clone();
        let opts = SuiteOptions {
            keep_going: true,
            isolation: Some(iso),
            ..Default::default()
        };
        let reg = toy_registry();
        let report = run_suite(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts, |_| {});
        match &report.records[0].status {
            RunStatus::Failed { message } => {
                assert!(message.contains("worker spawn failed"), "{message}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
