//! The fault-tolerant suite runner: experiment-level degradation.
//!
//! [`run_suite`] executes a selection of experiments the way the
//! layered-defense story says a system should fail — partially, not
//! whole:
//!
//! - every experiment runs on a supervised worker thread with a **soft
//!   deadline** derived from its [`Cost`](crate::Cost) class (or a
//!   fixed override). `catch_unwind` contains panics, and an overtime
//!   worker is *detached* rather than killed (Rust cannot kill a
//!   thread): the manifest flags it `overtime_detached`, and it ends
//!   with the process;
//! - with `keep_going`, failures degrade the run instead of ending it:
//!   untouched experiments produce bit-identical artifacts to a clean
//!   run, because trial RNG streams never depend on what other
//!   experiments did;
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
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::artifact::ExperimentRecord;
use crate::ctx::RunCtx;
use crate::par::{panic_message, silence_panics};
use crate::registry::Experiment;

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
    /// Records of experiments that failed or timed out, in run order.
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

/// Runs one experiment on a supervised worker thread with a deadline
/// and returns its record.
///
/// On timeout the worker is detached: it keeps running (Rust offers no
/// safe way to kill a thread) but its eventual result is discarded —
/// the channel's receiver is gone. The suite only ever waits
/// `deadline` for it; `detached` records whether the thread was in
/// fact still running when the suite moved on, so the manifest can
/// flag the leak (`overtime_detached`).
fn run_supervised(exp: &Arc<Experiment>, ctx: &RunCtx, deadline: Duration) -> ExperimentRecord {
    let (tx, rx) = mpsc::channel();
    let worker_exp = Arc::clone(exp);
    let worker_ctx = *ctx;
    let start = Instant::now();
    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| worker_exp.run(&worker_ctx)));
        // A send after the deadline fails harmlessly: nobody listens.
        let _ = tx.send(result);
    });
    let (slug, id) = (exp.slug, exp.id);
    match rx.recv_timeout(deadline) {
        Ok(result) => {
            let elapsed = start.elapsed();
            let _ = handle.join();
            match result {
                Ok(table) => ExperimentRecord::ok(slug, id, elapsed, table),
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    ExperimentRecord::failed(slug, id, elapsed, message)
                }
            }
        }
        Err(_) => {
            let detached = !handle.is_finished();
            ExperimentRecord::timed_out(slug, id, start.elapsed(), deadline, detached)
        }
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
/// their tables are bit-identical to a clean run's.
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
            run_supervised(exp, ctx, opts.deadline_for(exp))
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
    use crate::table::Table;

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
                // deadline fires — the runner must admit the leak instead of silently dropping the thread.
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
}
