//! Deterministic parallel Monte-Carlo helpers.
//!
//! Trial `i` always computes on the stream `base.fork_idx(i)` and its
//! result lands in slot `i`; the merge happens in slot order. Workers
//! claim trial indices from one shared counter, so the worker count
//! changes which thread runs a trial and the wall-clock time, and
//! nothing else.
//!
//! ## Fault tolerance
//!
//! Every helper runs each trial under [`std::panic::catch_unwind`], so
//! a panicking trial can never poison another trial's slot or leak a
//! generic "a scoped thread panicked" message:
//!
//! - [`par_trials`] **propagates** the original panic payload of the
//!   lowest-index panicking trial (all trials are still attempted
//!   first, so the choice is identical for every `jobs` value).
//! - [`try_par_trials`] **quarantines**: each slot becomes a
//!   [`TrialOutcome`] (`Ok` or `Panicked`), in trial order,
//!   bit-identical for every `jobs` value.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use autosec_sim::SimRng;

use crate::pool::{self, Caught};

/// The quarantined result of one Monte-Carlo trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialOutcome<T> {
    /// The trial completed and produced a value.
    Ok(T),
    /// The trial panicked; `message` is the rendered panic payload.
    Panicked {
        /// The panic payload, rendered to a string (`&str`/`String`
        /// payloads verbatim, anything else a fixed placeholder).
        message: String,
    },
}

impl<T> TrialOutcome<T> {
    /// The value, if the trial completed.
    pub fn ok(self) -> Option<T> {
        match self {
            TrialOutcome::Ok(v) => Some(v),
            TrialOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the trial completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, TrialOutcome::Ok(_))
    }

    /// The panic message, if the trial was quarantined.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TrialOutcome::Ok(_) => None,
            TrialOutcome::Panicked { message } => Some(message),
        }
    }
}

/// Renders a caught panic payload the way the default hook would:
/// `&str` and `String` payloads verbatim, anything else a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Number of active panic-silencing guards (see [`silence_panics`]).
static SILENCE_DEPTH: AtomicUsize = AtomicUsize::new(0);
static SILENCE_HOOK: Once = Once::new();

/// Suppresses the default panic-hook output while the returned guard is
/// alive. Used around *quarantining* runs, where every panic is caught,
/// rendered into its [`TrialOutcome`] or manifest entry, and reported
/// there — printing each one to stderr would only drown the output.
///
/// The suppression is process-global (the hook is shared state), so an
/// unrelated panic on another thread is also silenced while a guard is
/// alive; it still unwinds normally, only the printing is skipped.
/// Propagating paths ([`par_trials`]) take no guard, so their panics
/// print at the original site as usual.
pub fn silence_panics() -> SilenceGuard {
    SILENCE_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCE_DEPTH.load(Ordering::SeqCst) == 0 {
                prev(info);
            }
        }));
    });
    SILENCE_DEPTH.fetch_add(1, Ordering::SeqCst);
    SilenceGuard(())
}

/// RAII guard from [`silence_panics`]; panic printing resumes when the
/// last live guard drops.
#[derive(Debug)]
pub struct SilenceGuard(());

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        SILENCE_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs every trial on its own stream through `pool::execute` and
/// returns the raw results in trial order; every trial is attempted.
fn run_caught<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<Caught<T>>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    pool::execute(jobs, n, |i| trial(i, base.fork_idx(i as u64)))
}

/// Runs `n` independent trials, trial `i` on `base.fork_idx(i)`, and
/// returns the results **in trial order**.
///
/// Bit-identical output for every `jobs` value, including 1.
///
/// # Panics
///
/// If any trial panics, all trials are still attempted and then the
/// **original payload of the lowest-index panicking trial** is
/// re-thrown via [`resume_unwind`] — the same payload for every `jobs`
/// value, never a synthetic "slot poisoned" or "a scoped thread
/// panicked" message.
pub fn par_trials<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for result in run_caught(jobs, n, base, trial) {
        match result {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// The quarantining variant of [`par_trials`]: each trial's panic is
/// caught and recorded as [`TrialOutcome::Panicked`] in its slot, and
/// every other trial runs to completion.
///
/// The outcome sequence — including which slots are quarantined and
/// their messages — is a pure function of `(seed, n)`, identical for
/// every `jobs` value. Panic-hook output is suppressed for the
/// duration (see [`silence_panics`]); the messages are in the slots.
pub fn try_par_trials<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<TrialOutcome<T>>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let _quiet = silence_panics();
    run_caught(jobs, n, base, trial)
        .into_iter()
        .map(|r| match r {
            Ok(v) => TrialOutcome::Ok(v),
            Err(payload) => TrialOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_arrive_in_trial_order() {
        let base = SimRng::seed(9);
        let out = par_trials(4, 100, &base, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_jobs_invariant() {
        let base = SimRng::seed(1234);
        let serial = par_trials(1, 257, &base, |_, mut rng| rng.next_u64());
        for jobs in [2, 3, 4, 8] {
            let par = par_trials(jobs, 257, &base, |_, mut rng| rng.next_u64());
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn trial_streams_match_fork_idx() {
        let base = SimRng::seed(5);
        let out = par_trials(4, 32, &base, |_, mut rng| rng.next_u64());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, base.fork_idx(i as u64).next_u64());
        }
    }

    #[test]
    fn fold_sees_ascending_indices() {
        // The sweeps accumulate with a plain loop over `par_trials`; at
        // every `jobs` that loop must meet the trials in ascending order.
        let base = SimRng::seed(5);
        for jobs in [1, 4] {
            let mut order = Vec::new();
            for (i, out) in par_trials(jobs, 64, &base, |i, _| i)
                .into_iter()
                .enumerate()
            {
                assert_eq!(i, out, "jobs={jobs}");
                order.push(i);
            }
            assert_eq!(order, (0..64).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_trial_set() {
        let base = SimRng::seed(5);
        let out: Vec<u64> = par_trials(4, 0, &base, |_, mut rng| rng.next_u64());
        assert!(out.is_empty());
    }

    #[test]
    fn quarantine_is_jobs_invariant() {
        // A fixed pseudo-random subset of trials panics; the outcome
        // sequence (slots and messages) must not depend on jobs.
        let base = SimRng::seed(77);
        let run = |jobs| {
            try_par_trials(jobs, 97, &base, |i, mut rng| {
                if rng.chance(0.3) {
                    panic!("trial {i} failed");
                }
                rng.next_u64()
            })
        };
        let serial = run(1);
        assert!(serial.iter().any(|o| !o.is_ok()), "no panic injected");
        assert!(serial.iter().any(|o| o.is_ok()), "every trial panicked");
        for jobs in [2, 4, 8] {
            assert_eq!(serial, run(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn quarantined_messages_carry_the_payload() {
        let base = SimRng::seed(1);
        let out = try_par_trials(4, 8, &base, |i, _| {
            if i == 3 {
                panic!("boom at {i}");
            }
            i
        });
        assert_eq!(out[3].panic_message(), Some("boom at 3"));
        assert_eq!(out[2], TrialOutcome::Ok(2));
        assert_eq!(out.iter().filter(|o| o.is_ok()).count(), 7);
    }

    #[test]
    fn try_fold_sees_quarantined_slots_in_order() {
        // A loop over `try_par_trials` meets every slot in trial order,
        // each quarantined one with its own trial's message.
        let base = SimRng::seed(3);
        let (mut sum, mut panics) = (0usize, 0usize);
        for (i, out) in try_par_trials(4, 32, &base, |i, _| {
            if i % 7 == 0 {
                panic!("die {i}");
            }
            i
        })
        .into_iter()
        .enumerate()
        {
            match out {
                TrialOutcome::Ok(v) => {
                    assert_eq!(v, i);
                    sum += v;
                }
                TrialOutcome::Panicked { message } => {
                    assert_eq!(message, format!("die {i}"));
                    panics += 1;
                }
            }
        }
        assert_eq!(panics, 5, "trials 0,7,14,21,28");
        assert_eq!(sum, (0..32).filter(|i| i % 7 != 0).sum::<usize>());
    }

    #[test]
    fn propagation_rethrows_the_original_payload() {
        // Both serial and parallel paths must surface the payload of
        // the lowest-index panicking trial, not a synthetic message.
        for jobs in [1, 4] {
            let base = SimRng::seed(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_trials(jobs, 16, &base, |i, _| {
                    if i == 5 || i == 11 {
                        panic!("original payload {i}");
                    }
                    i
                })
            }))
            .expect_err("must panic");
            assert_eq!(
                panic_message(caught.as_ref()),
                "original payload 5",
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let odd: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(odd.as_ref()), "<non-string panic payload>");
    }
}
