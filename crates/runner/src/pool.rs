//! The worker pool behind [`par_trials`](crate::par_trials): indexed
//! tasks claimed from one shared counter.
//!
//! Workers take the next unclaimed index with one `fetch_add`, so a
//! worker that finishes early simply claims more; there are no
//! per-worker queues and no locks a panicking task could poison. An
//! index says nothing about *where* a task runs, only *what* it
//! computes, so callers that key all per-task state off the index get
//! scheduling-independent results.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A task's value, or the payload it panicked with.
pub(crate) type Caught<T> = Result<T, Box<dyn Any + Send>>;

/// Runs `task(i)` for every `i` in `0..n` under `catch_unwind` and
/// returns the results **in index order**. Every index is attempted —
/// a panic never prevents later tasks from running — so which slots
/// hold a payload is the same for every `jobs` value.
///
/// With one worker (`jobs` is clamped to `1..=n`) the tasks run on the
/// calling thread, in index order. Otherwise that many scoped workers
/// claim indices from one counter; each returns its `(index, result)`
/// pairs and the caller puts them back in slot order.
pub(crate) fn execute<T, F>(jobs: usize, n: usize, task: F) -> Vec<Caught<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let caught = |i: usize| catch_unwind(AssertUnwindSafe(|| task(i)));
    let workers = jobs.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(caught).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, caught(i)));
        }
    };
    let mut slots: Vec<Option<Caught<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            // A worker cannot unwind: every task runs under `caught`.
            for (i, out) in handle.join().expect("pool worker") {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{panic_message, silence_panics};

    /// The task of every slot ran once and returned its own index.
    fn assert_each_once(out: &[Caught<usize>], runs: &[AtomicUsize], jobs: usize) {
        assert_eq!(out.len(), runs.len(), "jobs={jobs}");
        for (i, (o, r)) in out.iter().zip(runs).enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "index {i} at jobs={jobs}");
            assert_eq!(*o.as_ref().expect("no panic"), i, "slot {i} at jobs={jobs}");
        }
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    #[test]
    fn executes_every_index_exactly_once() {
        for jobs in [1, 2, 4, 7] {
            let runs = counters(103);
            let out = execute(jobs, 103, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_each_once(&out, &runs, jobs);
        }
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // The first half of the indices is much heavier: workers finish
        // their claims at very different times, and an idle one takes
        // over what is left instead of waiting.
        let n = 64;
        let runs = counters(n);
        let out = execute(4, n, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            let reps = if i < n / 2 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..reps {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_each_once(&out, &runs, 4);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let runs = counters(3);
        let out = execute(16, 3, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_each_once(&out, &runs, 16);
    }

    #[test]
    fn zero_tasks_is_fine() {
        for jobs in [0, 1, 4] {
            let out: Vec<Caught<()>> = execute(jobs, 0, |_| panic!("no tasks"));
            assert!(out.is_empty(), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_clamped() {
        // `jobs = 0` means one worker: the calling thread, in order.
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let out = execute(0, 5, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(order.into_inner().unwrap(), (0..5).collect::<Vec<_>>());
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn panic_payload_propagates_verbatim() {
        // The original payload lands in its own slot — not "a scoped
        // thread panicked" — and every other index still executed, for
        // any worker count.
        let _quiet = silence_panics();
        for jobs in [1, 4] {
            let n = 40;
            let runs = counters(n);
            let out = execute(jobs, n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i == 13 {
                    panic!("task 13 exploded");
                }
                i
            });
            for (i, (o, r)) in out.iter().zip(&runs).enumerate() {
                assert_eq!(r.load(Ordering::Relaxed), 1, "index {i} at jobs={jobs}");
                match o {
                    Ok(v) => assert_eq!(*v, i, "jobs={jobs}"),
                    Err(payload) => {
                        assert_eq!(i, 13, "jobs={jobs}");
                        assert_eq!(panic_message(payload.as_ref()), "task 13 exploded");
                    }
                }
            }
        }
    }

    #[test]
    fn lowest_index_panic_wins_regardless_of_schedule() {
        // `par_trials` re-throws the first payload in slot order; that
        // must be the lowest panicking index at every worker count.
        let _quiet = silence_panics();
        for jobs in [1, 2, 8] {
            let out = execute(jobs, 64, |i| {
                if i % 9 == 4 {
                    panic!("boom {i}");
                }
            });
            let (i, payload) = out
                .iter()
                .enumerate()
                .find_map(|(i, o)| o.as_ref().err().map(|p| (i, p)))
                .expect("a task panicked");
            assert_eq!(i, 4, "jobs={jobs}");
            assert_eq!(panic_message(payload.as_ref()), "boom 4", "jobs={jobs}");
        }
    }
}
