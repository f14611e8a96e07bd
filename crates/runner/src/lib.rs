//! # autosec-runner
//!
//! The experiment-execution engine: a registry of experiments with
//! metadata, deterministic parallel Monte-Carlo helpers, and JSON run
//! artifacts.
//!
//! ## Determinism contract
//!
//! Every parallel helper in this crate maps trial `i` to the RNG
//! stream `base.fork_idx(i)` and merges results **in trial order**, so
//! the output of a run is a pure function of `(seed, trial count)` —
//! bit-identical for any `--jobs N`, including `N = 1`. Workers claim
//! trial indices from a shared counter: that decides *which thread*
//! executes a trial, never *what* the trial computes or where its
//! result lands.
//!
//! ## Layout
//!
//! - [`Table`] — the rendered experiment table (moved here from
//!   `autosec-bench` so the engine can serialize results without
//!   depending on the experiment implementations).
//! - [`Experiment`] / [`Registry`] — experiments as data: id, slug,
//!   title, tags, cost class, and a closure producing a [`Table`].
//! - [`RunCtx`] — seed + job count handed to every experiment.
//! - [`par_trials`] — deterministic parallel Monte-Carlo sweeps;
//!   [`try_par_trials`] quarantines panicking trials as
//!   [`TrialOutcome`]s instead of unwinding.
//! - [`suite`] — the fault-tolerant suite runner: per-experiment
//!   `catch_unwind`, cost-derived soft deadlines, keep-going
//!   degradation, and resume skip sets.
//! - [`proc`] — process-level supervision: suite entries in spawned
//!   worker children that deadlines SIGKILL for real, with peak-RSS
//!   and CPU-seconds budgets enforced by `/proc` polling plus rlimit
//!   backstops.
//! - [`artifact`] — run manifest + per-experiment JSON artifacts, with
//!   per-entry statuses and [`ResumeState`] for `--resume`.
//!
//! ## Fault-tolerance contract
//!
//! Failure handling is as deterministic as success: a panicking trial
//! is quarantined into the same slot with the same message for every
//! `--jobs` value, a panicking experiment never perturbs its
//! neighbors' RNG streams, and a resumed run reuses artifacts only
//! when `(seed, trials-scale, filter set)` all match. Each suite entry
//! runs once: an experiment is a pure function of `(seed,
//! trials-scale)`, so a failed entry is re-run through `--resume` or
//! `--filter failed:<manifest>`, never inside the same run.

pub mod artifact;
pub mod ctx;
pub mod par;
mod pool;
pub mod proc;
pub mod registry;
pub mod suite;
pub mod table;

pub use artifact::DEFAULT_ARTIFACT_DIR;
pub use artifact::{
    normalize_filters, strip_volatile, ArtifactStore, ExperimentRecord, ResumeState, RunManifest,
    RunStatus,
};
pub use ctx::{RunCtx, DEFAULT_SEED};
pub use par::{panic_message, par_trials, silence_panics, try_par_trials, TrialOutcome};
pub use proc::{
    apply_worker_rlimits, worker_failure_path, IsolateMode, ResourceBudgets, WorkerSpec,
};
pub use registry::{Cost, Experiment, Registry};
pub use suite::{run_suite, Isolation, SuiteOptions, SuiteReport};
pub use table::Table;
