//! # autosec-benchmark
//!
//! End-to-end and per-layer measurement of the workbench. Every sample
//! runs in a fresh process of the `benchmark` binary, so per-process
//! costs (calibration) are paid by every sample as users pay them; a
//! separate traced pass splits the time by layer. See `README.md`.

pub mod compare;
pub mod measure;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
