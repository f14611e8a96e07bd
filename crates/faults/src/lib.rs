//! # autosec-faults
//!
//! Deterministic fault injection and self-healing recovery for the
//! `autosec` workbench — the resilience counterpart to the attack
//! campaign. The paper frames layer defenses in terms of response,
//! reconfiguration and graceful degradation; this crate measures those
//! properties directly:
//!
//! - [`plan`] — [`FaultSpec`]/[`FaultPlan`]: parameterized faults
//!   (frame drop/delay/corrupt/duplicate, energy bursts, sensor
//!   dropout, fabricated detections, node crash/restart, update
//!   rollback, clock skew, link failures) scheduled from forked
//!   `SimRng` substreams — bit-identical per seed at any `--jobs N`
//! - [`targets`] — the per-layer [`FaultTarget`](autosec_sim::FaultTarget)
//!   registry; each layer crate contributes one adapter
//! - [`recovery`] — the [`RecoveryEngine`] running detect → isolate →
//!   reconfigure → verify over a plan, with MTTR and availability
//!   metrics
//!
//! The injection vocabulary itself ([`autosec_sim::FaultEffect`],
//! [`autosec_sim::ChannelFault`], [`autosec_sim::FaultTarget`]) lives
//! in `autosec-sim` so every layer crate can implement hooks without
//! depending on this engine.
//!
//! ## Example
//!
//! ```
//! use autosec_faults::{FaultPlan, RecoveryEngine};
//! use autosec_sim::SimRng;
//!
//! let base = SimRng::seed(42);
//! let plan = FaultPlan::standard(&base);
//! let report = RecoveryEngine::new(true).run(&plan, &base);
//! assert_eq!(report.incidents.len(), plan.len());
//! assert!(report.availability() > 0.0);
//! // Fault-free == no-op guarantee:
//! let clean = RecoveryEngine::new(true).run(&FaultPlan::empty(), &base);
//! assert_eq!(clean.availability(), 1.0);
//! ```

pub mod plan;
pub mod recovery;
pub mod targets;

pub use plan::{FaultPlan, FaultSpec};
pub use recovery::{detector_for, Incident, RecoveryConfig, RecoveryEngine, RecoveryReport};
pub use targets::target_for;
