//! # autosec-sim
//!
//! Simulation kernel shared by every layer of the `autosec` workbench:
//! a virtual clock with picosecond resolution, deterministic RNG
//! plumbing, small statistics helpers, the workspace-wide layer and
//! STRIDE vocabularies, and the fault-injection vocabulary the layer
//! crates adapt.
//!
//! The paper's experiments (E2–E13, see `DESIGN.md`) all run on top of this
//! kernel so that results are reproducible from a seed and independent of
//! wall-clock time.
//!
//! ## Example
//!
//! ```
//! use autosec_sim::{SimDuration, SimRng, SimTime};
//!
//! // Forks are pure functions of (seed, label): the same substream
//! // comes back on every run, whatever else drew from the parent.
//! let a = SimRng::seed(42).fork("phy").normal();
//! let b = SimRng::seed(42).fork("phy").normal();
//! assert_eq!(a, b);
//!
//! let t = SimTime::from_us(1) + SimDuration::from_ns(500);
//! assert_eq!(t.as_ps(), 1_500_000);
//! ```

pub mod inject;
pub mod layer;
pub mod rng;
pub mod stats;
pub mod stride;
pub mod time;

pub use inject::{ChannelFault, FaultEffect, FaultTarget, FrameAction, InjectionRecord};
pub use layer::ArchLayer;
pub use rng::SimRng;
pub use stats::{mean, percentile, stddev, RunningStats, Summary};
pub use stride::Stride;
pub use time::{SimDuration, SimTime};
