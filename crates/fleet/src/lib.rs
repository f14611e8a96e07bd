//! # autosec-fleet — sharded live-fleet service mode
//!
//! Everything before this crate ran *experiments*: closed-form trials
//! that start, measure one thing and exit. `autosec-fleet` is the
//! *service* mode the paper's operational picture implies — a
//! long-running loop over tens of thousands of vehicles, each a
//! lightweight state machine, under **continuous** attack, fault and
//! defense pressure:
//!
//! - direct attacks resolve through the two-tier
//!   [`ScenarioEngine`](autosec_core::engine::ScenarioEngine): by
//!   default against a
//!   [`StepOutcomeTable`](autosec_core::engine::StepOutcomeTable)
//!   calibrated from the live campaign models (table-lookup prices on
//!   the hot path), or with `--fidelity live` replaying every real
//!   [`ScenarioStep`](autosec_core::scenario::ScenarioStep) end to end;
//!   a generated-campaign run (`--campaign generated:N`) instead walks
//!   a pool of composed multi-step campaigns over the attack graph;
//! - epidemic V2X infection spreads through the fleet with pressure
//!   proportional to the compromised fraction, resolved against the
//!   calibrated ghost-object edge of the
//!   [`AttackGraph`](autosec_adversary::AttackGraph);
//! - cross-layer faults from a horizon-scaled
//!   [`FaultPlan`](autosec_faults::FaultPlan) strike exposed subsets
//!   through the real per-layer injection adapters;
//! - each vehicle's detections are answered inside its shard by the
//!   [`ResponseEngine`](autosec_ids::response::ResponseEngine)
//!   playbook, escalating on the vehicle's own strike count to
//!   isolation and limp-home, and verified repairs close the MTTR
//!   loop;
//! - the backend kill chain runs as a live breach process that, while
//!   open, doubles infection pressure.
//!
//! ## Determinism at any shard count
//!
//! The fleet state lives as a struct-of-arrays census
//! ([`FleetState`]: one dense column per field) split into contiguous
//! windows across worker threads, but vehicle `i` draws only from the
//! `fork_idx(i)` substream of the fleet RNG, tick inputs are pure
//! functions of the previous tick, a vehicle's responses touch only
//! its own columns, and shard outputs merge by addition. A run is
//! therefore **bit-identical at any `--shards`, in every fidelity
//! mode** — `--shards` buys wall-clock time and nothing else, a
//! property the integration tests and the CI smoke job verify
//! byte-for-byte on canonical snapshots.
//!
//! A vehicle whose state machine panics is quarantined
//! ([`VehicleStatus::Lost`]) without poisoning its shard; its RNG
//! stream is simply never consumed again, so the rest of the fleet's
//! trajectory is unchanged.
//!
//! ```
//! use autosec_fleet::{FleetConfig, FleetEngine};
//!
//! let report = FleetEngine::new(FleetConfig {
//!     vehicles: 200,
//!     ticks: 20,
//!     shards: 4,
//!     calibration_trials: 4,
//!     ..FleetConfig::default()
//! })
//! .run();
//! assert_eq!(report.final_snapshot().census.total(), 200);
//! assert!(report.availability > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defender;
pub mod engine;
pub mod shard;
pub mod snapshot;
pub mod state;
pub mod vehicle;

pub use defender::{DefenderMode, FleetDefender, TickObservation, FLEET_PRIORITY};
pub use engine::{
    posture_label, CampaignMode, FaultOnset, Fidelity, FleetConfig, FleetEngine, FleetReport,
    TickInputs,
};
pub use shard::{run_tick_sharded, ShardOutput};
pub use snapshot::{Census, CensusTally, FleetSnapshot, FleetTotals};
pub use state::{FleetColumns, FleetState};
pub use vehicle::VehicleStatus;
