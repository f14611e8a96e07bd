//! # autosec-autodefense
//!
//! The closed-loop runtime defender and the attacker-vs-defender
//! self-play tournament driver.
//!
//! Everything before this crate chooses the defense **once**: a
//! [`DefensePosture`](autosec_core::campaign::DefensePosture) is fixed
//! before the run and the attacker adapts against a static target. The
//! paper's core argument — attacks on autonomous systems adapt at
//! machine speed, so defenses must too — needs the other half: a
//! defender that watches the alert stream *during* the incident and
//! spends a bounded budget on runtime actions:
//!
//! * **Harden** a layer (flip a posture bit the attacker's next plan
//!   must route around) — [`action::HARDEN_COST`].
//! * **Isolate** a subject the response playbook escalated on
//!   (ban the attack-graph edge) — [`action::ISOLATE_COST`].
//! * **Rotate credentials** behind a repeat-alerting edge (burn the
//!   attacker's tool) — [`action::ROTATE_COST`].
//! * **Buy monitoring** (raise detect probability everywhere — the
//!   counter-stealth move) — [`action::MONITOR_COST`].
//!
//! Each turn the defender tries isolate, rotate, harden and monitor in
//! that fixed order ([`duel`]), under a per-turn **rate limit**
//! ([`duel::RATE_LIMIT`]) and a total budget
//! ([`action::DefenseBudget`]). The order is not learned: on E22's
//! calibrated graph (seeds 42 and 7, both attacker profiles, defender
//! budgets 1–20) every one of the 24 orders of the four rules leaves
//! the breach rate between 99.4% and 100%, so no reordering can move
//! the outcome. The defender draws **no randomness**: a duel's RNG
//! consumption is exactly the adaptive attacker's two draws per step,
//! which makes every tournament artifact bit-identical across `--jobs`
//! ([`tournament`]) and lets a fully pre-spent or zero-budget defender
//! replay the static-posture run bit-for-bit — the equal-cost anchor of
//! experiment E23 and the `--defender off` equivalence property in the
//! fleet.

pub mod action;
pub mod duel;
pub mod tournament;

pub use action::{
    DefenseBudget, HARDEN_COST, ISOLATE_COST, MONITOR_COST, MONITOR_STEP, ROTATE_COST,
};
pub use duel::{duel_trial, DuelConfig, DuelRun, MONITOR_MAX_PURCHASES, ROTATE_THRESHOLD};
pub use tournament::{run_cell, summarize, CellSummary};
