//! The fleet service engine: a tick-driven event loop over the whole
//! vehicle population.
//!
//! Each tick runs three phases:
//!
//! 1. **Parallel vehicle phase** ([`crate::shard`]) — every alive
//!    vehicle ingests one telemetry frame and steps its state machine:
//!    fault onsets from the [`FaultPlan`] hit an exposed subset through
//!    the real per-layer [`target_for`] adapters; rare direct attacks
//!    resolve through the run's one attack resolver (see *fidelity*
//!    below); and epidemic V2X infection spreads with pressure
//!    proportional to the previous tick's compromised fraction,
//!    resolved against the calibrated ghost-object edge of the attack
//!    graph.
//!
//!    Almost every vehicle-tick changes nothing: every Bernoulli draw
//!    the vehicle's status calls for misses. Per status, those draws
//!    are, in the full step's order: `Healthy`, one fault-exposure draw
//!    per onset this tick, then a direct attack, then infection;
//!    `Degraded`, the same, then repair if flagged; `Compromised`, late
//!    detection if unflagged or re-alert if flagged; `Isolated`,
//!    verification; `Lost`, none. Each tick turns those lists into
//!    integer thresholds ([`SimRng::chance_threshold`], one draw each,
//!    exactly as `chance` would), one list per status and flag, and
//!    each shard sweeps its window against them eight vehicles at a
//!    time ([`SweepTable`], see [`crate::shard`]). A vehicle whose
//!    draws all miss has its advanced stream committed and its frame
//!    counted. A `Compromised` or `Isolated` vehicle's one draw decides
//!    its whole step, so a hit there commits the draw and finishes the
//!    step (the alert, or the verified recovery); any other hit leaves
//!    the stream untouched and runs the one full per-vehicle step,
//!    which redraws from the start. The sweep only ever commits what
//!    the full step would have, so its outputs are the full step's,
//!    bit for bit. It is off on ticks with a chaos draw, where every
//!    alive vehicle runs the full step, and on ticks whose longest list
//!    outgrows [`SweepTable::MAX_DRAWS`].
//!
//!    Once its vehicles have all stepped, each shard answers their
//!    alerts in the order they were raised: each is one more strike in
//!    the alerting vehicle's own escalation column, the response
//!    [playbook](autosec_ids::response::ResponseEngine::playbook) picks
//!    the action, and the action is applied back (filter/rekey relief,
//!    isolation, limp-home). A verified repair clears the strikes after
//!    that tick's responses.
//! 2. **Merge** — the shards' outputs are additive: totals and the
//!    answered alerts, tallied per layer for the closed-loop defender.
//! 3. **Backend phase** — the Fig. 8 kill chain runs as a live breach
//!    process on its own fleet-level RNG stream: while the backend is
//!    breached, infection pressure doubles (bulk telemetry access).
//!
//! ## Fidelity
//!
//! Direct attacks are the hot path's only expensive event: a live
//! [`ScenarioStep`](autosec_core::scenario::ScenarioStep) replays its
//! whole model (~ms), which caps fleet throughput far below the
//! state-machine floor. [`Fidelity`] picks the resolution tier of a
//! fixed-campaign run:
//!
//! - [`Fidelity::Calibrated`] (default) — attacks resolve against a
//!   [`StepOutcomeTable`] calibrated from the live models at
//!   construction: two Bernoulli draws per attack, exact in
//!   distribution at the calibrated posture.
//! - [`Fidelity::Live`] — every attack replays the live model, the
//!   pre-table behaviour (same per-vehicle draw sequence).
//!
//! A [`CampaignMode::Generated`] run walks its campaign pool over the
//! attack graph at either fidelity and holds neither tier. Each run
//! holds exactly the one resolver it uses, chosen at construction.
//! How far the table strays from the live models is audited by E21
//! (`e21-fidelity-drift`), not by the fleet.
//!
//! ## Determinism contract
//!
//! Vehicle `i` draws only from `root.fork("fleet/vehicles").fork_idx(i)`;
//! tick inputs are pure functions of the *previous* tick's census;
//! a vehicle's alerts are answered in order against its own strikes
//! only; shard outputs merge by addition; the backend stream is
//! engine-level. Therefore a run is bit-identical at any `--shards`
//! count — in every fidelity and campaign mode — the property
//! [`FleetReport::canonical_json`] exposes and CI diffs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autosec_adversary::{calibrated_graph, AttackGraph, CalibrationConfig, EdgeSource, ProbPoint};
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::{LiveScenarioEngine, ScenarioEngine, StepOutcomeTable};
use autosec_core::scenario::PostureCtx;
use autosec_faults::{target_for, FaultPlan};
use autosec_runner::{silence_panics, strip_volatile};
use autosec_scengen::{generate, GenConfig, GeneratedCampaign};
use autosec_sim::{ArchLayer, FaultEffect, SimDuration, SimRng, SimTime, SweepTable};
use rand::RngCore as _;
use serde_json::{json, Value};

use crate::defender::{DefenderMode, FleetDefender, TickObservation};
use crate::shard::{run_tick_swept, ShardOutput};
use crate::snapshot::{Census, FleetSnapshot, FleetTotals};
use crate::state::{sweep_class, FleetColumns, FleetState};
use crate::vehicle::VehicleStatus;

/// Per-tick probability an isolated vehicle's repair verifies.
const VERIFY_P: f64 = 0.35;
/// Per-tick probability a flagged degraded vehicle self-repairs.
const REPAIR_P: f64 = 0.3;
/// Per-tick probability a flagged compromised vehicle re-alerts
/// (accumulating strikes until the playbook escalates to isolation).
const REALERT_P: f64 = 0.3;
/// Infection-pressure multiplier while the backend is breached (bulk
/// telemetry access lets the attacker target V2X sessions).
const BREACH_PRESSURE_MULT: f64 = 2.0;
/// Fraction of the fleet exposed to each fault onset.
const FAULT_EXPOSURE: f64 = 0.01;
/// Per-tick backend kill-chain attempt rate (scaled by the chain's
/// calibrated success probability).
const BREACH_ATTEMPT_RATE: f64 = 0.05;

/// Which tier of the two-tier scenario engine resolves fixed-campaign
/// attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Every attack replays the live scenario model end to end.
    Live,
    /// Every attack resolves against the calibrated
    /// [`StepOutcomeTable`] (two Bernoulli draws).
    Calibrated,
}

impl Fidelity {
    /// Stable label for artifacts and the CLI: `live` or `calibrated`.
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Live => "live",
            Fidelity::Calibrated => "calibrated",
        }
    }

    /// Parses a CLI label (the inverse of [`Fidelity::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "live" => Some(Fidelity::Live),
            "calibrated" => Some(Fidelity::Calibrated),
            _ => None,
        }
    }
}

/// Maximum steps per generated campaign in fleet runs.
const GENERATED_MAX_LEN: usize = 6;

/// Where the fleet's direct attack pressure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// The fixed registry: each attack resolves one uniformly drawn
    /// [`ScenarioStep`](autosec_core::scenario::ScenarioStep) through
    /// the run's fidelity tier.
    Fixed,
    /// Each attack replays one of `count` generated multi-step
    /// campaigns (composed from the run's own calibrated graph by
    /// `autosec-scengen`, seeded by the fleet seed), walked against
    /// the in-force posture with per-vehicle draws only.
    Generated {
        /// Size of the generated campaign pool. Must be positive.
        count: usize,
    },
}

impl CampaignMode {
    /// Stable label for artifacts and the CLI: `fixed` or
    /// `generated:N`.
    pub fn label(&self) -> String {
        match self {
            CampaignMode::Fixed => "fixed".to_owned(),
            CampaignMode::Generated { count } => format!("generated:{count}"),
        }
    }

    /// Parses a CLI label (the inverse of [`CampaignMode::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(CampaignMode::Fixed),
            _ => s
                .strip_prefix("generated:")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .map(|count| CampaignMode::Generated { count }),
        }
    }
}

/// A complete fleet-run parameterization.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size.
    pub vehicles: usize,
    /// Ticks to run.
    pub ticks: u64,
    /// Worker shards (wall-clock only — never changes results).
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulated milliseconds per tick.
    pub tick_ms: u64,
    /// Snapshot period in ticks (0 = final snapshot only).
    pub snapshot_every: u64,
    /// The fleet-wide defense posture.
    pub posture: DefensePosture,
    /// How direct attacks are resolved (see [`Fidelity`]).
    pub fidelity: Fidelity,
    /// Where direct attack pressure comes from (see [`CampaignMode`]).
    pub campaign: CampaignMode,
    /// Per-vehicle per-tick probability of a direct scenario-step
    /// attack.
    pub attack_rate: f64,
    /// Epidemic contact rate: infection pressure per unit compromised
    /// fraction.
    pub infection_beta: f64,
    /// Whether the standard cross-layer fault plan rides along.
    pub faults_enabled: bool,
    /// Monte-Carlo trials per attack-graph edge and per outcome-table
    /// cell during calibration.
    pub calibration_trials: usize,
    /// Per-vehicle per-tick probability of a chaos-injected state
    /// machine panic (0 outside quarantine tests; a positive rate
    /// exercises the per-vehicle quarantine path).
    pub chaos_lost_rate: f64,
    /// Which fleet-wide defense policy runs (see [`DefenderMode`]).
    pub defender: DefenderMode,
    /// The defender's action budget. Zero makes any mode the null
    /// defender, bit-identical to [`DefenderMode::Off`].
    pub defender_budget: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            vehicles: 1_000,
            ticks: 100,
            shards: 1,
            seed: autosec_runner::DEFAULT_SEED,
            tick_ms: 100,
            snapshot_every: 0,
            posture: DefensePosture::full(),
            fidelity: Fidelity::Calibrated,
            campaign: CampaignMode::Fixed,
            attack_rate: 5e-4,
            infection_beta: 0.35,
            faults_enabled: true,
            calibration_trials: 12,
            chaos_lost_rate: 0.0,
            defender: DefenderMode::Off,
            defender_budget: 0.0,
        }
    }
}

impl FleetConfig {
    /// Stable posture label for artifacts.
    pub fn posture_label(&self) -> String {
        posture_label(&self.posture)
    }

    /// Whether the configured defender can ever act (a zero budget is
    /// the null defender, whatever the mode).
    pub fn defender_active(&self) -> bool {
        self.defender != DefenderMode::Off && self.defender_budget > 0.0
    }

    /// Canonical JSON body (deterministic fields only — `shards` is
    /// serialized at the report level, where it is stripped as
    /// volatile). Defender keys appear only when the defender is
    /// active, so a null-defender config renders byte-identical to a
    /// defenderless one.
    pub fn to_json(&self) -> Value {
        let mut v = json!({
            "vehicles": self.vehicles as u64,
            "ticks": self.ticks,
            "seed": self.seed,
            "tick_ms": self.tick_ms,
            "snapshot_every": self.snapshot_every,
            "posture": self.posture_label(),
            "fidelity": self.fidelity.label(),
            "attack_rate": self.attack_rate,
            "infection_beta": self.infection_beta,
            "fault_exposure": FAULT_EXPOSURE,
            "faults_enabled": self.faults_enabled,
            "breach_attempt_rate": BREACH_ATTEMPT_RATE,
            "calibration_trials": self.calibration_trials as u64,
            "chaos_lost_rate": self.chaos_lost_rate,
        });
        if self.defender_active() {
            if let Value::Object(map) = &mut v {
                map.insert("defender".to_owned(), json!(self.defender.label()));
                map.insert("defender_budget".to_owned(), json!(self.defender_budget));
            }
        }
        // Like the defender keys: present only off the default, so
        // fixed-campaign artifacts stay byte-identical to pre-scengen
        // runs.
        if self.campaign != CampaignMode::Fixed {
            if let Value::Object(map) = &mut v {
                map.insert("campaign".to_owned(), json!(self.campaign.label()));
            }
        }
        v
    }
}

/// Stable label for a posture: `none`, `full`, or the enabled layers
/// joined bottom-up.
pub fn posture_label(p: &DefensePosture) -> String {
    if *p == DefensePosture::none() {
        return "none".to_owned();
    }
    if *p == DefensePosture::full() {
        return "full".to_owned();
    }
    p.enabled_layers()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("+")
}

/// Dense index of a layer in [`ArchLayer::ALL`].
fn layer_index(layer: ArchLayer) -> usize {
    ArchLayer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("layer is in ALL")
}

/// A fault onset resolved to a fleet-level **reference injection**.
///
/// Running the real per-layer adapter for every exposed vehicle would
/// cost hundreds of milliseconds per vehicle on the heavy layers
/// (software-platform restarts replay the whole SDV reconfiguration
/// race), which no 100k-vehicle loop can afford. Instead the engine
/// runs each adapter **once** per onset on a fleet-level stream
/// (`fleet/faults/ref`, forked by spec index — shard-invariant by
/// construction) and records the reference outcome; exposed vehicles
/// then derive their own cheap dispersion around it from their private
/// streams. Fidelity is anchored in the real models, per-vehicle cost
/// is a couple of RNG draws.
#[derive(Debug, Clone, Copy)]
pub struct FaultOnset {
    /// Layer the fault strikes (names the alerting detector).
    pub layer: ArchLayer,
    /// Residual health of the reference injection under the run
    /// posture.
    pub ref_health: f64,
    /// Per-vehicle detection probability (high when the reference
    /// injection was detected, low otherwise).
    pub detect_p: f64,
}

/// Per-vehicle detection probability when the reference injection was
/// detected by the layer's defenses.
const FAULT_DETECT_P_SEEN: f64 = 0.7;
/// ... and when it slipped past them.
const FAULT_DETECT_P_MISSED: f64 = 0.1;

/// Shard-invariant inputs shared by every vehicle this tick — pure
/// functions of the previous tick's state.
#[derive(Debug, Clone)]
pub struct TickInputs {
    /// The tick being executed (1-based).
    pub tick: u64,
    /// Epidemic infection pressure (contact probability per vehicle).
    pub infection_pressure: f64,
    /// Faults striking exactly this tick, pre-resolved to reference
    /// injections.
    pub fault_onsets: Vec<FaultOnset>,
    /// Effects active during this tick, per layer
    /// ([`ArchLayer::ALL`] order) — the fault context direct attacks
    /// execute under.
    pub active_faults: [Vec<FaultEffect>; 6],
}

/// What resolves a run's direct attacks: chosen once in
/// [`FleetEngine::with_parts`] from the campaign mode and fidelity.
enum Resolver {
    /// A fixed-campaign [`Fidelity::Live`] run: every attack replays
    /// its step.
    Live(Arc<LiveScenarioEngine>),
    /// A fixed-campaign [`Fidelity::Calibrated`] run: two draws
    /// against the table.
    Table(StepOutcomeTable),
    /// A [`CampaignMode::Generated`] run at either fidelity: each
    /// attack walks one campaign of the pool over the graph.
    Walk(Vec<GeneratedCampaign>),
}

/// Per-tick environment for the per-vehicle step. Everything here is
/// run-constant unless a closed-loop defender mutates the posture
/// between ticks, in which case the posture-derived fields are
/// recomputed.
struct StepEnv<'a> {
    cfg: &'a FleetConfig,
    /// What resolves direct attacks this run.
    resolver: &'a Resolver,
    /// The graph a generated campaign walks over.
    graph: &'a AttackGraph,
    /// The posture in force this tick (the configured posture unless a
    /// defender hardened layers).
    posture: DefensePosture,
    /// Calibrated V2X infection edge under the tick posture.
    epi: ProbPoint,
    /// Per-tick probability a silent compromise is flagged after the
    /// fact (grows with defense depth and bought monitoring).
    late_detect_p: f64,
    /// The tick's sweep (see [`sweep_table`]); `None` on ticks where
    /// every alive vehicle runs [`step_vehicle`].
    sweep: Option<SweepTable>,
}

/// The sweep of one tick: per status and flag, the thresholds of the
/// draws [`step_vehicle`] makes, in its order (the module docs list
/// them), with `Lost` skipped. A `Compromised` or `Isolated` vehicle
/// makes one draw, and a hit there commits it (see [`step_hit`]).
/// `late_detect_p` is the tick's, monitoring boost included.
///
/// `None` when the chaos draw is on (it draws per vehicle before any
/// other draw, and every step must run under the quarantine path) or
/// when so many fault onsets coincide that a list outgrows the sweep.
fn sweep_table(cfg: &FleetConfig, inputs: &TickInputs, late_detect_p: f64) -> Option<SweepTable> {
    if cfg.chaos_lost_rate > 0.0 {
        return None;
    }
    let mut exposed = vec![SimRng::chance_threshold(FAULT_EXPOSURE); inputs.fault_onsets.len()];
    if cfg.attack_rate > 0.0 {
        exposed.push(SimRng::chance_threshold(cfg.attack_rate));
    }
    if inputs.infection_pressure > 0.0 {
        exposed.push(SimRng::chance_threshold(inputs.infection_pressure));
    }
    let repair = [&exposed[..], &[SimRng::chance_threshold(REPAIR_P)]].concat();
    if repair.len() > SweepTable::MAX_DRAWS {
        return None;
    }
    let mut table = SweepTable::new();
    for flagged in [false, true] {
        table.set_draws(
            sweep_class(VehicleStatus::Healthy, flagged),
            &exposed,
            false,
        );
        let degraded = if flagged { &repair } else { &exposed };
        table.set_draws(
            sweep_class(VehicleStatus::Degraded, flagged),
            degraded,
            false,
        );
        let compromised = if flagged { REALERT_P } else { late_detect_p };
        let one_draw = [
            (VehicleStatus::Compromised, compromised),
            (VehicleStatus::Isolated, VERIFY_P),
        ];
        for (status, p) in one_draw {
            table.set_draws(
                sweep_class(status, flagged),
                &[SimRng::chance_threshold(p)],
                true,
            );
        }
    }
    Some(table)
}

/// One vehicle's tick when the sweep did not finish it: a `Compromised`
/// or `Isolated` vehicle's hit is already committed, so it finishes
/// through [`one_draw_event`]; every other vehicle runs
/// [`step_vehicle`] from its untouched stream.
fn step_hit(
    cols: &mut FleetColumns<'_>,
    i: usize,
    env: &StepEnv<'_>,
    inputs: &TickInputs,
    out: &mut ShardOutput,
) {
    if env.sweep.is_some()
        && matches!(
            cols.status[i],
            VehicleStatus::Compromised | VehicleStatus::Isolated
        )
    {
        out.counters.telemetry_frames += 1;
        one_draw_event(cols, i, inputs.tick, out);
    } else {
        step_vehicle(cols, i, env, inputs, out);
    }
}

/// One vehicle's tick: state machine + private RNG only. See the
/// module docs for the phase ordering contract.
#[inline(never)]
fn step_vehicle(
    cols: &mut FleetColumns<'_>,
    i: usize,
    env: &StepEnv<'_>,
    inputs: &TickInputs,
    out: &mut ShardOutput,
) {
    out.counters.telemetry_frames += 1;
    let mut rng = cols.rng.get(i);
    if env.cfg.chaos_lost_rate > 0.0 && rng.chance(env.cfg.chaos_lost_rate) {
        panic!("chaos: vehicle {} state machine corrupted", cols.id(i));
    }
    match cols.status[i] {
        VehicleStatus::Healthy | VehicleStatus::Degraded => {
            // Fault onsets: an exposed subset suffers its own
            // dispersion around the fleet-level reference injection.
            for onset in &inputs.fault_onsets {
                if !rng.chance(FAULT_EXPOSURE) {
                    continue;
                }
                out.counters.fault_injections += 1;
                // Each vehicle takes between 0.5x and 1.5x of the
                // reference health deficit.
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let mult = 1.0 - (1.0 - onset.ref_health) * (0.5 + u);
                cols.health[i] = (cols.health[i] * mult.clamp(0.0, 1.0)).max(0.0);
                if cols.health[i] < 1.0 && cols.status[i] == VehicleStatus::Healthy {
                    cols.status[i] = VehicleStatus::Degraded;
                    cols.since[i] = inputs.tick;
                    cols.incident_layer[i] = onset.layer;
                }
                if rng.chance(onset.detect_p) {
                    cols.flagged[i] = true;
                    out.alerts.push((i, onset.layer));
                }
            }
            // Rare direct attack. Generated-campaign mode walks one
            // composed multi-step campaign against the in-force
            // posture — per-vehicle draws only, no fidelity engine, so
            // snapshots are identical across fidelity modes and shard
            // counts by the same argument as every other vehicle draw.
            if env.cfg.attack_rate > 0.0 && rng.chance(env.cfg.attack_rate) {
                out.counters.attacks_attempted += 1;
                match env.resolver {
                    Resolver::Live(live) => {
                        step_attack(&**live, cols, i, &mut rng, env, inputs, out)
                    }
                    Resolver::Table(table) => {
                        step_attack(table, cols, i, &mut rng, env, inputs, out)
                    }
                    Resolver::Walk(pool) => {
                        let si = (rng.next_u64() % pool.len() as u64) as usize;
                        let campaign = &pool[si];
                        let walk = campaign.walk(env.graph, &env.posture, &mut rng, |layer| {
                            out.alerts.push((i, layer));
                        });
                        if walk.breached {
                            out.counters.attacks_succeeded += 1;
                            let last = *campaign.edges.last().expect("non-empty");
                            cols.compromise(i, inputs.tick, env.graph.edges()[last].layer);
                            cols.flagged[i] = walk.alerted;
                        }
                    }
                }
            }
            // Epidemic V2X infection from the compromised population.
            if matches!(
                cols.status[i],
                VehicleStatus::Healthy | VehicleStatus::Degraded
            ) && inputs.infection_pressure > 0.0
                && rng.chance(inputs.infection_pressure)
                && rng.chance(env.epi.success)
            {
                out.counters.infections += 1;
                cols.compromise(i, inputs.tick, ArchLayer::Collaboration);
                if rng.chance(env.epi.detect) {
                    cols.flagged[i] = true;
                    out.alerts.push((i, ArchLayer::Collaboration));
                }
            }
            // Flagged degraded vehicles self-repair (reconfigure +
            // verify) without needing isolation.
            if cols.status[i] == VehicleStatus::Degraded && cols.flagged[i] && rng.chance(REPAIR_P)
            {
                out.counters.recoveries += 1;
                out.counters.mttr_ticks += inputs.tick - cols.since[i];
                cols.restore(i);
                out.recovered.push(cols.id(i));
            }
        }
        VehicleStatus::Compromised => {
            if !cols.flagged[i] {
                // Continuous IDS sweep: silent compromises surface
                // eventually, faster under deeper postures.
                if rng.chance(env.late_detect_p) {
                    cols.flagged[i] = true;
                    out.alerts.push((i, cols.incident_layer[i]));
                }
            } else if rng.chance(REALERT_P) {
                // Known-compromised vehicles keep alerting until the
                // playbook escalates to isolation.
                out.alerts.push((i, cols.incident_layer[i]));
            }
        }
        VehicleStatus::Isolated => {
            if rng.chance(VERIFY_P) {
                out.counters.recoveries += 1;
                out.counters.mttr_ticks += inputs.tick - cols.since[i];
                cols.restore(i);
                out.recovered.push(cols.id(i));
            }
        }
        VehicleStatus::Lost => {}
    }
    cols.rng.set(i, &rng);
}

/// A fixed-campaign attack: one uniformly drawn registry step,
/// resolved by `engine` under the in-force posture and the attacked
/// layer's active faults.
fn step_attack(
    engine: &dyn ScenarioEngine,
    cols: &mut FleetColumns<'_>,
    i: usize,
    rng: &mut SimRng,
    env: &StepEnv<'_>,
    inputs: &TickInputs,
    out: &mut ShardOutput,
) {
    let idx = (rng.next_u64() % engine.step_count() as u64) as usize;
    let layer = engine.step_layer(idx);
    let ctx = PostureCtx {
        posture: &env.posture,
        faults: &inputs.active_faults[layer_index(layer)],
    };
    let outcome = engine.resolve(idx, &ctx, rng);
    if outcome.succeeded {
        out.counters.attacks_succeeded += 1;
        cols.compromise(i, inputs.tick, layer);
        cols.flagged[i] = outcome.detected;
    }
    if outcome.detected {
        out.alerts.push((i, layer));
    }
}

/// What [`step_vehicle`] does once a `Compromised` or `Isolated`
/// vehicle's one draw hits: the alert (flagging a silent compromise
/// first), or the verified recovery.
#[inline(never)]
fn one_draw_event(cols: &mut FleetColumns<'_>, i: usize, tick: u64, out: &mut ShardOutput) {
    if cols.status[i] == VehicleStatus::Isolated {
        out.counters.recoveries += 1;
        out.counters.mttr_ticks += tick - cols.since[i];
        cols.restore(i);
        out.recovered.push(cols.id(i));
    } else {
        cols.flagged[i] = true;
        out.alerts.push((i, cols.incident_layer[i]));
    }
}

/// The live-fleet engine. Construct with [`FleetEngine::new`] (which
/// calibrates its own attack graph and outcome table),
/// [`FleetEngine::with_graph`] (sharing a pre-calibrated graph) or
/// [`FleetEngine::with_parts`] (sharing a pre-calibrated table too),
/// then [`FleetEngine::run`].
pub struct FleetEngine {
    cfg: FleetConfig,
    graph: AttackGraph,
    resolver: Resolver,
    state: FleetState,
    plan: FaultPlan,
    /// `(onset_tick, reference injection)` per fault spec, resolved
    /// once at construction on the `fleet/faults/ref` stream.
    onsets: Vec<(u64, FaultOnset)>,
    /// The fleet-wide defense policy (inert unless configured active).
    defender: FleetDefender,
}

impl FleetEngine {
    /// Builds the engine, calibrating the attack graph — and, for a
    /// calibrated fixed-campaign run, the step outcome table — from the
    /// live models (`calibration_trials` per edge/cell; `shards` only
    /// parallelizes the calibration, never changes it).
    ///
    /// # Panics
    ///
    /// Panics if `vehicles` or `ticks` is zero.
    pub fn new(cfg: FleetConfig) -> Self {
        let calib = CalibrationConfig::new(cfg.calibration_trials, cfg.shards);
        let graph = calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"));
        Self::with_graph(cfg, graph)
    }

    /// Builds the engine around a pre-calibrated graph (the graph
    /// carries both posture sides, so one calibration serves every
    /// posture in a sweep). The outcome table, if the run needs one, is
    /// calibrated here.
    ///
    /// # Panics
    ///
    /// Panics if `vehicles` or `ticks` is zero, or if a generated
    /// campaign pool comes out empty.
    pub fn with_graph(cfg: FleetConfig, graph: AttackGraph) -> Self {
        Self::with_parts(cfg, graph, None)
    }

    /// Builds the engine around a pre-calibrated graph and,
    /// optionally, a shared pre-calibrated [`StepOutcomeTable`] (one
    /// depth-ladder table can serve a whole posture sweep). Only a
    /// calibrated fixed-campaign run reads a table: when `table` is
    /// `None` there, one is calibrated on the `fleet/table` substream;
    /// a table passed to a live or generated-campaign run is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `vehicles` or `ticks` is zero, if a generated campaign
    /// pool comes out empty, or if a closed-loop run is handed a table
    /// that does not cover the postures its defender can reach.
    pub fn with_parts(
        mut cfg: FleetConfig,
        graph: AttackGraph,
        table: Option<StepOutcomeTable>,
    ) -> Self {
        assert!(cfg.vehicles > 0, "fleet needs at least one vehicle");
        assert!(cfg.ticks > 0, "fleet needs at least one tick");
        // A static defender spends its whole budget hardening the
        // configured posture *now*, before calibration and fault
        // references, so the entire run sees the hardened posture. A
        // closed-loop defender holds its budget for runtime turns.
        let mut defender = FleetDefender::new(cfg.defender, cfg.defender_budget);
        defender.prespend_static(&mut cfg.posture);
        let root = SimRng::seed(cfg.seed);
        let resolver = match (cfg.campaign, cfg.fidelity) {
            // Generated-campaign pool: composed from the run's own
            // calibrated graph, seeded by the fleet seed (generation
            // derives its own substreams and touches no fleet stream).
            (CampaignMode::Generated { count }, _) => {
                let pool = generate(&graph, &GenConfig::new(count, GENERATED_MAX_LEN, cfg.seed));
                assert!(
                    !pool.is_empty(),
                    "generated-campaign mode produced an empty pool"
                );
                Resolver::Walk(pool)
            }
            (CampaignMode::Fixed, Fidelity::Live) => {
                Resolver::Live(Arc::new(LiveScenarioEngine::from_registry()))
            }
            (CampaignMode::Fixed, Fidelity::Calibrated) => Resolver::Table(match table {
                Some(t) => {
                    if defender.is_closed_loop() {
                        assert!(
                            t.covers(&cfg.posture) && t.covers(&DefensePosture::full()),
                            "a closed-loop run needs a table covering every posture \
                             the defender can harden into (share a depth-ladder table)"
                        );
                    }
                    t
                }
                // A closed-loop defender can harden into postures off
                // the configured point, so its table is the full depth
                // ladder (covers any posture by per-layer fallback).
                None if defender.is_closed_loop() => StepOutcomeTable::calibrate_depths(
                    cfg.calibration_trials,
                    cfg.shards,
                    &root.fork("fleet/table"),
                ),
                None => StepOutcomeTable::calibrate(
                    &[cfg.posture],
                    cfg.calibration_trials,
                    cfg.shards,
                    &root.fork("fleet/table"),
                ),
            }),
        };
        let state = FleetState::new(cfg.vehicles, &root.fork("fleet/vehicles"));
        let plan = if cfg.faults_enabled {
            FaultPlan::standard_over(
                &root.fork("fleet/faults"),
                SimDuration::from_ms(cfg.ticks * cfg.tick_ms),
            )
        } else {
            FaultPlan::empty()
        };
        // Resolve every spec to its reference injection now (see
        // [`FaultOnset`]): one real adapter run per spec, on a stream
        // forked by spec index — a pure function of the seed.
        let ref_base = root.fork("fleet/faults/ref");
        let onsets: Vec<(u64, FaultOnset)> = plan
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.effect.is_noop())
            .map(|(i, s)| {
                let layer = s.effect.layer();
                let mut rng = ref_base.fork_idx(i as u64);
                let rec =
                    target_for(layer).apply(&[s.effect], cfg.posture.enabled(layer), &mut rng);
                let onset = FaultOnset {
                    layer,
                    ref_health: rec.health.clamp(0.0, 1.0),
                    detect_p: if rec.detected {
                        FAULT_DETECT_P_SEEN
                    } else {
                        FAULT_DETECT_P_MISSED
                    },
                };
                (onset_tick(s.onset, cfg.tick_ms), onset)
            })
            .collect();
        Self {
            cfg,
            graph,
            resolver,
            state,
            plan,
            onsets,
            defender,
        }
    }

    /// Runs the fleet to completion.
    pub fn run(self) -> FleetReport {
        let FleetEngine {
            cfg,
            graph,
            resolver,
            mut state,
            plan,
            onsets,
            mut defender,
        } = self;
        let start = Instant::now();
        let _quiet = (cfg.chaos_lost_rate > 0.0).then(silence_panics);

        // The posture in force; a closed-loop defender may harden it
        // between ticks, which recomputes the derived rates below.
        let mut posture = cfg.posture;
        let (mut epi, mut late_detect_p, mut kc_success, mut kc_detect) =
            derived_rates(&graph, &posture);

        let mut backend_rng = SimRng::seed(cfg.seed).fork("fleet/backend");
        let mut breached = false;
        let mut totals = FleetTotals::default();
        let mut snapshots: Vec<FleetSnapshot> = Vec::new();
        let mut availability_sum = 0.0;
        let mut prev_census = Census::take(&state);

        for tick in 1..=cfg.ticks {
            let inputs = tick_inputs(&cfg, &plan, &onsets, tick, &prev_census, breached);
            // Bit-exact without a defender: monitor_boost() is +0.0
            // until monitoring is bought.
            let tick_late_detect_p = late_detect_p + defender.monitor_boost();
            let env = StepEnv {
                cfg: &cfg,
                resolver: &resolver,
                graph: &graph,
                posture,
                epi,
                late_detect_p: tick_late_detect_p,
                sweep: sweep_table(&cfg, &inputs, tick_late_detect_p),
            };

            // Phase 1: parallel vehicle phase.
            let outs = run_tick_swept(
                &mut state,
                cfg.shards,
                tick,
                env.sweep.as_ref(),
                |cols, i, out| step_hit(cols, i, &env, &inputs, out),
            );

            // Phase 2: additive merge of the shard outputs.
            let mut layer_alerts = [0u32; 6];
            for out in &outs {
                totals.absorb(&out.counters);
                for &(_, layer) in &out.alerts {
                    layer_alerts[layer as usize] += 1;
                }
            }

            // Phase 3: the backend breach process (fleet-level stream).
            if breached {
                if backend_rng.chance(0.05 + 0.3 * kc_detect) {
                    breached = false;
                    totals.backend_patches += 1;
                }
            } else if backend_rng.chance(BREACH_ATTEMPT_RATE * kc_success) {
                breached = true;
                totals.backend_breaches += 1;
            }

            // Census, availability integral, periodic snapshot.
            let census = Census::take(&state);
            availability_sum += census.mean_health;
            let periodic = cfg.snapshot_every > 0 && tick % cfg.snapshot_every == 0;
            if periodic || tick == cfg.ticks {
                snapshots.push(FleetSnapshot {
                    tick,
                    backend_breached: breached,
                    census,
                    totals,
                });
            }

            // Closed-loop defender turn: a pure function of this
            // tick's merged outputs (no RNG), so it is exactly as
            // shard-invariant as the census it reads.
            if defender.is_closed_loop() {
                let obs = TickObservation {
                    layer_alerts,
                    compromised_frac: census.compromised as f64 / census.total().max(1) as f64,
                    backend_breached: breached,
                };
                if defender.tick(&mut posture, &obs) {
                    debug_assert!(
                        !matches!(&resolver, Resolver::Table(t) if !t.covers(&posture)),
                        "defender hardened into an uncalibrated posture"
                    );
                    (epi, late_detect_p, kc_success, kc_detect) = derived_rates(&graph, &posture);
                }
            }
            prev_census = census;
        }

        FleetReport {
            defender: defender.is_active().then_some(defender),
            config: cfg.clone(),
            snapshots,
            availability: availability_sum / cfg.ticks as f64,
            wall: start.elapsed(),
        }
    }
}

/// The posture-derived rates the tick loop consumes: the calibrated
/// V2X infection edge, the late-detection sweep rate (grows with
/// defense depth), and the Fig. 8 kill chain folded to one
/// breach/detect pair. Op-for-op identical to the pre-defender
/// computation, so defenderless runs are unchanged bit for bit.
fn derived_rates(graph: &AttackGraph, posture: &DefensePosture) -> (ProbPoint, f64, f64, f64) {
    let epi = graph
        .edge_for(&EdgeSource::Scenario("v2x-ghost-object"))
        .expect("calibrated graph carries the V2X edge")
        .prob(posture);
    let late_detect_p = 0.05 + 0.03 * posture.enabled_count() as f64;
    let kc: Vec<ProbPoint> = graph
        .edges()
        .iter()
        .filter(|e| matches!(e.source, EdgeSource::KillChain(_)))
        .map(|e| e.prob(posture))
        .collect();
    let kc_success: f64 = kc.iter().map(|p| p.success).product();
    let kc_detect: f64 = 1.0 - kc.iter().map(|p| 1.0 - p.detect).product::<f64>();
    (epi, late_detect_p, kc_success, kc_detect)
}

/// The tick a fault spec first applies at (its onset rounded up to a
/// tick boundary, and at least tick 1).
fn onset_tick(onset: SimTime, tick_ms: u64) -> u64 {
    let tick_ps = SimDuration::from_ms(tick_ms).as_ps();
    onset.as_ps().div_ceil(tick_ps).max(1)
}

/// Assembles the shard-invariant inputs for `tick` from the previous
/// census and breach state.
fn tick_inputs(
    cfg: &FleetConfig,
    plan: &FaultPlan,
    onsets: &[(u64, FaultOnset)],
    tick: u64,
    prev: &Census,
    breached: bool,
) -> TickInputs {
    let fault_onsets: Vec<FaultOnset> = onsets
        .iter()
        .filter(|(t, _)| *t == tick)
        .map(|(_, o)| *o)
        .collect();
    let now = SimTime::from_ms(tick * cfg.tick_ms);
    let active_faults: [Vec<FaultEffect>; 6] =
        ArchLayer::ALL.map(|layer| plan.effects_at(now, layer));
    let compromised_frac = if prev.total() == 0 {
        0.0
    } else {
        prev.compromised as f64 / prev.total() as f64
    };
    let mult = if breached { BREACH_PRESSURE_MULT } else { 1.0 };
    TickInputs {
        tick,
        infection_pressure: cfg.infection_beta * compromised_frac * mult,
        fault_onsets,
        active_faults,
    }
}

/// The completed run: snapshots, availability, MTTR and wall-clock
/// throughput.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration that produced it.
    pub config: FleetConfig,
    /// Periodic snapshots; the last entry is always the final tick.
    pub snapshots: Vec<FleetSnapshot>,
    /// Mean fleet health over all ticks.
    pub availability: f64,
    /// The defender after the run (`None` when inactive, keeping the
    /// artifact byte-identical to a defenderless run).
    pub defender: Option<FleetDefender>,
    /// Wall-clock duration of the run (volatile).
    pub wall: Duration,
}

impl FleetReport {
    /// The final snapshot (the run always produces at least one).
    pub fn final_snapshot(&self) -> &FleetSnapshot {
        self.snapshots.last().expect("runs produce >= 1 snapshot")
    }

    /// Cumulative totals at the end of the run.
    pub fn totals(&self) -> &FleetTotals {
        &self.final_snapshot().totals
    }

    /// Mean time to recovery in milliseconds.
    pub fn mttr_ms(&self) -> f64 {
        self.totals().mttr_ms(self.config.tick_ms)
    }

    /// Total vehicle-ticks simulated.
    pub fn vehicle_ticks(&self) -> u64 {
        self.config.vehicles as u64 * self.config.ticks
    }

    /// Vehicle-ticks per wall-clock second (the benchmark's
    /// `vehicle_ticks_per_s`, see `benchmark/README.md`).
    pub fn throughput(&self) -> f64 {
        self.vehicle_ticks() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The full artifact body: deterministic payload plus the volatile
    /// keys (`shards`, `duration_ms`, `vehicle_ticks_per_sec`) that
    /// canonical mode strips.
    pub fn to_json(&self) -> Value {
        let mut v = json!({
            "config": self.config.to_json(),
            "shards": self.config.shards as u64,
            "duration_ms": self.wall.as_secs_f64() * 1e3,
            "vehicle_ticks_per_sec": self.throughput(),
            "availability": self.availability,
            "mttr_ms": self.mttr_ms(),
            "snapshots": self.snapshots.iter().map(FleetSnapshot::to_json).collect::<Vec<_>>(),
        });
        if let (Value::Object(map), Some(d)) = (&mut v, &self.defender) {
            map.insert("defender".to_owned(), d.to_json());
        }
        v
    }

    /// The canonical (shard-invariant) artifact body — what two runs
    /// of the same `(seed, config)` must agree on byte for byte.
    pub fn canonical_json(&self) -> Value {
        strip_volatile(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FleetConfig {
        FleetConfig {
            vehicles: 120,
            ticks: 12,
            shards: 1,
            seed: 7,
            snapshot_every: 4,
            attack_rate: 0.02,
            calibration_trials: 4,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let a = FleetEngine::new(tiny_cfg()).run();
        let b = FleetEngine::new(tiny_cfg()).run();
        assert_eq!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string()
        );
        assert_eq!(a.snapshots.len(), 3, "ticks 4, 8, 12");
        assert_eq!(a.final_snapshot().tick, 12);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FleetEngine::new(tiny_cfg()).run();
        let mut cfg = tiny_cfg();
        cfg.seed = 8;
        let b = FleetEngine::new(cfg).run();
        assert_ne!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string()
        );
    }

    #[test]
    fn census_conserves_the_fleet() {
        let report = FleetEngine::new(tiny_cfg()).run();
        for snap in &report.snapshots {
            assert_eq!(snap.census.total(), 120, "tick {}", snap.tick);
        }
        let t = report.totals();
        assert_eq!(
            t.telemetry_frames,
            120 * 12,
            "no vehicle lost: every vehicle emitted every tick"
        );
        assert!(report.availability > 0.0 && report.availability <= 1.0);
    }

    #[test]
    fn undefended_fleet_fares_worse() {
        let defended = FleetEngine::new(tiny_cfg()).run();
        let mut cfg = tiny_cfg();
        cfg.posture = DefensePosture::none();
        let undefended = FleetEngine::new(cfg).run();
        assert!(
            undefended.final_snapshot().census.compromised
                >= defended.final_snapshot().census.compromised,
            "undefended {} !>= defended {}",
            undefended.final_snapshot().census.compromised,
            defended.final_snapshot().census.compromised
        );
    }

    #[test]
    fn chaos_quarantines_without_killing_the_run() {
        let mut cfg = tiny_cfg();
        cfg.chaos_lost_rate = 0.01;
        let report = FleetEngine::new(cfg).run();
        let t = report.totals();
        assert!(t.lost > 0, "1% chaos over 1440 vehicle-ticks");
        assert_eq!(report.final_snapshot().census.lost, t.lost);
        assert!(t.telemetry_frames < 120 * 12, "lost vehicles stop emitting");
    }

    #[test]
    fn posture_labels_are_stable() {
        assert_eq!(posture_label(&DefensePosture::none()), "none");
        assert_eq!(posture_label(&DefensePosture::full()), "full");
        assert_eq!(posture_label(&DefensePosture::depth(2)), "physical+network");
    }

    #[test]
    fn fidelity_labels_round_trip() {
        for f in [Fidelity::Live, Fidelity::Calibrated] {
            assert_eq!(Fidelity::parse(f.label()), Some(f));
        }
        assert_eq!(Fidelity::parse("mixed:4"), None, "no shadow tier");
        assert_eq!(Fidelity::parse("tables"), None);
    }

    #[test]
    fn campaign_labels_round_trip() {
        for c in [CampaignMode::Fixed, CampaignMode::Generated { count: 8 }] {
            assert_eq!(CampaignMode::parse(&c.label()), Some(c));
        }
        assert_eq!(
            CampaignMode::parse("generated:0"),
            None,
            "empty pool is invalid"
        );
        assert_eq!(CampaignMode::parse("generated"), None);
        assert_eq!(CampaignMode::parse("scripted"), None);
    }

    #[test]
    fn fixed_mode_config_json_is_unchanged() {
        // The exact bytes: `fault_exposure` and `breach_attempt_rate`
        // render from the engine's constants, and the campaign and
        // defender keys appear only off their defaults.
        assert_eq!(
            tiny_cfg().to_json().to_string(),
            "{\"attack_rate\":0.02,\"breach_attempt_rate\":0.05,\"calibration_trials\":4,\
             \"chaos_lost_rate\":0.0,\"fault_exposure\":0.01,\"faults_enabled\":true,\
             \"fidelity\":\"calibrated\",\"infection_beta\":0.35,\"posture\":\"full\",\"seed\":7,\
             \"snapshot_every\":4,\"tick_ms\":100,\"ticks\":12,\"vehicles\":120}"
        );
        let generated = FleetConfig {
            campaign: CampaignMode::Generated { count: 8 },
            ..tiny_cfg()
        };
        assert_eq!(
            generated.to_json().to_string(),
            "{\"attack_rate\":0.02,\"breach_attempt_rate\":0.05,\"calibration_trials\":4,\
             \"campaign\":\"generated:8\",\"chaos_lost_rate\":0.0,\"fault_exposure\":0.01,\
             \"faults_enabled\":true,\"fidelity\":\"calibrated\",\"infection_beta\":0.35,\
             \"posture\":\"full\",\"seed\":7,\"snapshot_every\":4,\"tick_ms\":100,\"ticks\":12,\
             \"vehicles\":120}"
        );
        let closed_loop = FleetConfig {
            defender: DefenderMode::ClosedLoop,
            defender_budget: 4.0,
            ..tiny_cfg()
        };
        assert_eq!(
            closed_loop.to_json().to_string(),
            "{\"attack_rate\":0.02,\"breach_attempt_rate\":0.05,\"calibration_trials\":4,\
             \"chaos_lost_rate\":0.0,\"defender\":\"closed-loop\",\"defender_budget\":4.0,\
             \"fault_exposure\":0.01,\"faults_enabled\":true,\"fidelity\":\"calibrated\",\
             \"infection_beta\":0.35,\"posture\":\"full\",\"seed\":7,\"snapshot_every\":4,\
             \"tick_ms\":100,\"ticks\":12,\"vehicles\":120}"
        );
    }

    #[test]
    fn generated_mode_runs_deterministically() {
        let mut cfg = tiny_cfg();
        cfg.campaign = CampaignMode::Generated { count: 6 };
        cfg.attack_rate = 0.05;
        let a = FleetEngine::new(cfg.clone()).run();
        let b = FleetEngine::new(cfg).run();
        assert_eq!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string()
        );
        assert!(a.totals().attacks_attempted > 0, "walkers fired");
    }

    #[test]
    fn each_run_holds_the_one_resolver_it_uses() {
        let cfg = tiny_cfg();
        let calib = CalibrationConfig::new(cfg.calibration_trials, 1);
        let graph = calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"));
        let resolver = |fidelity, campaign, defender| {
            let cfg = FleetConfig {
                fidelity,
                campaign,
                defender,
                defender_budget: 3.0,
                ..cfg.clone()
            };
            FleetEngine::with_graph(cfg, graph.clone()).resolver
        };
        let generated = CampaignMode::Generated { count: 6 };
        for defender in [DefenderMode::Off, DefenderMode::ClosedLoop] {
            let fixed = CampaignMode::Fixed;
            assert!(matches!(
                resolver(Fidelity::Calibrated, fixed, defender),
                Resolver::Table(_)
            ));
            assert!(matches!(
                resolver(Fidelity::Live, fixed, defender),
                Resolver::Live(_)
            ));
            for fidelity in [Fidelity::Calibrated, Fidelity::Live] {
                let Resolver::Walk(pool) = resolver(fidelity, generated, defender) else {
                    panic!("a generated {} run walks its pool", fidelity.label());
                };
                assert!(!pool.is_empty());
            }
        }
        // A shared table handed to a generated run is dropped.
        let table = StepOutcomeTable::calibrate(&[cfg.posture], 2, 1, &SimRng::seed(1));
        let cfg = FleetConfig {
            campaign: generated,
            ..cfg
        };
        let engine = FleetEngine::with_parts(cfg, graph, Some(table));
        assert!(matches!(engine.resolver, Resolver::Walk(_)));
        assert!(engine.run().totals().attacks_attempted > 0);
    }

    /// Runs one tick of `state` through the sweep and through the plain
    /// step alone, and checks that both leave the same columns (every
    /// RNG's state included), the same counters, and the same alerts
    /// and recoveries for every vehicle.
    fn assert_sweep_matches_plain(
        env: &StepEnv<'_>,
        inputs: &TickInputs,
        state: &FleetState,
        case: &str,
    ) {
        assert!(env.sweep.is_some(), "{case}: the tick is swept");
        let (mut swept, mut plain) = (state.clone(), state.clone());
        let swept_out =
            run_tick_swept(&mut swept, 1, inputs.tick, env.sweep.as_ref(), |c, i, o| {
                step_hit(c, i, env, inputs, o)
            });
        let plain_out = run_tick_swept(&mut plain, 1, inputs.tick, None, |c, i, o| {
            step_vehicle(c, i, env, inputs, o)
        });
        // Debug covers every column, each RNG's state included.
        assert_eq!(
            format!("{swept:?}"),
            format!("{plain:?}"),
            "{case}: columns"
        );
        let per_vehicle = |outs: &[ShardOutput]| {
            let out = &outs[0];
            let mut alerts = vec![Vec::new(); state.len()];
            for &(i, layer) in &out.alerts {
                alerts[i].push(layer);
            }
            let mut recovered = out.recovered.clone();
            recovered.sort_unstable();
            (out.counters, alerts, recovered)
        };
        assert_eq!(
            per_vehicle(&swept_out),
            per_vehicle(&plain_out),
            "{case}: outputs"
        );
    }

    #[test]
    fn sweep_matches_a_plain_step() {
        // An undefended engine, so attacks and infections succeed often
        // enough for the full step to reach every branch.
        let base = FleetConfig {
            posture: DefensePosture::none(),
            ..tiny_cfg()
        };
        let engine = FleetEngine::new(base.clone());
        let (epi, late_detect_p, _, _) = derived_rates(&engine.graph, &base.posture);
        let onset = FaultOnset {
            layer: ArchLayer::Network,
            ref_health: 0.4,
            detect_p: FAULT_DETECT_P_SEEN,
        };
        let statuses = [
            VehicleStatus::Healthy,
            VehicleStatus::Degraded,
            VehicleStatus::Compromised,
            VehicleStatus::Isolated,
            VehicleStatus::Lost,
        ];
        // A mixed window: every status and flag, a `len % 8` tail and
        // `Lost` lanes inside the groups of eight.
        let mut mixed = FleetState::new(2_003, &SimRng::seed(4).fork("fleet/vehicles"));
        let mut pick = SimRng::seed(5);
        for i in 0..mixed.len() {
            mixed.status[i] = statuses[(pick.next_u64() % 5) as usize];
            mixed.flagged[i] = pick.chance(0.5);
            mixed.since[i] = 2;
            mixed.strikes[i] = (pick.next_u64() % 4) as u8;
            if mixed.status[i] != VehicleStatus::Healthy {
                mixed.health[i] = 0.5;
            }
        }
        // The posture's late-detection rate, the same plus a bought
        // monitoring boost, and a sweep that always fires. Only a
        // `Compromised` vehicle reads it, and it never draws for an
        // attack, so the two rates sweep together.
        let late_detect_ps = [late_detect_p, late_detect_p + 0.15, 1.0];
        for (attack_rate, late_detect_p) in [0.0, 5e-4, 1.0].into_iter().zip(late_detect_ps) {
            for infection_pressure in [0.0, 1e-9, 0.3] {
                for fault_onsets in [vec![], vec![onset], vec![onset; 3]] {
                    let cfg = FleetConfig {
                        attack_rate,
                        ..base.clone()
                    };
                    let inputs = TickInputs {
                        tick: 5,
                        infection_pressure,
                        fault_onsets,
                        active_faults: Default::default(),
                    };
                    let env = StepEnv {
                        cfg: &cfg,
                        resolver: &engine.resolver,
                        graph: &engine.graph,
                        posture: cfg.posture,
                        epi,
                        late_detect_p,
                        sweep: sweep_table(&cfg, &inputs, late_detect_p),
                    };
                    let case = format!(
                        "attack {attack_rate}, pressure {infection_pressure}, \
                         onsets {}, late detect {late_detect_p}",
                        inputs.fault_onsets.len()
                    );
                    for status in statuses {
                        let mut state =
                            FleetState::new(2_000, &SimRng::seed(3).fork("fleet/vehicles"));
                        for i in 0..state.len() {
                            state.status[i] = status;
                            state.flagged[i] = i % 2 == 0;
                            state.since[i] = 2;
                            if status != VehicleStatus::Healthy {
                                state.health[i] = 0.5;
                            }
                        }
                        assert_sweep_matches_plain(
                            &env,
                            &inputs,
                            &state,
                            &format!("{status:?}, {case}"),
                        );
                    }
                    assert_sweep_matches_plain(&env, &inputs, &mixed, &format!("mixed, {case}"));
                }
            }
        }
    }

    #[test]
    fn the_sweep_is_off_under_chaos_and_past_its_longest_list() {
        let cfg = FleetConfig {
            attack_rate: 5e-4,
            ..tiny_cfg()
        };
        let onset = FaultOnset {
            layer: ArchLayer::Data,
            ref_health: 0.9,
            detect_p: FAULT_DETECT_P_MISSED,
        };
        let inputs = |onsets: usize| TickInputs {
            tick: 1,
            infection_pressure: 0.01,
            fault_onsets: vec![onset; onsets],
            active_faults: Default::default(),
        };
        // A flagged degraded vehicle draws once per onset, then attack,
        // infection and repair.
        let longest = SweepTable::MAX_DRAWS - 3;
        assert!(sweep_table(&cfg, &inputs(longest), 0.1).is_some());
        assert!(sweep_table(&cfg, &inputs(longest + 1), 0.1).is_none());
        let chaos = FleetConfig {
            chaos_lost_rate: 0.01,
            ..cfg
        };
        assert!(sweep_table(&chaos, &inputs(0), 0.1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn zero_vehicles_is_rejected() {
        let mut cfg = tiny_cfg();
        cfg.vehicles = 0;
        let _ = FleetEngine::with_graph(cfg, AttackGraph::new());
    }
}
