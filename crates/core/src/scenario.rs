//! The pluggable scenario engine behind the cross-layer campaign.
//!
//! Each attack of the §VIII campaign is a [`ScenarioStep`]: a named,
//! layer-tagged unit that executes the *actual* subsystem models from
//! the workbench crates against a [`PostureCtx`] and reports a
//! [`StepOutcome`]. [`scenario_registry`] collects the steps of the
//! paper's campaign in execution order — one per architectural layer
//! at minimum — `run_campaign` is a thin driver over it, and new steps
//! plug in without touching the driver. Each step also carries a
//! [`Stride`] threat class so the scenario generator
//! (`autosec-scengen`) can report STRIDE×layer coverage.
//!
//! Every step name must appear in [`crate::layers::attack_catalog`] on
//! the step's layer — the registry/catalog consistency test keeps the
//! paper-as-code catalog and the executable campaign in lock-step.

use autosec_collab::attacks::{FabricationStrategy, InternalFabricator};
use autosec_collab::misbehavior::{MisbehaviorConfig, MisbehaviorDetector};
use autosec_collab::perception::perception_round;
use autosec_collab::world::{Point, SensorModel, VehicleId, World};
use autosec_data::killchain::Attacker as KillChainAttacker;
use autosec_data::service::{DefenseConfig, TelemetryBackend};
use autosec_ids::detectors::{FingerprintDetector, SpecificationDetector};
use autosec_ivn::attacks::{FloodAttack, MasqueradeAttack};
use autosec_ivn::bus::CanBus;
use autosec_ivn::can::{CanFrame, CanId};
use autosec_phy::attacks::{OvershadowAttack, RelayAttack};
use autosec_phy::collision::{CollisionAvoidance, CollisionScenario, VehicleAction};
use autosec_phy::pkes::{Pkes, PkesState, ProximityBackend};
use autosec_sdv::component::{Asil, HardwareNode, SoftwareComponent};
use autosec_sdv::platform::{SdvPlatform, WalletCapacities};
use autosec_sdv::SdvError;
use autosec_secproto::secoc::{SecOcAuthenticator, SecOcConfig, SecOcPdu};
use autosec_sim::inject::ChannelFault;
use autosec_sim::{ArchLayer, FaultEffect, SimDuration, SimRng, SimTime, Stride};
use autosec_sos::cascade::{cascade_trial, with_coupling_scale};
use autosec_sos::reference::maas_reference;
use autosec_ssi::wallet::Wallet;

use crate::campaign::DefensePosture;

/// Execution context handed to every step: the vehicle's defense
/// posture, queried by layer, plus any fault effects active on the
/// step's layer while it runs (the campaign can carry a fault plan).
#[derive(Debug, Clone, Copy)]
pub struct PostureCtx<'a> {
    /// The per-layer defense toggles.
    pub posture: &'a DefensePosture,
    /// Fault effects active during this step (empty when the campaign
    /// runs fault-free). Steps must not consume extra randomness when
    /// this is empty — the fault-free no-op guarantee.
    pub faults: &'a [FaultEffect],
}

impl<'a> PostureCtx<'a> {
    /// A fault-free context.
    pub fn new(posture: &'a DefensePosture) -> Self {
        Self {
            posture,
            faults: &[],
        }
    }

    /// Whether `layer` runs its defenses under this posture.
    pub fn defended(&self, layer: ArchLayer) -> bool {
        self.posture.enabled(layer)
    }

    /// Strongest active sensor-dropout probability (0.0 when none).
    pub fn sensor_dropout_p(&self) -> f64 {
        self.faults
            .iter()
            .filter_map(|e| match *e {
                FaultEffect::SensorDropout { p } => Some(p),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Frame-level effects folded into a channel interception hook.
    pub fn channel_fault(&self) -> ChannelFault {
        ChannelFault::from_effects(self.faults)
    }

    /// Total fabricated detections injected per perception round.
    pub fn fabricated_detections(&self) -> usize {
        self.faults
            .iter()
            .map(|e| match *e {
                FaultEffect::FabricateDetections { count } => count,
                _ => 0,
            })
            .sum()
    }
}

/// What one step reports back to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Did the attacker reach their goal?
    pub succeeded: bool,
    /// Was the attack prevented outright?
    pub prevented: bool,
    /// Was the attack detected (alert raised)?
    pub detected: bool,
    /// Alert detail when detected (empty otherwise).
    pub detail: &'static str,
}

/// One pluggable campaign step.
///
/// Implementations run real subsystem models — nothing here is a
/// probability table. Steps draw all randomness from the `SimRng`
/// substream the driver forks for them ([`ScenarioStep::rng_label`]),
/// so adding or reordering steps never perturbs another step's stream.
pub trait ScenarioStep: Send + Sync {
    /// Attack name; must match an entry of
    /// [`crate::layers::attack_catalog`].
    fn name(&self) -> &'static str;

    /// The layer this step attacks.
    fn layer(&self) -> ArchLayer;

    /// The STRIDE threat class this step realises. Together with
    /// [`ScenarioStep::layer`] this places the step in one cell of the
    /// STRIDE×layer coverage matrix the generator reports.
    fn stride(&self) -> Stride;

    /// Label of the RNG substream the driver forks for this step.
    ///
    /// Defaults to [`ScenarioStep::name`]; the original eight steps
    /// override it with their historical labels so that campaign
    /// outcomes are bit-identical to the pre-registry monolith.
    fn rng_label(&self) -> &'static str {
        self.name()
    }

    /// Runs the attack under `ctx` with the step's own substream.
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome;

    /// `(succeeded, detected)` when every execution under `ctx` ends
    /// the same whatever the stream, so calibration need not replay it
    /// ([`crate::engine::measure_step`]). Defaults to `None`; declare
    /// only what the step's code fixes, and `engine`'s tests check
    /// every declaration against a replay.
    fn exact(&self, _ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
        None
    }
}

/// The exact outcome of a step that, fault-free, never reads its
/// stream: one execution, on any stream, is every execution.
fn stream_free(step: &dyn ScenarioStep, ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
    ctx.faults.is_empty().then(|| {
        let out = step.execute(ctx, &mut SimRng::seed(0));
        (out.succeeded, out.detected)
    })
}

/// The steps of the paper's campaign, in execution order: the original
/// eight plus the system-of-systems breach cascade, so every
/// `ArchLayer` variant has at least one executable step.
pub fn scenario_registry() -> Vec<Box<dyn ScenarioStep>> {
    vec![
        Box::new(PkesRelayStep),
        Box::new(DistanceEnlargementStep),
        Box::new(CanMasqueradeStep),
        Box::new(CanFloodStep),
        Box::new(PduForgeryStep),
        Box::new(RogueSoftwareStep),
        Box::new(TelemetryKillChainStep),
        Box::new(BreachCascadeStep),
        Box::new(GhostObjectStep),
    ]
}

/// Step 0 (Physical): PKES relay against legacy RSSI vs UWB ToF.
pub struct PkesRelayStep;

impl ScenarioStep for PkesRelayStep {
    fn name(&self) -> &'static str {
        "pkes-relay"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Physical
    }
    fn stride(&self) -> Stride {
        Stride::Spoofing
    }
    fn rng_label(&self) -> &'static str {
        "pkes"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        // An active sensor-dropout fault can swallow the ranging
        // exchange outright: nobody unlocks, nobody alerts.
        let dropout = ctx.sensor_dropout_p();
        if dropout > 0.0 && rng.chance(dropout) {
            return StepOutcome {
                succeeded: false,
                prevented: false,
                detected: false,
                detail: "",
            };
        }
        let backend = if ctx.defended(ArchLayer::Physical) {
            ProximityBackend::UwbToF
        } else {
            ProximityBackend::LegacyRssi
        };
        let pkes = Pkes::new(backend, 2.0);
        let out = pkes.try_unlock(43.0, Some(&RelayAttack::typical()), rng);
        let succeeded = out.state == PkesState::Unlocked;
        StepOutcome {
            succeeded,
            prevented: !succeeded,
            detected: !succeeded,
            detail: "relay produced impossible time-of-flight",
        }
    }
}

/// Step 1 (Physical): distance enlargement on collision avoidance.
pub struct DistanceEnlargementStep;

impl ScenarioStep for DistanceEnlargementStep {
    fn name(&self) -> &'static str {
        "distance-enlargement"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Physical
    }
    fn stride(&self) -> Stride {
        Stride::Tampering
    }
    fn rng_label(&self) -> &'static str {
        "enlargement"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let ca = CollisionAvoidance::new(CollisionScenario {
            detection_enabled: ctx.defended(ArchLayer::Physical),
            ..CollisionScenario::default()
        });
        let atk = OvershadowAttack {
            delay_m: 20.0,
            power: 3.0,
            residual: 0.25,
        };
        let out = ca.decide(Some(&atk), rng);
        let detected = out.action == VehicleAction::DefensiveBrake;
        StepOutcome {
            succeeded: out.unsafe_decision,
            prevented: detected,
            detected,
            detail: "pre-arrival energy above noise floor",
        }
    }
}

/// Step 2 (Network): CAN masquerade vs analog fingerprinting.
pub struct CanMasqueradeStep;

impl ScenarioStep for CanMasqueradeStep {
    fn name(&self) -> &'static str {
        "can-masquerade"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Network
    }
    fn stride(&self) -> Stride {
        Stride::Spoofing
    }
    fn rng_label(&self) -> &'static str {
        "masquerade"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, _rng: &mut SimRng) -> StepOutcome {
        // Clean training traffic vs the attacked bus.
        let build_traffic = |attack: bool| {
            let mut bus = CanBus::new(500_000);
            let legit = bus.add_node(2.0);
            let attacker = bus.add_node(7.5);
            let mut t = SimTime::ZERO;
            while t <= SimTime::from_ms(300) {
                bus.enqueue(
                    legit,
                    t,
                    CanFrame::new(CanId::standard(0x0A0).expect("valid"), &[1; 8])
                        .expect("valid frame"),
                )
                .expect("node exists");
                t += SimDuration::from_ms(10);
            }
            if attack {
                MasqueradeAttack {
                    attacker,
                    spoofed_id: 0x0A0,
                    period: SimDuration::from_ms(9),
                    payload: [0xFF; 8],
                }
                .inject(&mut bus, SimTime::from_ms(2), SimTime::from_ms(300))
                .expect("attacker can enqueue");
            }
            bus.run(SimTime::from_secs(2))
        };
        let clean = build_traffic(false);
        let attacked = build_traffic(true);
        let forged_delivered = attacked.len() > clean.len();
        let detected = if ctx.defended(ArchLayer::Network) {
            let det = FingerprintDetector::train(&clean);
            !det.analyze(&attacked).is_empty()
        } else {
            false
        };
        StepOutcome {
            succeeded: forged_delivered && !detected,
            prevented: false,
            detected,
            detail: "spoofed id with foreign analog fingerprint",
        }
    }
    /// The step never reads its stream: both bus runs replay fixed
    /// schedules, and the bus seeds its own error and fingerprint draws.
    fn exact(&self, ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
        stream_free(self, ctx)
    }
}

/// Step 3 (Network): flood DoS vs specification IDS.
pub struct CanFloodStep;

impl ScenarioStep for CanFloodStep {
    fn name(&self) -> &'static str {
        "can-flood-dos"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Network
    }
    fn stride(&self) -> Stride {
        Stride::DenialOfService
    }
    fn rng_label(&self) -> &'static str {
        "flood"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let cf = ctx.channel_fault();
        let mut build = |attack: bool| {
            let mut bus = CanBus::new(500_000);
            let legit = bus.add_node(2.0);
            let attacker = bus.add_node(5.0);
            // Frame faults intercept the victim's traffic during the
            // attacked run only; the clean run is the pre-fault
            // training baseline.
            let action = if attack && !cf.is_noop() {
                cf.decide(rng)
            } else {
                autosec_sim::FrameAction::Pass
            };
            let frame = CanFrame::new(CanId::standard(0x100).expect("valid"), &[1; 8])
                .expect("valid frame");
            match action {
                autosec_sim::FrameAction::Drop => {}
                autosec_sim::FrameAction::Delay(d) => {
                    bus.enqueue(legit, SimTime::ZERO + d, frame)
                        .expect("node exists");
                }
                autosec_sim::FrameAction::Corrupt => {
                    bus.enqueue(
                        legit,
                        SimTime::ZERO,
                        CanFrame::new(CanId::standard(0x1C0).expect("valid"), &[0xEE; 8])
                            .expect("valid frame"),
                    )
                    .expect("node exists");
                }
                autosec_sim::FrameAction::Duplicate => {
                    bus.enqueue(legit, SimTime::ZERO, frame.clone())
                        .expect("node exists");
                    bus.enqueue(legit, SimTime::ZERO, frame)
                        .expect("node exists");
                }
                autosec_sim::FrameAction::Pass => {
                    bus.enqueue(legit, SimTime::ZERO, frame)
                        .expect("node exists");
                }
            }
            if attack {
                FloodAttack {
                    attacker,
                    burst: 200,
                }
                .inject(&mut bus, SimTime::ZERO)
                .expect("attacker can enqueue");
            }
            bus.run(SimTime::from_secs(2))
        };
        let clean = build(false);
        let attacked = build(true);
        let victim_latency = attacked
            .iter()
            .find(|e| e.frame.id().raw() == 0x100)
            .map(|e| e.latency().as_ms_f64())
            .unwrap_or(f64::INFINITY);
        let succeeded = victim_latency > 10.0;
        let detected = if ctx.defended(ArchLayer::Network) {
            let det = SpecificationDetector::train(&clean);
            !det.analyze(&attacked).is_empty()
        } else {
            false
        };
        StepOutcome {
            succeeded,
            prevented: false,
            detected,
            detail: "unknown high-priority id flooding the bus",
        }
    }
    /// Fault-free, the step never reads its stream: its one draw picks
    /// a frame fault's action, and the bus seeds its own draws.
    fn exact(&self, ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
        stream_free(self, ctx)
    }
}

/// Step 4 (Network): SECOC PDU forgery.
pub struct PduForgeryStep;

impl ScenarioStep for PduForgeryStep {
    fn name(&self) -> &'static str {
        "pdu-forgery"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Network
    }
    fn stride(&self) -> Stride {
        Stride::Tampering
    }
    fn rng_label(&self) -> &'static str {
        "secoc-forgery"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        if !ctx.defended(ArchLayer::Network) {
            // Plain CAN: any frame with the right id is accepted.
            return StepOutcome {
                succeeded: true,
                prevented: false,
                detected: false,
                detail: "",
            };
        }
        let cfg = SecOcConfig::default();
        let mut rx = SecOcAuthenticator::new_receiver(cfg, [1u8; 16], 0x0B0);
        // Attacker forges a PDU with a random MAC.
        use rand::RngCore;
        let mut mac = vec![0u8; 3];
        rng.fill_bytes(&mut mac);
        let forged = SecOcPdu {
            data_id: 0x0B0,
            payload: b"brake=off".to_vec(),
            truncated_freshness: 1,
            truncated_mac: mac,
        };
        let accepted = rx.verify(&forged).is_ok();
        StepOutcome {
            succeeded: accepted,
            prevented: !accepted,
            detected: !accepted,
            detail: "SECOC MAC verification failed on forged PDU",
        }
    }
}

/// Step 5 (Platform): rogue software placement vs zero-trust SDV.
pub struct RogueSoftwareStep;

/// Signatures each wallet of one defended rogue-placement trial makes:
/// the OEM signs the node's credential, the rogue vendor the implant's,
/// and the implant and the node one presentation each (the node only if
/// the implant's side passes).
const ROGUE_TRIAL_SIGNATURES: usize = 1;

/// The one-node platform a rogue placement targets, and the wallet of a
/// vendor with no trust path to its OEM anchor.
fn rogue_target(rng: &mut SimRng) -> (SdvPlatform, Wallet) {
    let (mut platform, mut oem) =
        SdvPlatform::with_capacities(rng, WalletCapacities::all(ROGUE_TRIAL_SIGNATURES));
    platform
        .register_node(
            rng,
            HardwareNode {
                id: "hpc-0".into(),
                provides: vec!["can-if".into()],
                compute_capacity: 100,
                max_asil: Asil::D,
            },
            &mut oem,
        )
        .expect("node registration");
    let rogue = Wallet::with_capacity(
        rng,
        "rogue-vendor",
        platform.registry(),
        ROGUE_TRIAL_SIGNATURES,
    );
    (platform, rogue)
}

/// Registers the implant under `vendor`'s credential and tries to place
/// it on the target node.
fn place_implant(
    platform: &mut SdvPlatform,
    vendor: &mut Wallet,
    rng: &mut SimRng,
) -> Result<(), SdvError> {
    platform
        .register_component(
            rng,
            SoftwareComponent {
                id: "implant".into(),
                vendor: "rogue".into(),
                version: (1, 0, 0),
                requires: vec!["can-if".into()],
                compute_cost: 1,
                asil: Asil::Qm,
            },
            vendor,
        )
        .expect("registration itself is open");
    platform.place("implant", "hpc-0")
}

impl ScenarioStep for RogueSoftwareStep {
    fn name(&self) -> &'static str {
        "rogue-software-placement"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::SoftwarePlatform
    }
    fn stride(&self) -> Stride {
        Stride::ElevationOfPrivilege
    }
    fn rng_label(&self) -> &'static str {
        "sdv"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        if !ctx.defended(ArchLayer::SoftwarePlatform) {
            return StepOutcome {
                succeeded: true,
                prevented: false,
                detected: false,
                detail: "",
            };
        }
        let (mut platform, mut rogue) = rogue_target(rng);
        let result = place_implant(&mut platform, &mut rogue, rng);
        let prevented = matches!(result, Err(SdvError::AuthFailed(_)));
        StepOutcome {
            succeeded: !prevented,
            prevented,
            detected: prevented,
            detail: "component credential has no trust path to an anchor",
        }
    }
    /// Zero trust always rejects the implant: its vendor's credential
    /// has no trust path to the OEM anchor, whatever keys the stream
    /// draws. Undefended, placement is open.
    fn exact(&self, ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
        let d = ctx.defended(ArchLayer::SoftwarePlatform);
        ctx.faults.is_empty().then_some((!d, d))
    }
}

/// Step 6 (Data): the CARIAD kill chain against the telemetry backend.
pub struct TelemetryKillChainStep;

impl ScenarioStep for TelemetryKillChainStep {
    fn name(&self) -> &'static str {
        "telemetry-kill-chain"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Data
    }
    fn stride(&self) -> Stride {
        Stride::InformationDisclosure
    }
    fn rng_label(&self) -> &'static str {
        "killchain"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let defenses = if ctx.defended(ArchLayer::Data) {
            DefenseConfig::hardened()
        } else {
            DefenseConfig::none()
        };
        let backend = TelemetryBackend::build(500, defenses, rng);
        let report = KillChainAttacker::new().execute(&backend, rng);
        StepOutcome {
            succeeded: report.records_exfiltrated > 0,
            prevented: report.blocked_at.is_some(),
            detected: report.detected_at.is_some(),
            detail: "enumeration burst / bulk export anomaly",
        }
    }
    /// The attacker never reads its stream (only the backend's records
    /// do), and `DefenseConfig` decides every stage: hardened, rate
    /// limiting alerts on the enumeration and the disabled debug
    /// endpoint stops the heap dump; undefended, the chain runs to the
    /// bulk export unseen.
    fn exact(&self, ctx: &PostureCtx<'_>) -> Option<(bool, bool)> {
        let d = ctx.defended(ArchLayer::Data);
        ctx.faults.is_empty().then_some((!d, d))
    }
}

/// Step 7 (System of systems): a vehicle-OS breach cascading through
/// the MaaS dependency graph toward a safety-critical node.
///
/// Defending the SoS layer swaps the tightly coupled reference graph
/// for its decoupled variant (coupling probabilities halved), the same
/// mitigation the E10 cascade experiment measures. Compromise of the
/// SoS layer is only observable through downstream loss, so this step
/// never raises an alert — the monitoring gap §VI calls out.
pub struct BreachCascadeStep;

impl ScenarioStep for BreachCascadeStep {
    fn name(&self) -> &'static str {
        "breach-cascade"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::SystemOfSystems
    }
    fn stride(&self) -> Stride {
        Stride::DenialOfService
    }
    fn rng_label(&self) -> &'static str {
        "cascade"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let reference = maas_reference();
        let graph = if ctx.defended(ArchLayer::SystemOfSystems) {
            with_coupling_scale(&reference, 0.5)
        } else {
            reference
        };
        let entry = graph.find("vehicle-os").expect("reference graph node");
        let mask = cascade_trial(&graph, entry, rng);
        let safety_hit = ["braking", "steering", "act"]
            .iter()
            .filter_map(|n| graph.find(n))
            .any(|id| mask[id.0]);
        StepOutcome {
            succeeded: safety_hit,
            prevented: false,
            detected: false,
            detail: "",
        }
    }
}

/// Step 8 (Collaboration): internal ghost object vs misbehaviour
/// detection.
pub struct GhostObjectStep;

impl ScenarioStep for GhostObjectStep {
    fn name(&self) -> &'static str {
        "v2x-ghost-object"
    }
    fn layer(&self) -> ArchLayer {
        ArchLayer::Collaboration
    }
    fn stride(&self) -> Stride {
        Stride::Spoofing
    }
    fn rng_label(&self) -> &'static str {
        "collab"
    }
    fn execute(&self, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let world = World::new(
            vec![
                Point { x: 0.0, y: 0.0 },
                Point { x: 30.0, y: 0.0 },
                Point { x: 0.0, y: 30.0 },
                Point { x: 30.0, y: 30.0 },
            ],
            vec![Point { x: 15.0, y: 15.0 }],
        );
        let sensor = SensorModel {
            miss_rate: 0.0,
            noise_m: 0.3,
            range_m: 60.0,
        };
        let key = b"campaign v2x key";
        let attacker = InternalFabricator {
            vehicle: VehicleId(0),
            strategy: FabricationStrategy::GhostObject {
                at: Point { x: 22.0, y: 8.0 },
            },
        };
        let mut msgs = perception_round(&world, &sensor, key, 0, rng);
        let mut honest = msgs[0].detections.clone();
        // A fabricated-detections fault floods the round with extra
        // ghosts from the compromised participant.
        let fabricated = ctx.fabricated_detections();
        for _ in 0..fabricated {
            honest.push(autosec_collab::world::Detection {
                position: Point {
                    x: rng.normal_with(15.0, 8.0),
                    y: rng.normal_with(15.0, 8.0),
                },
                truth: None,
            });
        }
        msgs[0] = attacker.emit(&world, honest, key, 0, rng);
        let detected = if ctx.defended(ArchLayer::Collaboration) {
            let mut det = MisbehaviorDetector::new(MisbehaviorConfig::default());
            let flags = det.process_round(&world, &sensor, key, &msgs);
            flags.iter().any(|f| f.claimant == VehicleId(0))
        } else {
            false
        };
        StepOutcome {
            succeeded: !detected,
            prevented: false,
            detected,
            detail: "claim lacks corroboration from in-range witnesses",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::attack_catalog;

    #[test]
    fn registry_has_the_nine_campaign_steps() {
        let steps = scenario_registry();
        assert!(steps.len() >= 9, "{} steps", steps.len());
        let mut names: Vec<&str> = steps.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), steps.len(), "duplicate step names");
    }

    #[test]
    fn registry_is_exhaustive_over_layers_with_unique_substreams() {
        let steps = scenario_registry();
        for layer in ArchLayer::ALL {
            assert!(
                steps.iter().any(|s| s.layer() == layer),
                "no registered step attacks the {layer} layer"
            );
        }
        let mut labels: Vec<&str> = steps.iter().map(|s| s.rng_label()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(
            labels.len(),
            n,
            "duplicate rng_label would alias substreams"
        );
    }

    #[test]
    fn every_step_is_catalogued_on_its_layer() {
        let catalog = attack_catalog();
        for step in scenario_registry() {
            let entry = catalog
                .iter()
                .find(|a| a.name == step.name())
                .unwrap_or_else(|| panic!("{} not in attack_catalog()", step.name()));
            assert_eq!(
                entry.layer,
                step.layer(),
                "{} catalogued at {} but registered at {}",
                step.name(),
                entry.layer,
                step.layer()
            );
        }
    }

    #[test]
    fn steps_are_deterministic_per_substream() {
        let posture = DefensePosture::full();
        let ctx = PostureCtx::new(&posture);
        let root = SimRng::seed(7);
        for step in scenario_registry() {
            let a = step.execute(&ctx, &mut root.fork(step.rng_label()));
            let b = step.execute(&ctx, &mut root.fork(step.rng_label()));
            assert_eq!(a, b, "{} not deterministic", step.name());
        }
    }

    #[test]
    fn rogue_placement_fails_on_trust_not_on_key_exhaustion() {
        // Every wallet of the trial holds one leaf. The defence must
        // still be the trust check, never a spent key.
        for seed in 0..4 {
            let mut rng = SimRng::seed(seed).fork("sdv");
            let (mut platform, mut rogue) = rogue_target(&mut rng);
            assert_eq!(
                place_implant(&mut platform, &mut rogue, &mut rng),
                Err(SdvError::AuthFailed(
                    "component side: no trust path to an accepted anchor".into()
                ))
            );
        }
    }

    #[test]
    fn rogue_target_places_an_endorsed_component() {
        // The same one-leaf wallets complete the whole ceremony once the
        // vendor is trusted: the node side has its leaf too.
        let mut rng = SimRng::seed(7).fork("sdv");
        let (mut platform, mut vendor) = rogue_target(&mut rng);
        platform
            .registry()
            .add_trust_anchor(vendor.did().clone(), "endorsed vendor");
        assert_eq!(place_implant(&mut platform, &mut vendor, &mut rng), Ok(()));
        assert_eq!(platform.host_of("implant"), Some("hpc-0"));
        assert_eq!(platform.auth_operations, 2);
    }

    #[test]
    fn undefended_ctx_disables_every_layer() {
        let posture = DefensePosture::none();
        let ctx = PostureCtx::new(&posture);
        for layer in ArchLayer::ALL {
            assert!(!ctx.defended(layer));
        }
        assert_eq!(ctx.sensor_dropout_p(), 0.0);
        assert_eq!(ctx.fabricated_detections(), 0);
        assert!(ctx.channel_fault().is_noop());
    }

    #[test]
    fn fault_helpers_fold_active_effects() {
        let posture = DefensePosture::none();
        let faults = [
            FaultEffect::SensorDropout { p: 0.4 },
            FaultEffect::DropFrames { p: 0.2 },
            FaultEffect::FabricateDetections { count: 3 },
        ];
        let ctx = PostureCtx {
            posture: &posture,
            faults: &faults,
        };
        assert_eq!(ctx.sensor_dropout_p(), 0.4);
        assert_eq!(ctx.fabricated_detections(), 3);
        assert_eq!(ctx.channel_fault().drop_p, 0.2);
    }

    #[test]
    fn faulted_steps_equal_unfaulted_when_plan_is_empty() {
        // The fault-free no-op guarantee at step granularity: an empty
        // effect slice must leave every step's outcome bit-identical.
        let posture = DefensePosture::full();
        let plain = PostureCtx::new(&posture);
        let faulted = PostureCtx {
            posture: &posture,
            faults: &[],
        };
        let root = SimRng::seed(17);
        for step in scenario_registry() {
            let a = step.execute(&plain, &mut root.fork(step.rng_label()));
            let b = step.execute(&faulted, &mut root.fork(step.rng_label()));
            assert_eq!(a, b, "{} diverged under empty faults", step.name());
        }
    }

    #[test]
    fn total_sensor_dropout_suppresses_pkes_relay() {
        let posture = DefensePosture::none();
        let faults = [FaultEffect::SensorDropout { p: 1.0 }];
        let ctx = PostureCtx {
            posture: &posture,
            faults: &faults,
        };
        let out = PkesRelayStep.execute(&ctx, &mut SimRng::seed(1).fork("pkes"));
        assert!(!out.succeeded && !out.detected);
    }
}
