//! Graph calibration: measuring edge probabilities from the executable
//! models.
//!
//! Nothing in [`calibrated_graph`] types a probability by hand. Every
//! edge's `(undefended, defended)` pair is a Monte-Carlo estimate from
//! running the model behind it:
//!
//! * **Scenario edges** — each
//!   [`ScenarioStep`] from
//!   [`scenario_registry`] is executed `trials` times under
//!   [`DefensePosture::none`] and [`DefensePosture::full`]; the
//!   success/detection rates become the edge's two probability points.
//! * **Kill-chain edges** — the Fig. 8
//!   [`Attacker`] runs end-to-end
//!   against a fresh [`TelemetryBackend`] per trial (undefended vs.
//!   hardened); each stage's edge gets its success rate *conditional on
//!   the previous stage*, and its detection rate.
//! * **Cascade edges** — [`cascade_trial`] propagates a compromise from
//!   the edge's entry node through the Fig. 9 reference graph; the
//!   safety-reach rate is the success probability, with the defended
//!   side measured on a decoupled graph
//!   ([`with_coupling_scale`] at [`DECOUPLING_SCALE`]).
//!
//! All loops run through [`par_trials`], so a calibrated graph is
//! bit-identical for every job count at a fixed seed.

use autosec_core::campaign::DefensePosture;
use autosec_core::engine::measure_step;
use autosec_core::scenario::{scenario_registry, ScenarioStep};
use autosec_data::killchain::{Attacker, KillChainReport, KillChainStage};
use autosec_data::service::{DefenseConfig, TelemetryBackend};
use autosec_runner::par_trials;
use autosec_sim::{ArchLayer, SimRng, Stride};
use autosec_sos::cascade::{cascade_trial, with_coupling_scale};
use autosec_sos::model::SosGraph;
use autosec_sos::reference::maas_reference;

use crate::graph::{AttackEdge, AttackGraph, Capability, EdgeSource, ProbPoint};

/// Coupling multiplier for the defended (decoupled) cascade model —
/// the §VI-B "decoupling" defense as already used by E10.
pub const DECOUPLING_SCALE: f64 = 0.5;

/// Backend size for kill-chain calibration runs (matches the campaign
/// step's backend).
const BACKEND_RECORDS: usize = 500;

/// How a calibration run is sized and parallelized.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Monte-Carlo trials per edge per posture side.
    pub trials: usize,
    /// Worker threads (forwarded to [`par_trials`]; never changes the
    /// estimates).
    pub jobs: usize,
}

impl CalibrationConfig {
    /// A config with `trials` per estimate.
    pub fn new(trials: usize, jobs: usize) -> Self {
        Self {
            trials: trials.max(1),
            jobs: jobs.max(1),
        }
    }
}

/// Where each scenario step slots into the capability graph.
///
/// The step name is the lookup key; the pair is `(from, to)`. This is
/// topology (which capability unlocks which), not probability — the
/// probabilities are measured.
fn scenario_topology(name: &str) -> (Capability, Capability) {
    match name {
        "pkes-relay" => (Capability::External, Capability::VehicleAccess),
        "distance-enlargement" => (Capability::External, Capability::SensorControl),
        "can-masquerade" => (Capability::VehicleAccess, Capability::BusAccess),
        "can-flood-dos" => (Capability::BusAccess, Capability::BusDisruption),
        "pdu-forgery" => (Capability::BusAccess, Capability::ActuationControl),
        "rogue-software-placement" => (Capability::VehicleAccess, Capability::PlatformFoothold),
        "telemetry-kill-chain" => (Capability::External, Capability::FleetBackend),
        "breach-cascade" => (Capability::PlatformFoothold, Capability::SafetyImpact),
        "v2x-ghost-object" => (Capability::External, Capability::FusedViewWrite),
        other => panic!("scenario step {other:?} has no graph placement"),
    }
}

/// The kill-chain stages as graph hops, in chain order. The chain is
/// reconnaissance-to-exfiltration against the telemetry backend, so
/// every stage is information disclosure except the credential theft,
/// which elevates the attacker to the backend's own authority.
fn killchain_topology(stage: KillChainStage) -> (&'static str, Capability, Capability, Stride) {
    match stage {
        KillChainStage::TrafficAnalysis => (
            "kc-traffic-analysis",
            Capability::External,
            Capability::ApiRecon,
            Stride::InformationDisclosure,
        ),
        KillChainStage::DirectoryEnumeration => (
            "kc-directory-enumeration",
            Capability::ApiRecon,
            Capability::RouteMap,
            Stride::InformationDisclosure,
        ),
        KillChainStage::SupplyChainIdentification => (
            "kc-supply-chain-id",
            Capability::RouteMap,
            Capability::FrameworkKnown,
            Stride::InformationDisclosure,
        ),
        KillChainStage::HeapDump => (
            "kc-heap-dump",
            Capability::FrameworkKnown,
            Capability::HeapDump,
            Stride::InformationDisclosure,
        ),
        KillChainStage::KeyExtraction => (
            "kc-key-extraction",
            Capability::HeapDump,
            Capability::KeyMaterial,
            Stride::ElevationOfPrivilege,
        ),
        KillChainStage::DataExtraction => (
            "kc-data-extraction",
            Capability::KeyMaterial,
            Capability::FleetBackend,
            Stride::InformationDisclosure,
        ),
    }
}

/// The cascade edges: which capability pivots into the SoS graph at
/// which entry node, and which STRIDE class the pivot realises.
const CASCADE_EDGES: [(&str, Capability, &str, Stride); 5] = [
    (
        "cascade-backend",
        Capability::FleetBackend,
        "cloud-backend",
        Stride::DenialOfService,
    ),
    (
        "cascade-platform",
        Capability::PlatformFoothold,
        "vehicle-os",
        Stride::ElevationOfPrivilege,
    ),
    (
        "cascade-fused-view",
        Capability::FusedViewWrite,
        "self-driving-stack",
        Stride::Tampering,
    ),
    (
        "cascade-sensor",
        Capability::SensorControl,
        "self-driving-stack",
        Stride::Tampering,
    ),
    (
        "cascade-actuation",
        Capability::ActuationControl,
        "act",
        Stride::Tampering,
    ),
];

/// Measures one scenario step's success/detection rates under one
/// posture.
///
/// A thin adapter over the shared calibration primitive
/// [`measure_step`] — the same machinery behind core's
/// [`StepOutcomeTable`](autosec_core::engine::StepOutcomeTable) — so
/// attack-graph edges and fleet outcome tables are estimates from the
/// identical trial scheme.
pub fn scenario_point(
    step: &dyn ScenarioStep,
    posture: &DefensePosture,
    base: &SimRng,
    cfg: &CalibrationConfig,
) -> ProbPoint {
    let stats = measure_step(step, posture, base, cfg.trials, cfg.jobs);
    ProbPoint {
        success: stats.success,
        detect: stats.detect,
    }
}

/// Runs `cfg.trials` full kill chains and distills per-stage
/// conditional success and detection rates, in [`KillChainStage::ALL`]
/// order.
pub fn killchain_points(
    defenses: DefenseConfig,
    base: &SimRng,
    cfg: &CalibrationConfig,
) -> Vec<ProbPoint> {
    let reports: Vec<KillChainReport> =
        par_trials(cfg.jobs, cfg.trials, base, move |_, mut rng| {
            let backend = TelemetryBackend::build(BACKEND_RECORDS, defenses, &mut rng);
            Attacker::new().execute(&backend, &mut rng)
        });
    let mut points = Vec::with_capacity(KillChainStage::ALL.len());
    let mut prev_reached = reports.len();
    for stage in KillChainStage::ALL {
        let reached = reports.iter().filter(|r| r.reached(stage)).count();
        let detected = reports
            .iter()
            .filter(|r| r.detected_at == Some(stage))
            .count();
        points.push(ProbPoint {
            // Conditional on the previous stage: an unreachable stage
            // (the chain always blocks earlier) gets 0.
            success: if prev_reached == 0 {
                0.0
            } else {
                reached as f64 / prev_reached as f64
            },
            detect: detected as f64 / reports.len() as f64,
        });
        prev_reached = reached;
    }
    points
}

/// Measures the safety-reach probability of a cascade from `entry`.
pub fn cascade_point(
    graph: &SosGraph,
    entry: &str,
    base: &SimRng,
    cfg: &CalibrationConfig,
) -> ProbPoint {
    let id = graph
        .find(entry)
        .unwrap_or_else(|| panic!("cascade entry {entry:?} not in the reference graph"));
    let safety: Vec<_> = ["braking", "steering", "act"]
        .iter()
        .filter_map(|s| graph.find(s))
        .collect();
    let hits = par_trials(cfg.jobs, cfg.trials, base, |_, mut rng| {
        let mask = cascade_trial(graph, id, &mut rng);
        safety.iter().any(|s| mask[s.0])
    });
    ProbPoint {
        success: hits.iter().filter(|&&h| h).count() as f64 / cfg.trials as f64,
        // The cascade model has no detection channel: a SoS pivot is
        // silent (§VI-B's monitoring gap).
        detect: 0.0,
    }
}

/// Clamps the defended success to never exceed the undefended one, so
/// turning a defense on is always weakly helpful to the defender. Both
/// values are Monte-Carlo estimates of quantities where this holds by
/// construction, so the clamp only ever absorbs estimation noise.
fn clamp_defended(undefended: ProbPoint, defended: ProbPoint) -> ProbPoint {
    ProbPoint {
        success: defended.success.min(undefended.success),
        detect: defended.detect,
    }
}

/// Builds the full calibrated attack graph.
///
/// Edge order — which is also the replay attacker's sweep order — is
/// the nine scenario steps in campaign order, then the five cascade
/// pivots (the campaign's Fig. 9 consequences), then the six staged
/// kill-chain hops.
/// Deterministic in `(base, cfg.trials)`; `cfg.jobs` only changes
/// wall-clock time.
pub fn calibrated_graph(cfg: &CalibrationConfig, base: &SimRng) -> AttackGraph {
    let mut g = AttackGraph::new();

    let none = DefensePosture::none();
    let full = DefensePosture::full();
    for step in scenario_registry() {
        let (from, to) = scenario_topology(step.name());
        let undefended = scenario_point(
            step.as_ref(),
            &none,
            &base.fork(&format!("calib/{}/undef", step.name())),
            cfg,
        );
        let defended = scenario_point(
            step.as_ref(),
            &full,
            &base.fork(&format!("calib/{}/def", step.name())),
            cfg,
        );
        g.add_edge(AttackEdge {
            name: step.name(),
            from,
            to,
            layer: step.layer(),
            stride: step.stride(),
            source: EdgeSource::Scenario(step.name()),
            undefended,
            defended: clamp_defended(undefended, defended),
        });
    }

    let coupled = maas_reference();
    let decoupled = with_coupling_scale(&coupled, DECOUPLING_SCALE);
    for (name, from, entry, stride) in CASCADE_EDGES {
        let undefended = cascade_point(
            &coupled,
            entry,
            &base.fork(&format!("calib/{name}/undef")),
            cfg,
        );
        let defended = cascade_point(
            &decoupled,
            entry,
            &base.fork(&format!("calib/{name}/def")),
            cfg,
        );
        g.add_edge(AttackEdge {
            name,
            from,
            to: Capability::SafetyImpact,
            layer: ArchLayer::SystemOfSystems,
            stride,
            source: EdgeSource::Cascade(entry),
            undefended,
            defended: clamp_defended(undefended, defended),
        });
    }

    let undef_stages = killchain_points(
        DefenseConfig::none(),
        &base.fork("calib/killchain/undef"),
        cfg,
    );
    let def_stages = killchain_points(
        DefenseConfig::hardened(),
        &base.fork("calib/killchain/def"),
        cfg,
    );
    for (i, stage) in KillChainStage::ALL.into_iter().enumerate() {
        let (name, from, to, stride) = killchain_topology(stage);
        g.add_edge(AttackEdge {
            name,
            from,
            to,
            layer: ArchLayer::Data,
            stride,
            source: EdgeSource::KillChain(stage),
            undefended: undef_stages[i],
            defended: clamp_defended(undef_stages[i], def_stages[i]),
        });
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CalibrationConfig {
        CalibrationConfig::new(30, 1)
    }

    #[test]
    fn graph_has_all_twenty_edges() {
        let g = calibrated_graph(&small(), &SimRng::seed(1));
        assert_eq!(g.len(), 9 + 6 + 5);
    }

    #[test]
    fn calibration_is_deterministic_and_jobs_invariant() {
        let cfg1 = CalibrationConfig::new(24, 1);
        let cfg4 = CalibrationConfig::new(24, 4);
        let a = calibrated_graph(&cfg1, &SimRng::seed(9));
        let b = calibrated_graph(&cfg4, &SimRng::seed(9));
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea.undefended, eb.undefended, "{}", ea.name);
            assert_eq!(ea.defended, eb.defended, "{}", ea.name);
        }
    }

    #[test]
    fn defended_success_never_exceeds_undefended() {
        let g = calibrated_graph(&small(), &SimRng::seed(2));
        for e in g.edges() {
            assert!(
                e.defended.success <= e.undefended.success + 1e-12,
                "{}: defended {} > undefended {}",
                e.name,
                e.defended.success,
                e.undefended.success
            );
        }
    }

    #[test]
    fn killchain_hardened_blocks_the_heap_dump() {
        let pts = killchain_points(DefenseConfig::hardened(), &SimRng::seed(3), &small());
        // Stages: traffic, dir-enum, supply-chain, heap-dump, ...
        assert_eq!(pts[0].success, 1.0);
        assert_eq!(pts[3].success, 0.0, "debug endpoints disabled");
        assert_eq!(pts[1].detect, 1.0, "rate limiting flags the scan");
    }

    #[test]
    fn actuation_cascade_is_certain() {
        // Entering the cascade at a safety function is already the goal,
        // so this edge calibrates to 1.0 by construction.
        let g = calibrated_graph(&small(), &SimRng::seed(4));
        let e = g
            .edge_for(&EdgeSource::Cascade("act"))
            .expect("actuation edge");
        assert_eq!(e.undefended.success, 1.0);
        assert_eq!(e.defended.success, 1.0);
    }
}
