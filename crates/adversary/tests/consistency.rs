//! Graph/registry consistency and calibration-tolerance tests.
//!
//! The attack graph promises to be *derived from code*: every scenario
//! step and every kill-chain stage must appear as exactly one edge on
//! the right layer, and the calibrated probabilities must agree with a
//! fresh Monte-Carlo estimate of the same model within sampling
//! tolerance. All streams are fixed-seed, so these are deterministic
//! checks, not flaky statistical ones.

use autosec_adversary::calibrate::{
    calibrated_graph, cascade_point, killchain_points, scenario_point, CalibrationConfig,
    DECOUPLING_SCALE,
};
use autosec_adversary::graph::{AttackGraph, Capability, EdgeSource};
use autosec_core::campaign::DefensePosture;
use autosec_core::scenario::scenario_registry;
use autosec_data::killchain::KillChainStage;
use autosec_data::service::DefenseConfig;
use autosec_sim::{ArchLayer, SimRng};
use autosec_sos::cascade::with_coupling_scale;
use autosec_sos::reference::maas_reference;

/// Trials per estimate in the tolerance test. Small enough to keep the
/// suite fast on one core; the tolerance below matches it.
const TRIALS: usize = 60;

/// Max |calibrated − fresh| for two independent estimates of the same
/// probability at `TRIALS` samples each (~2.5σ of the difference of two
/// binomial means at p = 0.5; the seeds are fixed, so this either
/// passes forever or fails deterministically).
const TOLERANCE: f64 = 0.22;

const SEEDS: [u64; 3] = [11, 42, 1234];

fn cfg() -> CalibrationConfig {
    CalibrationConfig::new(TRIALS, 1)
}

/// A cheap graph for the structural (non-probabilistic) checks.
fn structural_graph() -> AttackGraph {
    calibrated_graph(&CalibrationConfig::new(20, 1), &SimRng::seed(1))
}

#[test]
fn every_scenario_step_is_exactly_one_edge_on_its_layer() {
    let g = structural_graph();
    for step in scenario_registry() {
        let matching: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.source == EdgeSource::Scenario(step.name()))
            .collect();
        assert_eq!(matching.len(), 1, "{} edge count", step.name());
        assert_eq!(matching[0].layer, step.layer(), "{} layer", step.name());
        assert_eq!(matching[0].name, step.name());
    }
}

#[test]
fn every_killchain_stage_is_exactly_one_data_edge_in_chain_order() {
    let g = structural_graph();
    let mut prev_to = None;
    for stage in KillChainStage::ALL {
        let matching: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.source == EdgeSource::KillChain(stage))
            .collect();
        assert_eq!(matching.len(), 1, "{stage} edge count");
        let e = matching[0];
        assert_eq!(
            e.layer,
            ArchLayer::Data,
            "{stage} must sit on the data layer"
        );
        if let Some(p) = prev_to {
            assert_eq!(e.from, p, "{stage} must chain from the previous stage");
        }
        prev_to = Some(e.to);
    }
}

#[test]
fn cascade_edges_sit_on_the_sos_layer() {
    let g = structural_graph();
    let cascades: Vec<_> = g
        .edges()
        .iter()
        .filter(|e| matches!(e.source, EdgeSource::Cascade(_)))
        .collect();
    assert_eq!(cascades.len(), 5);
    for e in cascades {
        assert_eq!(e.layer, ArchLayer::SystemOfSystems, "{}", e.name);
        assert_eq!(e.to, AttackGraph::GOAL, "{}", e.name);
    }
}

#[test]
fn graph_connects_start_to_goal() {
    let g = structural_graph();
    // Reachability over edges with any nonzero undefended success.
    let mut reached = [false; 15];
    reached[Capability::External.index()] = true;
    for _ in 0..g.len() {
        for e in g.edges() {
            if reached[e.from.index()] && e.undefended.success > 0.0 {
                reached[e.to.index()] = true;
            }
        }
    }
    assert!(
        reached[AttackGraph::GOAL.index()],
        "an undefended vehicle must be compromisable end-to-end"
    );
}

/// One pass per seed: calibrate a graph, then re-estimate every edge's
/// probabilities from an independent stream and compare. Covers
/// scenario, kill-chain, and cascade edges in a single calibration so
/// the expensive subsystem models run as few times as possible.
#[test]
fn calibrated_probabilities_match_fresh_estimates_within_tolerance() {
    let none = DefensePosture::none();
    let full = DefensePosture::full();
    let coupled = maas_reference();
    let decoupled = with_coupling_scale(&coupled, DECOUPLING_SCALE);
    for seed in SEEDS {
        let g = calibrated_graph(&cfg(), &SimRng::seed(seed));
        // An independent stream, never used by calibrated_graph.
        let fresh = SimRng::seed(seed).fork("fresh-estimate");

        let check = |name: &str, what: &str, got: f64, want: f64| {
            assert!(
                (got - want).abs() <= TOLERANCE,
                "seed {seed} {name} {what}: calibrated {got} vs fresh {want}"
            );
        };

        for step in scenario_registry() {
            let e = g
                .edge_for(&EdgeSource::Scenario(step.name()))
                .expect("scenario edge");
            let est_undef = scenario_point(
                step.as_ref(),
                &none,
                &fresh.fork(&format!("{}/undef", step.name())),
                &cfg(),
            );
            let est_def = scenario_point(
                step.as_ref(),
                &full,
                &fresh.fork(&format!("{}/def", step.name())),
                &cfg(),
            );
            check(
                e.name,
                "undef success",
                e.undefended.success,
                est_undef.success,
            );
            check(
                e.name,
                "undef detect",
                e.undefended.detect,
                est_undef.detect,
            );
            check(e.name, "def success", e.defended.success, est_def.success);
            check(e.name, "def detect", e.defended.detect, est_def.detect);
        }

        let kc_undef = killchain_points(DefenseConfig::none(), &fresh.fork("kc/undef"), &cfg());
        let kc_def = killchain_points(DefenseConfig::hardened(), &fresh.fork("kc/def"), &cfg());
        for (i, stage) in KillChainStage::ALL.into_iter().enumerate() {
            let e = g
                .edge_for(&EdgeSource::KillChain(stage))
                .expect("stage edge");
            check(
                e.name,
                "undef success",
                e.undefended.success,
                kc_undef[i].success,
            );
            check(
                e.name,
                "undef detect",
                e.undefended.detect,
                kc_undef[i].detect,
            );
            check(e.name, "def success", e.defended.success, kc_def[i].success);
            check(e.name, "def detect", e.defended.detect, kc_def[i].detect);
        }

        for e in g.edges() {
            let EdgeSource::Cascade(entry) = e.source else {
                continue;
            };
            let est_undef = cascade_point(
                &coupled,
                entry,
                &fresh.fork(&format!("{}/u", e.name)),
                &cfg(),
            );
            let est_def = cascade_point(
                &decoupled,
                entry,
                &fresh.fork(&format!("{}/d", e.name)),
                &cfg(),
            );
            check(
                e.name,
                "undef success",
                e.undefended.success,
                est_undef.success,
            );
            check(e.name, "def success", e.defended.success, est_def.success);
        }
    }
}
