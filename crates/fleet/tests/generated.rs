//! Invariance contracts of the generated-campaign mode:
//!
//! 1. **Shard invariance** — a `generated:N` run is bit-identical at
//!    any `--shards` count: campaign selection and edge walks draw
//!    only from the per-vehicle substream.
//! 2. **Fidelity invariance** — the campaign walker resolves edges
//!    straight off the calibrated graph, bypassing the fidelity
//!    engine entirely, so vehicle-state snapshots are bit-identical
//!    across live and calibrated runs (only the config's fidelity
//!    label differs, hence per-snapshot comparison).
//! 3. **Defender compatibility** — the walker reads edge
//!    probabilities through the posture in force, so a closed-loop
//!    defender composes with generated campaigns and stays
//!    shard-invariant.

use autosec_adversary::{calibrated_graph, AttackGraph, CalibrationConfig};
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine};
use autosec_sim::SimRng;

fn base_cfg() -> FleetConfig {
    FleetConfig {
        vehicles: 400,
        ticks: 30,
        seed: 42,
        snapshot_every: 10,
        attack_rate: 8e-3,
        calibration_trials: 4,
        campaign: CampaignMode::Generated { count: 8 },
        ..FleetConfig::default()
    }
}

/// One shared graph so the tests don't recalibrate 20 edges per run.
fn shared_graph(cfg: &FleetConfig) -> AttackGraph {
    let calib = CalibrationConfig::new(cfg.calibration_trials, 2);
    calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"))
}

#[test]
fn generated_campaigns_are_shard_invariant() {
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |shards: usize| {
        let mut c = cfg.clone();
        c.shards = shards;
        FleetEngine::with_graph(c, graph.clone()).run()
    };
    let a = run(1);
    let b = run(2);
    let c = run(4);
    assert_eq!(
        a.canonical_json().to_string(),
        b.canonical_json().to_string(),
        "generated mode diverged between 1 and 2 shards"
    );
    assert_eq!(
        a.canonical_json().to_string(),
        c.canonical_json().to_string(),
        "generated mode diverged between 1 and 4 shards"
    );
    assert!(a.totals().attacks_attempted > 0, "campaign walkers fired");
}

#[test]
fn generated_campaigns_ignore_the_fidelity_knob() {
    // The walker replays graph edges directly; the two-tier scenario
    // engine never sees a generated attack. Snapshots must therefore
    // match bit for bit across both fidelity modes. (The config
    // echoes its fidelity label, so whole-artifact comparison would
    // trip on that one metadata field — compare state snapshots.)
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |fidelity: Fidelity| {
        let mut c = cfg.clone();
        c.fidelity = fidelity;
        FleetEngine::with_graph(c, graph.clone()).run()
    };
    let calibrated = run(Fidelity::Calibrated);
    let live = run(Fidelity::Live);
    assert_eq!(live.snapshots.len(), calibrated.snapshots.len());
    for (a, b) in live.snapshots.iter().zip(&calibrated.snapshots) {
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "snapshot at tick {} diverged across fidelity modes",
            a.tick
        );
    }
    assert_eq!(live.availability, calibrated.availability);
}

#[test]
fn generated_campaigns_compose_with_the_closed_loop_defender() {
    let mut cfg = base_cfg();
    cfg.defender = DefenderMode::ClosedLoop;
    cfg.defender_budget = 3.0;
    let graph = shared_graph(&cfg);
    let run = |shards: usize| {
        let mut c = cfg.clone();
        c.shards = shards;
        FleetEngine::with_graph(c, graph.clone()).run()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(
        a.canonical_json().to_string(),
        b.canonical_json().to_string(),
        "generated + closed-loop defender diverged across shard counts"
    );
    assert!(a.totals().attacks_attempted > 0);
}

#[test]
fn pool_size_changes_the_trajectory() {
    // Different pools sample different campaigns: the knob is live.
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |count: usize| {
        let mut c = cfg.clone();
        c.campaign = CampaignMode::Generated { count };
        FleetEngine::with_graph(c, graph.clone()).run()
    };
    let small = run(2);
    let large = run(16);
    assert_ne!(
        small.canonical_json().to_string(),
        large.canonical_json().to_string()
    );
}

#[test]
#[should_panic(expected = "empty pool")]
fn empty_graph_cannot_seed_a_pool() {
    let mut cfg = base_cfg();
    cfg.campaign = CampaignMode::Generated { count: 4 };
    let _ = FleetEngine::with_graph(cfg, AttackGraph::new());
}
