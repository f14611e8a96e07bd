//! The fidelity-knob contracts of the two-tier scenario engine:
//!
//! 1. **Shard invariance per mode** — live and calibrated runs are
//!    each bit-identical at any `--shards` count.
//! 2. **One story** — both tiers show attacks landing and the response
//!    pipeline firing.

use autosec_adversary::{calibrated_graph, AttackGraph, CalibrationConfig};
use autosec_fleet::{Fidelity, FleetConfig, FleetEngine};
use autosec_sim::SimRng;

fn base_cfg() -> FleetConfig {
    FleetConfig {
        vehicles: 400,
        ticks: 30,
        seed: 42,
        snapshot_every: 10,
        attack_rate: 8e-3,
        calibration_trials: 4,
        ..FleetConfig::default()
    }
}

/// One shared graph so the tests don't recalibrate 19 edges per run.
fn shared_graph(cfg: &FleetConfig) -> AttackGraph {
    let calib = CalibrationConfig::new(cfg.calibration_trials, 2);
    calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"))
}

#[test]
fn every_fidelity_mode_is_shard_invariant() {
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    for fidelity in [Fidelity::Live, Fidelity::Calibrated] {
        let run = |shards: usize| {
            let mut c = cfg.clone();
            c.fidelity = fidelity;
            c.shards = shards;
            FleetEngine::with_graph(c, graph.clone()).run()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string(),
            "{} diverged across shard counts",
            fidelity.label()
        );
    }
}

#[test]
fn calibrated_and_live_tell_the_same_story() {
    // The table is calibrated *from* the live models, so the two tiers
    // must agree on the qualitative picture: attacks land, some
    // succeed, the response pipeline fires.
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |fidelity: Fidelity| {
        let mut c = cfg.clone();
        c.fidelity = fidelity;
        FleetEngine::with_graph(c, graph.clone()).run()
    };
    let live = run(Fidelity::Live);
    let calibrated = run(Fidelity::Calibrated);
    for report in [&live, &calibrated] {
        let t = report.totals();
        assert!(t.attacks_attempted > 0);
        assert!(t.alerts > 0);
        assert!(report.availability > 0.0 && report.availability <= 1.0);
    }
}
