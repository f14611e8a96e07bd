//! Golden pins: the SHA-256 of each run's canonical artifact, fixed
//! at shards 1, 2 and 3. The invariance tests only compare shard
//! counts with each other; these pins also catch a change that moves
//! every shard count the same way. Each config reaches response paths
//! a pure speed-up must leave alone: the limp-home rung of the
//! playbook ladder, alerts raised in the tick a vehicle recovers,
//! chaos quarantine, and the per-layer alert counts the closed-loop
//! defender reads.

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_core::campaign::DefensePosture;
use autosec_crypto::{util::to_hex, Sha256};
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine, FleetReport};
use autosec_sim::SimRng;

/// An undefended fleet under attack, faults on.
fn pressured(vehicles: usize, ticks: u64) -> FleetConfig {
    FleetConfig {
        vehicles,
        ticks,
        seed: 42,
        snapshot_every: 10,
        posture: DefensePosture::none(),
        attack_rate: 5e-3,
        calibration_trials: 4,
        ..FleetConfig::default()
    }
}

/// A breach-storm-shaped fleet: no posture, 10x attacks, generated
/// campaigns.
fn storm() -> FleetConfig {
    FleetConfig {
        campaign: CampaignMode::Generated { count: 16 },
        ..pressured(20_000, 60)
    }
}

/// Runs `cfg` at shards 1, 2 and 3 on one shared graph, checks each
/// canonical digest against `want`, and returns the last report.
fn assert_pinned(cfg: &FleetConfig, want: &str) -> FleetReport {
    let calib = CalibrationConfig::new(cfg.calibration_trials, 2);
    let graph = calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"));
    let mut last = None;
    for shards in 1..=3 {
        let mut cfg = cfg.clone();
        cfg.shards = shards;
        let report = FleetEngine::with_graph(cfg, graph.clone()).run();
        let json = report.canonical_json().to_string();
        let digest = to_hex(&Sha256::digest(json.as_bytes()));
        assert_eq!(digest, want, "canonical digest at {shards} shard(s)");
        last = Some(report);
    }
    last.expect("ran three shard counts")
}

#[test]
fn breach_storm_fleet_is_pinned() {
    let want = "0fa54177fd4bcde68d5daf841d0cb95b3b907af6a0096c2531ee7c0b5c4ab2ae";
    let t = *assert_pinned(&storm(), want).totals();
    assert!(t.responses_limp_home > 0, "the ladder reached limp-home");
    assert!(t.recoveries > 0 && t.alerts > 0);
}

#[test]
fn chaos_fleet_is_pinned() {
    let cfg = FleetConfig {
        chaos_lost_rate: 1e-3,
        ..storm()
    };
    let want = "ca8bb3895e44acd44cf4cf09ab45b87fd4decbc72d57a12dcb995c6a9d1b83a9";
    assert!(assert_pinned(&cfg, want).totals().lost > 0, "chaos struck");
}

#[test]
fn closed_loop_defender_fleet_is_pinned() {
    let cfg = FleetConfig {
        attack_rate: 8e-3,
        infection_beta: 0.6,
        defender: DefenderMode::ClosedLoop,
        defender_budget: 6.0,
        ..pressured(5_000, 40)
    };
    let want = "9a61df31e03c1777e2865b5e6aa054ae623754e4737012d338b59fdbb254b489";
    let defender = assert_pinned(&cfg, want).defender.expect("active");
    assert!(defender.to_json()["actions"].as_u64() > Some(0));
}

#[test]
fn fixed_campaign_calibrated_fleet_is_pinned() {
    let cfg = FleetConfig {
        posture: DefensePosture::full(),
        fidelity: Fidelity::Calibrated,
        attack_rate: 2e-3,
        ..pressured(5_000, 40)
    };
    let want = "d7dfceb2b3876c9c91f46116e9be15a7a8426d736407ce7ef7e70c707bbf5332";
    let t = *assert_pinned(&cfg, want).totals();
    assert!(t.attacks_succeeded > 0 && t.alerts > 0, "attacks struck");
}

/// A fleet-service-shaped fleet: full posture, calibrated fixed
/// campaign, rare attacks, faults on. Almost every vehicle-tick is a
/// `Healthy` vehicle whose attack and infection draws both miss.
fn service() -> FleetConfig {
    FleetConfig {
        posture: DefensePosture::full(),
        fidelity: Fidelity::Calibrated,
        campaign: CampaignMode::Fixed,
        attack_rate: 5e-4,
        ..pressured(20_000, 100)
    }
}

#[test]
fn service_fleet_is_pinned() {
    let want = "80f6064151d78b43781e3a9ecaa37448bffbc9e7e5a8b88ea4f57c06df2e848d";
    let t = *assert_pinned(&service(), want).totals();
    assert!(t.attacks_succeeded > 0, "attacks struck");
    assert!(t.fault_injections > 0, "fault onsets struck");
}

#[test]
fn attackless_service_fleet_is_pinned() {
    let cfg = FleetConfig {
        attack_rate: 0.0,
        ..service()
    };
    let want = "3eb0bddda686e3cf86365cd29cee0ad8005b2540461ca7c4f4d2461bf581179f";
    let t = *assert_pinned(&cfg, want).totals();
    assert_eq!(t.attacks_attempted, 0);
    assert!(t.fault_injections > 0, "fault onsets struck");
}
