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
    let want = "9fb66083ef0829e90b691e6ee05f09dda1f56d40d81fc3f2180b1fa559479840";
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
    let want = "5bbe84a742431e1980853e5ce8f7a57758adba1f5e9311f69757a95a5d9019c7";
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
    let want = "59480355635158a67855afa63ca3150d0b42cf8f1a42795e5a6cf33da0993d45";
    let defender = assert_pinned(&cfg, want).defender.expect("active");
    assert!(defender.to_json()["actions"].as_u64() > Some(0));
}

#[test]
fn fixed_campaign_mixed_fidelity_fleet_is_pinned() {
    let cfg = FleetConfig {
        posture: DefensePosture::full(),
        fidelity: Fidelity::Mixed { every: 7 },
        attack_rate: 2e-3,
        ..pressured(5_000, 40)
    };
    let want = "236198c943aebc7945dc883a6b769b686cd1811fd90947a5b6c3800432f6027b";
    assert!(assert_pinned(&cfg, want).drift.probes > 0, "probes ran");
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
    let want = "f7c3016e639ae4de338bafcdd00ac3f6c1ba9d7dcecd1ae2239d4165c14e599c";
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
    let want = "3ca6ba8ada6a0d596c1fcb1514c42d7bc4a775181638c3e141c5e855d2991c04";
    let t = *assert_pinned(&cfg, want).totals();
    assert_eq!(t.attacks_attempted, 0);
    assert!(t.fault_injections > 0, "fault onsets struck");
}
