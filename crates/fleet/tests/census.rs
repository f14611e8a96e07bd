//! The kept census: the engine scans the fleet once, at run start, and
//! from then on adds each shard's integer census change. In a debug
//! build (tier-1's `cargo test`) the engine checks the kept census
//! against a full scan after every tick, so each run here fails on the
//! first status or health write that bypasses `FleetColumns::set`.

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_core::campaign::DefensePosture;
use autosec_fleet::{
    run_tick_sharded, CampaignMode, CensusTally, DefenderMode, FleetConfig, FleetEngine,
    FleetState, VehicleStatus,
};
use autosec_runner::silence_panics;
use autosec_sim::{ArchLayer, SimRng};

/// An undefended fleet under attack, faults on.
fn pressured() -> FleetConfig {
    FleetConfig {
        vehicles: 2_000,
        ticks: 30,
        seed: 42,
        snapshot_every: 10,
        posture: DefensePosture::none(),
        attack_rate: 5e-3,
        calibration_trials: 4,
        ..FleetConfig::default()
    }
}

#[test]
fn kept_census_holds_at_every_shard_count() {
    let _quiet = silence_panics();
    let configs = [
        (
            "chaos",
            FleetConfig {
                chaos_lost_rate: 2e-3,
                ..pressured()
            },
        ),
        (
            "closed-loop budget 4",
            FleetConfig {
                attack_rate: 8e-3,
                infection_beta: 0.6,
                defender: DefenderMode::ClosedLoop,
                defender_budget: 4.0,
                ..pressured()
            },
        ),
        (
            "generated:8",
            FleetConfig {
                campaign: CampaignMode::Generated { count: 8 },
                ..pressured()
            },
        ),
        (
            "no faults",
            FleetConfig {
                faults_enabled: false,
                ..pressured()
            },
        ),
        (
            "attack rate 1.0",
            FleetConfig {
                attack_rate: 1.0,
                ..pressured()
            },
        ),
    ];
    let calib = CalibrationConfig::new(4, 2);
    let graph = calibrated_graph(&calib, &SimRng::seed(42).fork("fleet/calibration"));
    for (name, cfg) in configs {
        let mut first = None;
        for shards in 1..=4 {
            let cfg = FleetConfig {
                shards,
                ..cfg.clone()
            };
            let report = FleetEngine::with_graph(cfg, graph.clone()).run();
            for snap in &report.snapshots {
                assert_eq!(snap.census.total(), 2_000, "{name}, tick {}", snap.tick);
            }
            let json = report.canonical_json().to_string();
            let first = first.get_or_insert(json.clone());
            assert_eq!(*first, json, "{name} at {shards} shard(s)");
        }
    }
}

#[test]
fn a_vehicle_quarantined_mid_step_keeps_the_census() {
    let _quiet = silence_panics();
    for shards in 1..=4 {
        let mut fleet = FleetState::new(40, &SimRng::seed(9).fork("fleet/vehicles"));
        let mut kept = CensusTally::scan(&fleet);
        // Tick 1: every third vehicle degrades and raises a data alert
        // (rekey), every fifth is compromised and raises three network
        // alerts (filter, filter, isolate), and every seventh panics
        // after those writes.
        let outs = run_tick_sharded(&mut fleet, shards, 1, |cols, i, out| {
            let id = cols.id(i);
            if id % 3 == 0 {
                cols.set(i, VehicleStatus::Degraded, 0.5);
                out.alerts.push((i, ArchLayer::Data));
            }
            if id % 5 == 0 {
                cols.compromise(i, 1, ArchLayer::Network);
                out.alerts.extend([(i, ArchLayer::Network); 3]);
            }
            if id % 7 == 0 {
                panic!("vehicle {id} corrupted mid-step");
            }
        });
        let mut alerts = 0;
        for out in &outs {
            kept.absorb(&out.census);
            alerts += out.layer_alerts.iter().sum::<u32>();
        }
        assert_eq!(kept, CensusTally::scan(&fleet), "tick 1, {shards} shard(s)");
        assert_eq!(alerts, 14 + 3 * 8, "every answered alert is tallied");
        assert_eq!(kept.counts[VehicleStatus::Lost as usize], 6);
        // A degraded vehicle's rekey gives back half its deficit.
        assert_eq!(fleet.health[3], 0.75);
        assert_eq!(fleet.status[5], VehicleStatus::Isolated);

        // Tick 2: the isolated vehicles recover.
        let outs = run_tick_sharded(&mut fleet, shards, 2, |cols, i, out| {
            if cols.status(i) == VehicleStatus::Isolated {
                cols.restore(i);
                out.recovered.push(cols.id(i));
            }
        });
        for out in &outs {
            kept.absorb(&out.census);
        }
        assert_eq!(kept, CensusTally::scan(&fleet), "tick 2, {shards} shard(s)");
    }
}
