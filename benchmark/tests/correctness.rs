//! The benchmark measures the program users run: shard count and the
//! trace pass's split construction leave every output byte unchanged,
//! and a run that would change the suite is refused.

use std::process::Command;

use autosec_benchmark::trace::Tracer;
use autosec_benchmark::workload::{build_split, fleet_digest, Workload};
use autosec_fleet::{FleetConfig, FleetEngine};

/// A workload's fleet shrunk to 1k vehicles x 10 ticks. The attack rate
/// is raised so that ~500 attacks resolve through the outcome table,
/// and any change to a calibrated cell shows in the digest.
fn small(w: Workload, shards: usize) -> FleetConfig {
    FleetConfig {
        vehicles: 1_000,
        ticks: 10,
        shards,
        attack_rate: 0.05,
        calibration_trials: 4,
        ..w.fleet_config(42).expect("a fleet workload")
    }
}

#[test]
fn fleet_digest_is_shard_invariant() {
    for w in [Workload::FleetService, Workload::FleetBreachStorm] {
        let one = fleet_digest(&FleetEngine::new(small(w, 1)).run());
        let two = fleet_digest(&FleetEngine::new(small(w, 2)).run());
        assert_eq!(one, two, "{}", w.name());
    }
}

#[test]
fn split_construction_runs_the_same_program() {
    for w in [Workload::FleetService, Workload::FleetBreachStorm] {
        let cfg = small(w, 1);
        let whole = fleet_digest(&FleetEngine::new(cfg.clone()).run());
        let mut tr = Tracer::new();
        let split = fleet_digest(&build_split(cfg, &mut tr).run());
        assert_eq!(whole, split, "{}", w.name());
        let names: Vec<String> = tr.into_spans().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "adversary.calibrated_graph",
                "core.table_calibrate",
                "fleet.with_parts"
            ]
        );
    }
}

#[test]
fn refuses_to_run_with_the_chaos_probe_enabled() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "suite-scaled", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .env("AUTOSEC_CHAOS", "ok")
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "printed a result under AUTOSEC_CHAOS"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("AUTOSEC_CHAOS"));
}
