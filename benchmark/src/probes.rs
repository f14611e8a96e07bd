//! Layer probes: each times one layer's public entry point directly,
//! on inputs derived from the seed, so a per-layer number can be set
//! beside the end-to-end metric it should move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use autosec_adversary::{adaptive_trial, calibrated_graph, AttackConfig, CalibrationConfig};
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::measure_step;
use autosec_core::scenario::scenario_registry;
use autosec_crypto::{AesCtr, AesGcm, MssKeyPair, Sha256};
use autosec_faults::{detector_for, target_for, FaultPlan, RecoveryEngine};
use autosec_fleet::{run_tick_sharded, Census, FleetConfig, FleetState};
use autosec_ids::response::ResponseEngine;
use autosec_ids::Alert;
use autosec_runner::par_trials;
use autosec_scengen::{evaluate_campaign, generate, GenConfig};
use autosec_sdv::platform::SdvPlatform;
use autosec_sim::{ArchLayer, SimDuration, SimRng, SimTime};
use autosec_ssi::registry::Registry;
use autosec_ssi::wallet::Wallet;
use rand::RngCore as _;

use crate::stats::median;
use crate::workload::CALIBRATION_TRIALS;

/// Median wall seconds of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Runs every probe. `fleet` sizes the fleet-shaped probes (census,
/// shard dispatch, fault references): the workload's own fleet.
pub(crate) fn run_probes(seed: u64, fleet: &FleetConfig) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let root = SimRng::seed(seed);

    // Scenario models, re-timed on the substreams graph calibration
    // uses for them, at the fleet's calibration trial count.
    let calib = root.fork("fleet/calibration");
    for step in scenario_registry() {
        for (posture_name, side, posture) in [
            ("none", "undef", DefensePosture::none()),
            ("full", "def", DefensePosture::full()),
        ] {
            let base = calib.fork(&format!("calib/{}/{side}", step.name()));
            let measure = || measure_step(step.as_ref(), &posture, &base, CALIBRATION_TRIALS, 1);
            // The SDV step takes over a second; the cheap ones are
            // timed 25 times, so timer noise does not set their median.
            let once = time_median(1, measure);
            let s = if once < 0.01 {
                time_median(25, measure)
            } else {
                once
            };
            out.insert(
                format!("core.measure_step.{}.{posture_name}_ms", step.name()),
                s * 1e3,
            );
        }
    }

    let mut rng = root.fork("bench/probes");
    let mut data = vec![0u8; 2 << 20];
    rng.fill_bytes(&mut data);
    let mb = data.len() as f64 / 1e6;
    let key = [7u8; 16];
    out.insert(
        "crypto.sha256_mb_per_s".into(),
        mb / time_median(3, || Sha256::digest(&data)),
    );
    let ctr = AesCtr::new(&key);
    out.insert(
        "crypto.aes_ctr_mb_per_s".into(),
        mb / time_median(3, || ctr.process(&[0u8; 16], &data)),
    );
    let gcm = AesGcm::new(&key);
    out.insert(
        "crypto.gcm_seal_mb_per_s".into(),
        mb / time_median(3, || gcm.seal(&[0u8; 12], b"", &data)),
    );
    out.insert(
        "crypto.mss_keygen_h6_ms".into(),
        time_median(5, || MssKeyPair::generate(&mut rng, 6)) * 1e3,
    );
    out.insert(
        "ssi.wallet_create_ms".into(),
        time_median(5, || Wallet::create(&mut rng, "probe", &Registry::new())) * 1e3,
    );
    out.insert(
        "sdv.platform_new_ms".into(),
        time_median(5, || SdvPlatform::new(&mut rng)) * 1e3,
    );

    // The fleet's serial response phase: one playbook engine with the
    // fleet's history cap, fed alerts spread over many vehicles.
    const ALERTS: usize = 200_000;
    let alerts: Vec<Alert> = (0..ALERTS)
        .map(|i| Alert {
            detector: detector_for(ArchLayer::ALL[i % ArchLayer::ALL.len()]),
            subject: (rng.next_u64() % 50_000) as u32,
            at: SimTime::from_ms(i as u64),
            detail: String::new(),
        })
        .collect();
    let mut responder = ResponseEngine::with_history_cap(4_096);
    let start = Instant::now();
    for a in &alerts {
        black_box(responder.handle(a));
    }
    out.insert(
        "ids.response_handle_ns".into(),
        start.elapsed().as_secs_f64() * 1e9 / ALERTS as f64,
    );

    let mut state = FleetState::new(fleet.vehicles, &root.fork("fleet/vehicles"));
    out.insert(
        "fleet.census_take_us".into(),
        time_median(30, || Census::take(&state)) * 1e6,
    );
    const DISPATCHES: usize = 100;
    out.insert(
        "fleet.shard_dispatch_us".into(),
        time_median(10, || {
            for _ in 0..DISPATCHES {
                black_box(run_tick_sharded(&mut state, fleet.shards, 1, |_, _, _| {}));
            }
        }) * 1e6
            / DISPATCHES as f64,
    );

    let recovery_base = root.fork("bench/recovery");
    let plan = FaultPlan::standard(&recovery_base);
    let engine = RecoveryEngine::new(true);
    out.insert(
        "faults.recovery_standard_plan_ms".into(),
        time_median(3, || engine.run(&plan, &recovery_base)) * 1e3,
    );
    // One fleet's reference injections, as its construction runs them.
    let fleet_plan = FaultPlan::standard_over(
        &root.fork("fleet/faults"),
        SimDuration::from_ms(fleet.ticks * fleet.tick_ms),
    );
    let ref_base = root.fork("fleet/faults/ref");
    out.insert(
        "faults.reference_apply_ms".into(),
        time_median(3, || {
            for (i, s) in fleet_plan.specs.iter().enumerate() {
                if s.effect.is_noop() {
                    continue;
                }
                let layer = s.effect.layer();
                black_box(target_for(layer).apply(
                    &[s.effect],
                    fleet.posture.enabled(layer),
                    &mut ref_base.fork_idx(i as u64),
                ));
            }
        }) * 1e3,
    );

    const TRIALS: usize = 200_000;
    let par_base = root.fork("bench/par");
    for jobs in [1usize, 2] {
        out.insert(
            format!("runner.par_trials_j{jobs}_ns"),
            time_median(3, || par_trials(jobs, TRIALS, &par_base, |i, _| i)) * 1e9 / TRIALS as f64,
        );
    }

    // Planner and composer over a graph calibrated with 4 trials, which
    // keeps the probe short; the seed fixes which graph it is.
    let graph = calibrated_graph(&CalibrationConfig::new(4, 1), &root.fork("bench/graph"));
    let posture = DefensePosture::depth(3);
    let attack = AttackConfig {
        active_response: true,
        alert_correlation: true,
        ..AttackConfig::new(10)
    };
    const ADAPTIVE: usize = 2_000;
    let adaptive_base = root.fork("bench/adaptive");
    let start = Instant::now();
    for i in 0..ADAPTIVE {
        black_box(adaptive_trial(
            &graph,
            &posture,
            &attack,
            &mut adaptive_base.fork_idx(i as u64),
        ));
    }
    out.insert(
        "adversary.adaptive_trial_us".into(),
        start.elapsed().as_secs_f64() * 1e6 / ADAPTIVE as f64,
    );
    out.insert(
        "scengen.generate_64_us".into(),
        time_median(10, || generate(&graph, &GenConfig::new(64, 6, seed))) * 1e6,
    );
    let pool = generate(&graph, &GenConfig::new(16, 6, seed));
    const EVAL_TRIALS: usize = 200;
    let eval_base = root.fork("bench/eval");
    let start = Instant::now();
    for c in &pool {
        black_box(evaluate_campaign(
            &graph,
            c,
            &posture,
            &eval_base,
            EVAL_TRIALS,
            1,
        ));
    }
    out.insert(
        "scengen.evaluate_campaign_us_per_trial".into(),
        start.elapsed().as_secs_f64() * 1e6 / (pool.len() * EVAL_TRIALS) as f64,
    );
    out
}
