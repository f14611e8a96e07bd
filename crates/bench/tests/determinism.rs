//! Jobs-independence: the engine's core promise is that `--jobs` only
//! changes wall-clock time, never output. These tests run real
//! experiments serially and with four workers and require bit-identical
//! tables and artifacts (modulo the volatile duration keys).

use std::time::Duration;

use autosec_bench::{registry, ExperimentRecord, RunCtx};
use autosec_runner::artifact::strip_volatile;
use autosec_sim::SimRng;
use rand::RngCore;

/// The cheapest parallel-migrated experiments (still real Monte-Carlo
/// sweeps). E10/E11 are the heavier ones; two suffice for CI time.
const PROBES: &[&str] = &["e2-lrp-rounds", "e12-removal"];

#[test]
fn tables_identical_for_any_job_count() {
    let reg = registry();
    for slug in PROBES {
        let exp = &reg.select(slug)[0];
        let serial = exp.run(&RunCtx::new(42, 1));
        let parallel = exp.run(&RunCtx::new(42, 4));
        assert_eq!(
            serial, parallel,
            "{slug} diverged between jobs=1 and jobs=4"
        );
    }
}

#[test]
fn seed_actually_changes_the_tables() {
    // Guard against a stuck RNG plumbing: different seeds must differ
    // somewhere across the probe experiments.
    let reg = registry();
    let differs = PROBES.iter().any(|slug| {
        let exp = &reg.select(slug)[0];
        exp.run(&RunCtx::new(42, 1)) != exp.run(&RunCtx::new(43, 1))
    });
    assert!(differs, "seed is ignored by every probe experiment");
}

#[test]
fn artifacts_identical_modulo_duration() {
    let reg = registry();
    let exp = &reg.select("e12-removal")[0];
    let record = |jobs: usize, fake_ms: u64| {
        ExperimentRecord::ok(
            exp.slug,
            exp.id,
            Duration::from_millis(fake_ms),
            exp.run(&RunCtx::new(42, jobs)),
        )
    };
    let a = strip_volatile(&record(1, 3).to_json(42, 1, 1.0));
    let b = strip_volatile(&record(4, 9000).to_json(42, 1, 1.0));
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn fork_idx_streams_partition_the_trial_space() {
    // Adjacent trial indices must get unrelated streams: collect the
    // first draw of many indexed forks and check they don't collide.
    let base = SimRng::seed(42);
    let mut firsts = std::collections::BTreeSet::new();
    for i in 0..512u64 {
        let mut rng = base.fork_idx(i);
        firsts.insert(rng.next_u64());
    }
    assert_eq!(firsts.len(), 512, "fork_idx streams collided");

    // And the same index must reproduce the same stream.
    let mut a = base.fork_idx(7);
    let mut b = base.fork_idx(7);
    for _ in 0..16 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

/// Every experiment migrated onto `par_trials`: E2 HRP sweep, E2b
/// enlargement, E3 zonal, E8 reconfiguration, the A1/A5 ablations
/// (scenario-engine refactor), plus E1 depth sweep, E9 kill chain, E10
/// realtime and the E14/E15 resilience suite (fault-injection PR).
const MIGRATED: &[&str] = &[
    "e1-depth-sweep",
    "e2-hrp-attacks",
    "e2b-enlargement",
    "e3-zonal-latency",
    "e8-reconfiguration",
    "e9-killchain",
    "e10-realtime",
    "e14-fault-sweep",
    "e15-recovery",
    "e18-harness-resilience",
    "a1-hrp-threshold",
    "a5-vrange",
];

#[test]
fn migrated_experiments_are_jobs_invariant() {
    let reg = registry();
    for slug in MIGRATED {
        let exp = &reg.select(slug)[0];
        let serial = exp.run(&RunCtx::new(42, 1));
        let parallel = exp.run(&RunCtx::new(42, 4));
        assert_eq!(
            serial, parallel,
            "{slug} diverged between jobs=1 and jobs=4"
        );
    }
}

#[test]
fn quarantined_outcome_sequences_are_jobs_invariant() {
    // The fault-tolerance counterpart of the tables test: when trials
    // panic, the full TrialOutcome sequence — which slots died and
    // with what message — must also be independent of the job count.
    use autosec_runner::try_par_trials;
    let base = SimRng::seed(42).fork("quarantine-probe");
    let run = |jobs: usize| {
        try_par_trials(jobs, 151, &base, |i, mut rng| {
            if rng.chance(0.2) {
                panic!("probe trial {i} panicked");
            }
            rng.next_u64()
        })
    };
    let serial = run(1);
    assert!(serial.iter().any(|o| !o.is_ok()), "no trial panicked");
    assert!(serial.iter().any(|o| o.is_ok()), "every trial panicked");
    assert_eq!(
        serial,
        run(4),
        "quarantine diverged between jobs=1 and jobs=4"
    );
}

#[test]
fn every_parallel_tagged_experiment_declares_itself() {
    // The "parallel" tag is the registry's record of which experiments
    // fan out through par_trials; all migrated slugs must carry it.
    let reg = registry();
    for slug in MIGRATED {
        let exp = &reg.select(slug)[0];
        assert!(
            exp.tags.contains(&"parallel"),
            "{slug} migrated but not tagged parallel"
        );
    }
}
