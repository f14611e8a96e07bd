//! E19/E20: live-fleet tick throughput at different shard counts and
//! fidelity tiers.
//!
//! The headline number is vehicle-ticks per second, the metric the
//! fleet workloads of `benchmark/` report. Graph and outcome-table
//! calibration (and engine construction generally, ~0.7 s of scenario-model
//! Monte-Carlo) happen **outside** the timed region: each iteration
//! clones a pre-built engine and runs it, so the figure measures the
//! tick loop + snapshots — the part that scales with
//! vehicles × ticks — not a fixed setup cost that earlier revisions
//! of this bench mistakenly folded in.

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_bench::exp_fleet;
use autosec_fleet::{Fidelity, FleetConfig, FleetEngine};
use autosec_runner::RunCtx;
use autosec_sim::SimRng;
use criterion::{criterion_group, criterion_main, Criterion};

const VEHICLES: usize = 5_000;
const TICKS: u64 = 20;

fn bench(c: &mut Criterion) {
    let graph = calibrated_graph(
        &CalibrationConfig::new(8, 4),
        &SimRng::seed(42).fork("bench-fleet"),
    );

    let mut g = c.benchmark_group("e19_fleet");
    g.sample_size(10); // each sample is a full 100k-vehicle-tick run

    for (label, fidelity) in [("", Fidelity::Live), ("calibrated_", Fidelity::Calibrated)] {
        for shards in [1usize, 4] {
            let cfg = FleetConfig {
                vehicles: VEHICLES,
                ticks: TICKS,
                shards,
                seed: 42,
                fidelity,
                ..FleetConfig::default()
            };
            // Construction calibrates the outcome table (calibrated
            // mode) — hoist it; the iteration clones the ready engine.
            let engine = FleetEngine::with_graph(cfg, graph.clone());
            g.bench_function(format!("fleet_5k_x20_{label}shards{shards}"), |b| {
                b.iter(|| engine.clone().run())
            });
        }
    }

    g.bench_function("e19_table_small", |b| {
        let ctx = RunCtx::new(42, 4).with_trials_scale(0.1);
        b.iter(|| exp_fleet::e19_epidemic_table(&ctx))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
