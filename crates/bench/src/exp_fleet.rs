//! E19/E20: the live-fleet service mode measured as experiments.
//!
//! Everything up to E18 measures one mechanism in isolation; these two
//! run the whole stack at once — tens of thousands of per-vehicle
//! state machines under continuous scenario-step attacks, epidemic
//! V2X infection, cross-layer fault onsets, and the shared
//! IDS/response/repair pipeline ([`autosec_fleet`]).
//!
//! - **E19** sweeps defense depth bottom-up
//!   ([`DefensePosture::depth`]) and watches the epidemic: how far
//!   compromise spreads through the fleet at each posture depth, from
//!   an undefended population (epidemic take-off) to the full stack
//!   (containment).
//! - **E20** crosses posture `none`/`full` with the standard fault
//!   plan off/on and reports steady-state availability and MTTR — the
//!   operational quantities the paper's resilience discussion
//!   ultimately cares about.
//! - **E21** audits the two-tier scenario engine itself: per step ×
//!   posture, the calibrated [`StepOutcomeTable`]'s success/detect
//!   rates against an independent live measurement of the same model,
//!   with a 3-sigma drift verdict per row (`ok`/`DRIFT` — the CI
//!   fidelity job greps for the latter).
//!
//! The attack graph and the step outcome table are each calibrated
//! **once** per experiment (the graph carries both posture sides, the
//! table the whole depth ladder), then shared across every fleet run
//! of the sweep, so posture rows differ only in posture. `ctx.jobs`
//! maps to `--shards`, which by the fleet's invariance contract never
//! changes a table cell; `ctx.trials_scale` scales the fleet size.

use autosec_adversary::{calibrated_graph, AttackGraph, CalibrationConfig};
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::{replay_step, StepOutcomeTable};
use autosec_core::scenario::scenario_registry;
use autosec_fleet::{posture_label, FleetConfig, FleetEngine};
use autosec_runner::RunCtx;

use crate::Table;

/// E19 fleet size at `--trials-scale 1`.
pub const E19_VEHICLES: usize = 1_500;
/// E19 run length in ticks.
pub const E19_TICKS: u64 = 120;
/// E19 direct-attack rate — raised above the service default so the
/// epidemic has seeds to spread from within the run window.
pub const E19_ATTACK_RATE: f64 = 2e-3;
/// E20 fleet size at `--trials-scale 1`.
pub const E20_VEHICLES: usize = 2_000;
/// E20 run length in ticks.
pub const E20_TICKS: u64 = 150;
/// Calibration trials per attack-graph edge at `--trials-scale 1`.
pub const CALIBRATION_TRIALS: usize = 12;
/// E21 Monte-Carlo trials per fidelity estimate at `--trials-scale 1`
/// (each drift row compares two independent estimates of this size).
pub const E21_TRIALS: usize = 160;

/// One shared calibrated graph for a whole sweep.
fn fleet_graph(ctx: &RunCtx, label: &str) -> AttackGraph {
    let calib = CalibrationConfig::new(ctx.trials(CALIBRATION_TRIALS), ctx.jobs);
    calibrated_graph(&calib, &ctx.rng(label))
}

/// One shared depth-ladder outcome table for a whole sweep — every
/// posture row of E19/E20 resolves attacks against the same
/// calibration.
fn fleet_table(ctx: &RunCtx, label: &str) -> StepOutcomeTable {
    StepOutcomeTable::calibrate_depths(
        ctx.trials(CALIBRATION_TRIALS).max(1),
        ctx.jobs,
        &ctx.rng(label),
    )
}

/// E19 — epidemic compromise spread vs defense depth.
pub fn e19_epidemic_table(ctx: &RunCtx) -> Table {
    let graph = fleet_graph(ctx, "e19/calibration");
    let table = fleet_table(ctx, "e19/table");
    let mut t = Table::new(
        "E19",
        "§VIII — epidemic compromise spread vs defense depth (live fleet)",
        &[
            "depth",
            "posture",
            "attacks_ok",
            "infections",
            "peak_compromised",
            "final_compromised",
            "availability",
            "mttr_ms",
        ],
    );
    for depth in 0..=6usize {
        let posture = DefensePosture::depth(depth);
        let cfg = FleetConfig {
            vehicles: ctx.trials(E19_VEHICLES),
            ticks: E19_TICKS,
            shards: ctx.jobs,
            seed: ctx.seed,
            snapshot_every: 10,
            posture,
            attack_rate: E19_ATTACK_RATE,
            // Faults off: E19 isolates the attack/epidemic story; E20
            // runs the combined load.
            faults_enabled: false,
            ..FleetConfig::default()
        };
        let report = FleetEngine::with_parts(cfg, graph.clone(), Some(table.clone())).run();
        let peak = report
            .snapshots
            .iter()
            .map(|s| s.census.compromised)
            .max()
            .unwrap_or(0);
        let totals = *report.totals();
        t.push_row(vec![
            depth.to_string(),
            posture_label(&posture),
            totals.attacks_succeeded.to_string(),
            totals.infections.to_string(),
            peak.to_string(),
            report.final_snapshot().census.compromised.to_string(),
            format!("{:.4}", report.availability),
            format!("{:.1}", report.mttr_ms()),
        ]);
    }
    t
}

/// E20 — steady-state availability and MTTR under combined
/// fault + adversary load.
pub fn e20_availability_table(ctx: &RunCtx) -> Table {
    let graph = fleet_graph(ctx, "e20/calibration");
    let table = fleet_table(ctx, "e20/table");
    let mut t = Table::new(
        "E20",
        "§VIII — steady-state availability and MTTR under combined load (live fleet)",
        &[
            "posture",
            "faults",
            "availability",
            "mttr_ms",
            "recoveries",
            "alerts",
            "isolations",
            "breaches",
        ],
    );
    for (label, posture) in [
        ("none", DefensePosture::none()),
        ("full", DefensePosture::full()),
    ] {
        for faults in [false, true] {
            let cfg = FleetConfig {
                vehicles: ctx.trials(E20_VEHICLES),
                ticks: E20_TICKS,
                shards: ctx.jobs,
                seed: ctx.seed,
                posture,
                faults_enabled: faults,
                ..FleetConfig::default()
            };
            let report = FleetEngine::with_parts(cfg, graph.clone(), Some(table.clone())).run();
            let totals = *report.totals();
            t.push_row(vec![
                label.to_owned(),
                if faults { "on" } else { "off" }.to_owned(),
                format!("{:.4}", report.availability),
                format!("{:.1}", report.mttr_ms()),
                totals.recoveries.to_string(),
                totals.alerts.to_string(),
                (totals.responses_isolate + totals.responses_limp_home).to_string(),
                totals.backend_breaches.to_string(),
            ]);
        }
    }
    t
}

/// E21 — calibrated-vs-live fidelity drift of the two-tier scenario
/// engine.
///
/// For every registry step under postures `none` and `full`, the row
/// compares the [`StepOutcomeTable`] cell (the tier the fleet hot path
/// resolves against) with an **independent** live measurement of the
/// same model on a disjoint RNG substream: a [`replay_step`] that
/// always executes the model, so the column also re-checks every step
/// whose table cell came from a declared exact outcome
/// (`ScenarioStep::exact`). `gap` is the absolute
/// success-rate difference; `tol` is a 3-sigma bound for two
/// independent binomial estimates of this size plus a 0.02
/// discretization floor. A row outside its bound prints the grep-able
/// verdict `DRIFT` (the CI fidelity job fails on it); `ok` otherwise.
pub fn e21_fidelity_table(ctx: &RunCtx) -> Table {
    let trials = ctx.trials(E21_TRIALS).max(2);
    let postures = [
        ("none", DefensePosture::none()),
        ("full", DefensePosture::full()),
    ];
    let ladder: Vec<DefensePosture> = postures.iter().map(|(_, p)| *p).collect();
    let table = StepOutcomeTable::calibrate(&ladder, trials, ctx.jobs, &ctx.rng("e21/table"));
    let steps = scenario_registry();
    let mut t = Table::new(
        "E21",
        "§VIII — calibrated-vs-live fidelity drift (two-tier scenario engine)",
        &[
            "step",
            "posture",
            "table_success",
            "live_success",
            "gap",
            "table_detect",
            "live_detect",
            "tol",
            "verdict",
        ],
    );
    for (si, step) in steps.iter().enumerate() {
        for (pi, (plabel, posture)) in postures.iter().enumerate() {
            let cell = table.steps()[si].by_posture[pi];
            let live = replay_step(
                step.as_ref(),
                posture,
                &ctx.rng(&format!("e21/live/{}/{plabel}", step.name())),
                trials,
                ctx.jobs,
            );
            let gap = (cell.success - live.success).abs();
            let detect_gap = (cell.detect - live.detect).abs();
            let tol = drift_tolerance(cell.success, live.success, trials).max(drift_tolerance(
                cell.detect,
                live.detect,
                trials,
            ));
            let verdict = if gap <= tol && detect_gap <= tol {
                "ok"
            } else {
                "DRIFT"
            };
            t.push_row(vec![
                step.name().to_owned(),
                (*plabel).to_owned(),
                format!("{:.4}", cell.success),
                format!("{:.4}", live.success),
                format!("{gap:.4}"),
                format!("{:.4}", cell.detect),
                format!("{:.4}", live.detect),
                format!("{tol:.4}"),
                verdict.to_owned(),
            ]);
        }
    }
    t
}

/// 3-sigma tolerance for the gap between two independent `n`-trial
/// binomial estimates of the same probability, with a 0.02 floor for
/// 1/n discretization.
fn drift_tolerance(a: f64, b: f64, n: usize) -> f64 {
    let p = ((a + b) / 2.0).clamp(0.0, 1.0);
    3.0 * (p * (1.0 - p) * 2.0 / n as f64).sqrt() + 0.02
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx(jobs: usize) -> RunCtx {
        RunCtx::new(7, jobs).with_trials_scale(0.02)
    }

    #[test]
    fn e19_has_one_row_per_depth() {
        let t = e19_epidemic_table(&tiny_ctx(2));
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.rows[0][1], "none");
        assert_eq!(t.rows[6][1], "full");
    }

    #[test]
    fn e20_covers_the_grid() {
        let t = e20_availability_table(&tiny_ctx(2));
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let availability: f64 = row[2].parse().unwrap();
            assert!(availability > 0.0 && availability <= 1.0);
        }
    }

    #[test]
    fn fleet_tables_are_jobs_invariant() {
        // `--jobs` maps to `--shards`, and shards never change cells.
        let a = e19_epidemic_table(&tiny_ctx(1));
        let b = e19_epidemic_table(&tiny_ctx(3));
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn e21_covers_every_step_under_both_postures() {
        // Scale 0.1 matches the CI fidelity job's drift bound check.
        let ctx = RunCtx::new(7, 2).with_trials_scale(0.1);
        let t = e21_fidelity_table(&ctx);
        assert_eq!(t.rows.len(), 18, "9 steps x 2 postures");
        for row in &t.rows {
            let gap: f64 = row[4].parse().unwrap();
            let tol: f64 = row[7].parse().unwrap();
            assert!(gap >= 0.0 && tol > 0.0);
            assert!(
                row[8] == "ok" || row[8] == "DRIFT",
                "verdict must be grep-able"
            );
        }
        // Independent estimates of identical models stay inside a
        // 3-sigma bound at this seed.
        assert!(
            t.rows.iter().all(|r| r[8] == "ok"),
            "fidelity drift at scale 0.1"
        );
    }

    #[test]
    fn e21_is_jobs_invariant() {
        let a = e21_fidelity_table(&tiny_ctx(1));
        let b = e21_fidelity_table(&tiny_ctx(4));
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
}
