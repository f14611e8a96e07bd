//! E22 / E23: attacker-vs-defender self-play over the calibrated
//! attack graph.
//!
//! E22 sweeps the tournament matrix: two adaptive-attacker profiles
//! (the E17 silent planner and a noisy `stealth_weight`-discounted
//! variant) against the closed-loop runtime defender, which walks its
//! four rules in one fixed order, at increasing defense budgets. E23 is
//! the equal-cost anchor: at every greedy-frontier budget K the closed-loop
//! defender that pre-spends the frontier's own K knobs must do at least
//! as well as the static allocation — and on the same evaluation
//! streams a fully pre-spent duel replays the static run bit for bit,
//! so the verdict column is decided deterministically, not
//! statistically. A second column pair repeats the comparison against
//! the noisy attacker with half the budget held in reserve, where the
//! reactive rules actually fire.
//!
//! Everything fans out via `par_trials` on forked substreams: both
//! tables are bit-identical across `--jobs` values at a fixed seed.

use autosec_adversary::{
    calibrated_graph, evaluate_with, greedy_frontier, AttackConfig, AttackGraph, CalibrationConfig,
    DefenseKnob,
};
use autosec_autodefense::{run_cell, CellSummary, DuelConfig};
use autosec_runner::RunCtx;

use crate::Table;

/// Monte-Carlo trials per edge per posture side during calibration.
pub const CALIB_TRIALS: usize = 120;

/// Duels per tournament cell (E22) and per frontier point (E23).
pub const DUEL_TRIALS: usize = 320;

/// Attack-step budget for every duel (the E16/E17 value).
pub const STEP_BUDGET: usize = 10;

/// Defender budgets swept by the E22 matrix.
pub const DEFENDER_BUDGETS: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 6.0];

/// Stealth weight of the noisy attacker profile: it still prefers
/// quiet routes but no longer treats detection pressure as decisive,
/// so the defender's alert stream carries real signal.
pub const NOISY_STEALTH_WEIGHT: f64 = 0.4;

/// Calibrates the shared attack graph for one experiment.
fn graph_for(ctx: &RunCtx, label: &str) -> AttackGraph {
    let cfg = CalibrationConfig::new(ctx.trials(CALIB_TRIALS), ctx.jobs);
    calibrated_graph(&cfg, &ctx.rng(label))
}

/// The two attacker profiles of the tournament.
fn profiles() -> [(&'static str, AttackConfig); 2] {
    [
        ("silent", AttackConfig::new(STEP_BUDGET)),
        (
            "noisy",
            AttackConfig {
                stealth_weight: NOISY_STEALTH_WEIGHT,
                ..AttackConfig::new(STEP_BUDGET)
            },
        ),
    ]
}

fn cell_row(attacker: &str, budget: f64, cell: &CellSummary) -> Vec<String> {
    vec![
        attacker.to_owned(),
        format!("{budget}"),
        format!("{:.1}%", cell.breach_rate * 100.0),
        format!("{:.2}", cell.mean_depth),
        format!("{:.2}", cell.mean_ttb),
        format!("{:.2}", cell.mean_spend),
        format!("{:.2}", cell.mean_alerts),
    ]
}

/// E22 table: the self-play tournament matrix. Rows sweep (attacker
/// profile × defender budget) against the reactive defender. Cells
/// within one profile share trial streams (common random numbers), so
/// reading down a column shows what each defense dollar buys against
/// identical attacker luck.
pub fn e22_tournament_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E22",
        "§VIII — self-play tournament: adaptive attacker vs closed-loop defender",
        &[
            "attacker",
            "def budget",
            "breach",
            "depth",
            "ttb",
            "def spend",
            "alerts",
        ],
    );
    let graph = graph_for(ctx, "e22/calib");
    let trials = ctx.trials(DUEL_TRIALS);

    for (name, attack) in profiles() {
        let duels = ctx.rng(&format!("e22/duels/{name}"));
        for budget in DEFENDER_BUDGETS {
            let cfg = DuelConfig::reactive(attack, budget);
            let cell = run_cell(&graph, &cfg, trials, ctx.jobs, &duels);
            t.push_row(cell_row(name, budget, &cell));
        }
    }
    t
}

/// E23 table: closed-loop vs static defense at equal cost along the
/// greedy frontier. At each K the static column is the E17 frontier
/// evaluation; the closed-loop column pre-deploys the same K knobs
/// with nothing in reserve on the same trial streams, which replays
/// the static run bit for bit — the verdict is `=` at every point by
/// construction (and `<` would also satisfy weak dominance). The noisy
/// pair re-runs the comparison against the `stealth_weight`-discounted
/// attacker with only half the budget pre-deployed, the half-reactive
/// configuration where the runtime rules earn their keep.
pub fn e23_equal_cost_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E23",
        "§VIII — closed-loop defender vs static greedy frontier at equal cost",
        &[
            "K",
            "knob added",
            "static success",
            "closed success",
            "verdict",
            "noisy static",
            "noisy closed",
        ],
    );
    let graph = graph_for(ctx, "e23/calib");
    let trials = ctx.trials(DUEL_TRIALS);
    let eval = ctx.rng("e23/eval");
    let noisy_eval = ctx.rng("e23/noisy");
    let frontier = greedy_frontier(&graph, STEP_BUDGET, trials, ctx.jobs, &eval);
    let noisy_attack = AttackConfig {
        stealth_weight: NOISY_STEALTH_WEIGHT,
        ..AttackConfig::new(STEP_BUDGET)
    };

    for k in 0..=frontier.len() {
        let (label, knobs, static_success): (String, &[DefenseKnob], f64) = if k == 0 {
            let open = evaluate_with(
                &graph,
                &[],
                &AttackConfig::new(STEP_BUDGET),
                trials,
                ctx.jobs,
                &eval,
            );
            ("(undefended)".to_owned(), &[], open.success)
        } else {
            let alloc = &frontier[k - 1];
            (
                alloc
                    .knobs
                    .last()
                    .expect("one knob per step")
                    .label()
                    .to_owned(),
                &alloc.knobs,
                alloc.eval.success,
            )
        };
        // Equal cost, zero reserve: the whole budget K buys the
        // frontier's own knobs at deployment time.
        let closed_cfg = DuelConfig {
            attack: AttackConfig::new(STEP_BUDGET),
            budget: k as f64,
            pre_spend: knobs.to_vec(),
        };
        let closed = run_cell(&graph, &closed_cfg, trials, ctx.jobs, &eval);
        let verdict = if closed.breach_rate < static_success {
            "<"
        } else if closed.breach_rate == static_success {
            "="
        } else {
            ">"
        };
        // The honest half: same budget K against the noisy attacker,
        // half pre-deployed and half held for the runtime rules.
        let noisy_static =
            evaluate_with(&graph, knobs, &noisy_attack, trials, ctx.jobs, &noisy_eval);
        let noisy_cfg = DuelConfig {
            attack: noisy_attack,
            budget: k as f64,
            pre_spend: knobs[..k / 2].to_vec(),
        };
        let noisy_closed = run_cell(&graph, &noisy_cfg, trials, ctx.jobs, &noisy_eval);
        t.push_row(vec![
            k.to_string(),
            label,
            format!("{:.1}%", static_success * 100.0),
            format!("{:.1}%", closed.breach_rate * 100.0),
            verdict.to_owned(),
            format!("{:.1}%", noisy_static.success * 100.0),
            format!("{:.1}%", noisy_closed.breach_rate * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> RunCtx {
        RunCtx::new(42, 1).with_trials_scale(0.1)
    }

    #[test]
    fn e22_matrix_is_jobs_invariant() {
        let a = e22_tournament_table(&RunCtx::new(7, 1).with_trials_scale(0.05));
        let b = e22_tournament_table(&RunCtx::new(7, 4).with_trials_scale(0.05));
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn e22_covers_both_profiles_at_every_budget() {
        let t = e22_tournament_table(&small_ctx());
        assert_eq!(t.rows.len(), 2 * DEFENDER_BUDGETS.len());
        for (profile, rows) in ["silent", "noisy"]
            .into_iter()
            .zip(t.rows.chunks(DEFENDER_BUDGETS.len()))
        {
            for (r, budget) in rows.iter().zip(DEFENDER_BUDGETS) {
                assert_eq!(
                    [r[0].as_str(), r[1].as_str()],
                    [profile, budget.to_string().as_str()]
                );
            }
        }
    }

    #[test]
    fn e23_closed_loop_weakly_dominates_static_at_equal_cost() {
        let t = e23_equal_cost_table(&small_ctx());
        assert_eq!(t.rows.len(), 9, "K = 0..=8");
        // The acceptance bar is >= 3 budget points; the zero-reserve
        // construction makes it all nine, bit for bit.
        let dominated = t.rows.iter().filter(|r| r[4] == "=" || r[4] == "<").count();
        assert!(
            dominated >= 3,
            "weak dominance at {dominated} points: {:?}",
            t.rows
        );
        for r in &t.rows {
            assert_eq!(
                r[2], r[3],
                "zero-reserve pre-spend must replay the static run bit for bit at K={}",
                r[0]
            );
        }
    }

    #[test]
    fn e23_is_jobs_invariant() {
        let a = e23_equal_cost_table(&RunCtx::new(9, 1).with_trials_scale(0.05));
        let b = e23_equal_cost_table(&RunCtx::new(9, 3).with_trials_scale(0.05));
        assert_eq!(a.rows, b.rows);
    }
}
