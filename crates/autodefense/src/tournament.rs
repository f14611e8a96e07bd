//! Self-play tournament driver: Monte-Carlo batches of duels over
//! swept (attacker budget × defender budget) pairs.
//!
//! One **cell** of the tournament matrix is `trials` independent duels
//! of a fixed [`DuelConfig`], run via
//! [`par_trials`] so trial `i` always sits
//! on `base.fork_idx(i)` — cells are bit-identical for every `--jobs`
//! value, and two cells sharing a base stream are compared under
//! common random numbers.

use autosec_adversary::AttackGraph;
use autosec_runner::par_trials;
use autosec_sim::SimRng;

use crate::duel::{duel_trial, DuelConfig, DuelRun};

/// Aggregate outcome of one tournament cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Fraction of duels the attacker won.
    pub breach_rate: f64,
    /// Mean capabilities gained beyond the external foothold.
    pub mean_depth: f64,
    /// Mean steps to breach, over breached duels only (0 when the
    /// defense held every duel).
    pub mean_ttb: f64,
    /// Mean defense dollars spent.
    pub mean_spend: f64,
    /// Mean alerts per duel.
    pub mean_alerts: f64,
}

/// Folds a batch of duel outcomes (trial order) into its summary.
pub fn summarize(runs: &[DuelRun]) -> CellSummary {
    let n = runs.len().max(1) as f64;
    let breached: Vec<&DuelRun> = runs.iter().filter(|r| r.breached).collect();
    let mean_ttb = if breached.is_empty() {
        0.0
    } else {
        breached
            .iter()
            .map(|r| r.time_to_breach.unwrap_or(r.steps) as f64)
            .sum::<f64>()
            / breached.len() as f64
    };
    CellSummary {
        breach_rate: breached.len() as f64 / n,
        mean_depth: runs.iter().map(|r| r.depth as f64).sum::<f64>() / n,
        mean_ttb,
        mean_spend: runs.iter().map(|r| r.spend).sum::<f64>() / n,
        mean_alerts: runs.iter().map(|r| r.alerts as f64).sum::<f64>() / n,
    }
}

/// Runs one tournament cell: `trials` duels of `cfg` on `base`'s
/// substreams.
pub fn run_cell(
    graph: &AttackGraph,
    cfg: &DuelConfig,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> CellSummary {
    let runs: Vec<DuelRun> = par_trials(jobs, trials, base, move |_, mut rng| {
        duel_trial(graph, cfg, &mut rng)
    });
    summarize(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_adversary::{calibrated_graph, AttackConfig, CalibrationConfig};

    fn small_graph() -> AttackGraph {
        calibrated_graph(
            &CalibrationConfig::new(8, 2),
            &SimRng::seed(21).fork("tournament/graph"),
        )
    }

    #[test]
    fn cells_are_jobs_invariant() {
        let g = small_graph();
        let cfg = DuelConfig::reactive(
            AttackConfig {
                stealth_weight: 0.4,
                ..AttackConfig::new(8)
            },
            4.0,
        );
        let base = SimRng::seed(22).fork("tournament/cell");
        let a = run_cell(&g, &cfg, 120, 1, &base);
        let b = run_cell(&g, &cfg, 120, 4, &base);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_defense_budget_never_helps_the_attacker() {
        // Under common random numbers on a calibrated graph, a richer
        // reactive defender weakly reduces the breach rate.
        let g = small_graph();
        let base = SimRng::seed(23).fork("tournament/cell");
        let rate = |budget: f64| {
            let cfg = DuelConfig::reactive(
                AttackConfig {
                    stealth_weight: 0.4,
                    ..AttackConfig::new(10)
                },
                budget,
            );
            run_cell(&g, &cfg, 150, 2, &base).breach_rate
        };
        let open = rate(0.0);
        let defended = rate(6.0);
        assert!(
            defended <= open,
            "reactive spend must not help the attacker: {defended} vs {open}"
        );
    }

    #[test]
    fn summarize_handles_the_all_held_case() {
        let s = summarize(&[]);
        assert_eq!(s.breach_rate, 0.0);
        assert_eq!(s.mean_ttb, 0.0);
    }
}
