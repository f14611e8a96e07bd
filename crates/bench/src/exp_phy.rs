//! E2 / E2b: physical-layer experiments (paper Fig. 2 and §II-B).

use autosec_phy::attacks::{HrpAttack, OvershadowAttack};
use autosec_phy::enlargement::{EnlargementConfig, EnlargementDetector};
use autosec_phy::hrp::{HrpConfig, HrpRanging, ReceiverKind};
use autosec_phy::lrp::{LrpAttack, LrpConfig, LrpSession};
use autosec_runner::{par_trials, RunCtx};
use autosec_sim::SimRng;

use crate::Table;

/// Trials per sweep point (kept moderate so the full suite runs in
/// seconds; raise for tighter confidence intervals).
pub const TRIALS: usize = 200;

/// Attack-success statistics for one HRP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrpPoint {
    /// Attacker power relative to the legitimate signal.
    pub power: f64,
    /// Attacker STS knowledge (0 = Cicada, towards 1 = ED/LC oracle).
    pub knowledge: f64,
    /// Distance-reduction success rate.
    pub success_rate: f64,
    /// Measurement-rejection rate.
    pub rejection_rate: f64,
}

/// Sweeps an HRP attack against one receiver kind.
///
/// Each power point gets its own `fork`ed substream of `base`, and its
/// [`TRIALS`] Monte-Carlo trials fan out over [`par_trials`] with
/// `fork_idx` per-trial streams — results are bit-identical for every
/// `jobs` value.
pub fn hrp_sweep(
    kind: ReceiverKind,
    knowledge: f64,
    powers: &[f64],
    base: &SimRng,
    jobs: usize,
    trials: usize,
) -> Vec<HrpPoint> {
    let session = HrpRanging::new(HrpConfig::default(), kind);
    powers
        .iter()
        .map(|&power| {
            let attack = HrpAttack::ed_lc(8.0, power, knowledge);
            let stream = base.fork(&format!("power-{power:.3}"));
            let (mut success, mut rejected) = (0usize, 0usize);
            for (was_rejected, won) in par_trials(jobs, trials, &stream, |_, mut rng| {
                let out = session.measure(20.0, Some(&attack), &mut rng);
                (out.rejected, !out.rejected && out.reduction_m > 1.0)
            }) {
                if was_rejected {
                    rejected += 1;
                } else if won {
                    success += 1;
                }
            }
            HrpPoint {
                power,
                knowledge,
                success_rate: success as f64 / trials as f64,
                rejection_rate: rejected as f64 / trials as f64,
            }
        })
        .collect()
}

/// E2 main table: distance-reduction success, naive vs integrity-checked
/// receiver, blind (Cicada) vs partial-knowledge (ED/LC) attacker.
pub fn e2_hrp_attack_table(ctx: &RunCtx) -> Table {
    let powers = [1.0, 2.0, 3.0, 5.0];
    let mut t = Table::new(
        "E2",
        "Fig. 2 — HRP STS ranging: distance-reduction attacks vs receiver",
        &[
            "attacker",
            "power",
            "naive success",
            "checked success",
            "checked rejects",
        ],
    );
    let base = ctx.rng("e2-hrp-attacks");
    for (label, knowledge) in [("cicada (blind)", 0.0), ("ed/lc k=0.7", 0.7)] {
        let naive = hrp_sweep(
            ReceiverKind::NaiveLeadingEdge,
            knowledge,
            &powers,
            &base.fork(&format!("{label}/naive")),
            ctx.jobs,
            ctx.trials(TRIALS),
        );
        let checked = hrp_sweep(
            ReceiverKind::IntegrityChecked,
            knowledge,
            &powers,
            &base.fork(&format!("{label}/checked")),
            ctx.jobs,
            ctx.trials(TRIALS),
        );
        for (n, c) in naive.iter().zip(checked.iter()) {
            t.push_row(vec![
                label.to_owned(),
                format!("{:.0}x", n.power),
                format!("{:.1}%", n.success_rate * 100.0),
                format!("{:.1}%", c.success_rate * 100.0),
                format!("{:.1}%", c.rejection_rate * 100.0),
            ]);
        }
    }
    t
}

/// E2 LRP table: early-commit success probability versus round count.
///
/// The 2000-trial sweep per row runs on [`par_trials`]: trial `i`
/// always uses the `fork_idx(i)` stream, so rows are identical for any
/// `ctx.jobs`.
pub fn e2_lrp_rounds_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E2",
        "Fig. 2 — LRP distance bounding: early-commit survival vs rounds",
        &["rounds", "measured survival", "theory 2^-n"],
    );
    for n_rounds in [1usize, 2, 4, 8, 16, 32] {
        let session = LrpSession::new(LrpConfig {
            n_rounds,
            ..LrpConfig::default()
        });
        let base = ctx.rng("e2-lrp-rounds").fork(&n_rounds.to_string());
        let trials = ctx.trials(2000);
        let survived = par_trials(ctx.jobs, trials, &base, |_, mut rng| {
            let out = session.measure(
                20.0,
                Some(LrpAttack::EarlyCommit { advance_m: 10.0 }),
                &mut rng,
            );
            !out.aborted
        })
        .into_iter()
        .filter(|&s| s)
        .count();
        t.push_row(vec![
            n_rounds.to_string(),
            format!("{:.2}%", survived as f64 / trials as f64 * 100.0),
            format!("{:.2}%", session.early_commit_success_probability() * 100.0),
        ]);
    }
    t
}

/// E2b table: enlargement attack vs UWB-ED residual sweep.
///
/// Each residual point's `ctx.trials(TRIALS)` trials fan out over
/// [`par_trials`] on a residual-specific substream.
pub fn e2b_enlargement_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E2b",
        "§II-B — distance enlargement vs UWB-ED detection",
        &["residual", "enlarged", "detected", "undetected+enlarged"],
    );
    let det = EnlargementDetector::new(EnlargementConfig::default());
    let base = ctx.rng("e2b-enlargement");
    let trials = ctx.trials(TRIALS);
    for residual in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5] {
        let atk = OvershadowAttack {
            delay_m: 15.0,
            power: 3.0,
            residual,
        };
        let stream = base.fork(&format!("residual-{residual:.2}"));
        let outcomes = par_trials(ctx.jobs, trials, &stream, |_, mut rng| {
            let out = det.measure(25.0, Some(&atk), &mut rng);
            (out.enlarged, out.detected)
        });
        let enlarged = outcomes.iter().filter(|o| o.0).count();
        let detected = outcomes.iter().filter(|o| o.1).count();
        let dangerous = outcomes.iter().filter(|o| o.0 && !o.1).count();
        let pct = |x: usize| format!("{:.1}%", x as f64 / trials as f64 * 100.0);
        t.push_row(vec![
            format!("{residual:.2}"),
            pct(enlarged),
            pct(detected),
            pct(dangerous),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_shape_naive_loses_checked_wins() {
        let base = SimRng::seed(1);
        let naive = hrp_sweep(
            ReceiverKind::NaiveLeadingEdge,
            0.0,
            &[3.0],
            &base,
            1,
            TRIALS,
        );
        let checked = hrp_sweep(
            ReceiverKind::IntegrityChecked,
            0.0,
            &[3.0],
            &base,
            1,
            TRIALS,
        );
        assert!(naive[0].success_rate > 0.5, "{:?}", naive[0]);
        assert!(checked[0].success_rate < 0.05, "{:?}", checked[0]);
    }

    #[test]
    fn tables_render() {
        let ctx = RunCtx::default();
        assert!(e2_hrp_attack_table(&ctx).rows.len() == 8);
        assert!(e2_lrp_rounds_table(&ctx).rows.len() == 6);
        assert!(e2b_enlargement_table(&ctx).rows.len() == 6);
    }

    #[test]
    fn lrp_survival_decays_with_rounds() {
        let t = e2_lrp_rounds_table(&RunCtx::default());
        let pct = |row: &[String]| -> f64 { row[1].trim_end_matches('%').parse().expect("number") };
        assert!(pct(&t.rows[0]) > 40.0, "1 round ≈ coin flip");
        assert!(pct(&t.rows[5]) < 1.0, "32 rounds ≈ 2^-32");
    }
}
