//! E1 / E13: the layered framework — defense-in-depth curve and the
//! multi-layer synergy table (Fig. 1 and §VIII).

use autosec_core::assessment::score;
use autosec_core::campaign::{run_campaign, DefensePosture};
use autosec_core::layers::ArchLayer;
use autosec_runner::{par_trials, RunCtx};

use crate::Table;

/// Campaign seed of the depth sweep — pinned (not `ctx.seed`) so the
/// published curve matches `core::assessment::depth_sweep(2025)`.
const DEPTH_SWEEP_SEED: u64 = 2025;

/// E1 table: the defense-in-depth curve.
///
/// One campaign per depth (none, then layers enabled bottom-up). The
/// campaigns are independent, so they fan out over [`par_trials`];
/// each replays the same pinned seed, so rows match the historical
/// serial output for every `ctx.jobs`.
pub fn e1_depth_sweep(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E1",
        "Fig. 1 — defense-in-depth: campaign outcomes vs defended layers",
        &["defended layers", "attack success", "detection"],
    );
    let mut postures = vec![DefensePosture::none()];
    let mut p = DefensePosture::none();
    for layer in ArchLayer::ALL {
        p.set(layer, true);
        postures.push(p);
    }
    let base = ctx.rng("e1-depth-sweep");
    let rows = par_trials(ctx.jobs, postures.len(), &base, |i, _rng| {
        let r = run_campaign(&postures[i], DEPTH_SWEEP_SEED);
        let s = score(&r);
        vec![
            postures[i].enabled_count().to_string(),
            format!("{:.0}%", s.attack_success_rate * 100.0),
            format!("{:.0}%", s.detection_rate * 100.0),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

/// E13 table: single-layer coverage versus the fused view.
///
/// Every posture replays the *same* campaign (one shared seed derived
/// from `ctx`) so rows differ only in the defense, not the attacks.
/// Postures are independent, so they fan out through [`par_trials`].
pub fn e13_synergy_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E13",
        "§VIII — IDS synergy: coverage per defended layer vs full stack",
        &[
            "posture",
            "attacks succeeded",
            "detected",
            "fused coverage",
            "synergy gain",
        ],
    );
    let mut postures = vec![("none".to_owned(), DefensePosture::none())];
    for layer in ArchLayer::ALL {
        postures.push((format!("only {layer}"), DefensePosture::only(layer)));
    }
    postures.push(("full stack".to_owned(), DefensePosture::full()));

    let base = ctx.rng("e13-campaign");
    let campaign_seed = base.master_seed();
    let rows = par_trials(ctx.jobs, postures.len(), &base, |i, _rng| {
        let (label, posture) = &postures[i];
        let r = run_campaign(posture, campaign_seed);
        let s = score(&r);
        vec![
            label.clone(),
            format!("{}/{}", r.succeeded_attacks(), r.total_attacks()),
            format!("{}/{}", r.detected_attacks(), r.total_attacks()),
            format!("{:.0}%", s.fused_coverage * 100.0),
            format!("{:+.0}pp", s.synergy_gain * 100.0),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synergy_table_full_stack_dominates() {
        let t = e13_synergy_table(&RunCtx::default());
        let full = t.rows.last().expect("nonempty");
        let full_detected: usize = full[2]
            .split('/')
            .next()
            .expect("a/b")
            .parse()
            .expect("number");
        for row in &t.rows[1..t.rows.len() - 1] {
            let detected: usize = row[2]
                .split('/')
                .next()
                .expect("a/b")
                .parse()
                .expect("number");
            assert!(
                detected < full_detected,
                "{} should detect less than the full stack",
                row[0]
            );
        }
    }

    #[test]
    fn depth_table_has_a_row_per_depth() {
        assert_eq!(
            e1_depth_sweep(&RunCtx::default()).rows.len(),
            ArchLayer::ALL.len() + 1
        );
    }

    #[test]
    fn depth_table_matches_core_sweep() {
        // The parallel table must reproduce the serial core sweep.
        let t = e1_depth_sweep(&RunCtx::new(42, 4));
        let core = autosec_core::assessment::depth_sweep(super::DEPTH_SWEEP_SEED);
        assert_eq!(t.rows.len(), core.len());
        for (row, p) in t.rows.iter().zip(core.iter()) {
            assert_eq!(row[0], p.defended_layers.to_string());
            assert_eq!(row[1], format!("{:.0}%", p.attack_success_rate * 100.0));
        }
    }
}
