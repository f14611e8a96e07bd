//! E9: the Fig. 8 kill chain versus defense configuration, plus the
//! attack-surface growth curve of §V-B3.

use autosec_data::killchain::{Attacker, KillChainStage};
use autosec_data::service::{DefenseConfig, TelemetryBackend};
use autosec_data::surface::SurfaceInventory;
use autosec_runner::{par_trials, RunCtx};
use autosec_sim::SimRng;

use crate::Table;

/// Seed every E9 kill-chain configuration replays — pinned so the
/// published table stays byte-stable across harness changes.
const KILLCHAIN_SEED: u64 = 38;

/// The defense configurations E9 sweeps, labelled.
pub fn defense_matrix() -> Vec<(&'static str, DefenseConfig)> {
    let mut out: Vec<(&'static str, DefenseConfig)> = vec![("none", DefenseConfig::none())];
    let mut d = DefenseConfig::none();
    d.debug_endpoints_disabled = true;
    out.push(("no-debug-endpoints", d));
    let mut d = DefenseConfig::none();
    d.secret_scanning = true;
    out.push(("vaulted-secrets", d));
    let mut d = DefenseConfig::none();
    d.scoped_keys = true;
    out.push(("scoped-keys", d));
    let mut d = DefenseConfig::none();
    d.rate_limiting = true;
    d.exfiltration_detection = true;
    out.push(("detection-only", d));
    out.push(("hardened", DefenseConfig::hardened()));
    out
}

/// E9 main table.
///
/// Each defense configuration replays the same pinned-seed kill chain
/// independently, so the six runs fan out over [`par_trials`] and the
/// rows match the historical serial output for every `ctx.jobs`.
pub fn e9_killchain_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E9",
        "Fig. 8 — CARIAD kill chain vs defense configuration",
        &[
            "defense",
            "stages done",
            "blocked at",
            "detected at",
            "records lost",
        ],
    );
    let matrix = defense_matrix();
    let base = ctx.rng("e9-killchain");
    let rows = par_trials(ctx.jobs, matrix.len(), &base, |i, _rng| {
        let (label, cfg) = matrix[i];
        let mut rng = SimRng::seed(KILLCHAIN_SEED);
        let backend = TelemetryBackend::build(5000, cfg, &mut rng);
        let r = Attacker::new().execute(&backend, &mut rng);
        vec![
            label.to_owned(),
            format!("{}/{}", r.completed.len(), KillChainStage::ALL.len()),
            r.blocked_at
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            r.detected_at
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            r.records_exfiltrated.to_string(),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

/// E9 companion: attack-surface score versus connected cloud services,
/// and the §V-C minimization payoff.
pub fn e9_surface_table() -> Table {
    let mut t = Table::new(
        "E9",
        "§V-B3/§V-C — attack surface vs connected services, and minimization",
        &[
            "cloud services",
            "interfaces",
            "surface score",
            "after minimization",
        ],
    );
    for n in [0usize, 2, 5, 10, 20] {
        let inv = SurfaceInventory::connected_vehicle(n);
        let min = inv.minimized();
        t.push_row(vec![
            n.to_string(),
            inv.len().to_string(),
            format!("{:.1}", inv.score()),
            format!("{:.1}", min.score()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_undefended_and_detection_only_lose_records() {
        let t = e9_killchain_table(&RunCtx::default());
        for row in &t.rows {
            let lost: usize = row[4].parse().expect("number");
            match row[0].as_str() {
                "none" | "detection-only" => assert!(lost > 0, "{row:?}"),
                _ => assert_eq!(lost, 0, "{row:?}"),
            }
        }
    }

    #[test]
    fn surface_grows_then_shrinks_with_minimization() {
        let t = e9_surface_table();
        let first: f64 = t.rows[0][2].parse().expect("number");
        let last: f64 = t.rows[4][2].parse().expect("number");
        assert!(last > first * 2.0);
        for row in &t.rows {
            let full: f64 = row[2].parse().expect("number");
            let min: f64 = row[3].parse().expect("number");
            assert!(min <= full);
        }
    }
}
