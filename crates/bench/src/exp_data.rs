//! E9: the Fig. 8 kill chain versus defense configuration, plus the
//! attack-surface growth curve of §V-B3.

use autosec_data::killchain::{Attacker, KillChainReport, KillChainStage};
use autosec_data::service::{DefenseConfig, TelemetryBackend};
use autosec_data::surface::SurfaceInventory;
use autosec_runner::{par_trials, RunCtx};
use autosec_sim::SimRng;

use crate::Table;

/// Seed of the E9 fleet build — pinned so the published table stays
/// byte-stable across harness changes.
const KILLCHAIN_SEED: u64 = 38;

/// Records in the E9 fleet.
const KILLCHAIN_RECORDS: usize = 5000;

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
/// The 5000-record fleet is one pinned-seed build that every defense
/// configuration attacks through [`TelemetryBackend::with_defenses`]:
/// the records and the stream after the build are the same for every
/// row, only the routes and the defense toggles differ. The six rows fan
/// out over [`par_trials`] and match the historical serial output for
/// every `ctx.jobs`.
pub fn e9_killchain_table(ctx: &RunCtx) -> Table {
    let matrix = defense_matrix();
    let mut rng = SimRng::seed(KILLCHAIN_SEED);
    let fleet = TelemetryBackend::build(KILLCHAIN_RECORDS, DefenseConfig::none(), &mut rng);
    let rows = par_trials(
        ctx.jobs,
        matrix.len(),
        &ctx.rng("e9-killchain"),
        |i, _rng| {
            let (label, cfg) = matrix[i];
            let report = Attacker::new().execute(&fleet.with_defenses(cfg), &mut rng.clone());
            killchain_row(label, &report)
        },
    );
    killchain_table(rows)
}

fn killchain_table(rows: Vec<Vec<String>>) -> Table {
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
    for row in rows {
        t.push_row(row);
    }
    t
}

fn killchain_row(label: &str, r: &KillChainReport) -> Vec<String> {
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

    /// The per-row build the shared fleet replaces: each configuration
    /// builds its own backend from the pinned seed.
    fn rebuilt_killchain_table(ctx: &RunCtx) -> Table {
        let matrix = defense_matrix();
        let rows = par_trials(
            ctx.jobs,
            matrix.len(),
            &ctx.rng("e9-killchain"),
            |i, _rng| {
                let (label, cfg) = matrix[i];
                let mut rng = SimRng::seed(KILLCHAIN_SEED);
                let backend = TelemetryBackend::build(KILLCHAIN_RECORDS, cfg, &mut rng);
                killchain_row(label, &Attacker::new().execute(&backend, &mut rng))
            },
        );
        killchain_table(rows)
    }

    #[test]
    fn shared_fleet_rows_match_a_build_per_row() {
        for jobs in [1, 4] {
            let ctx = RunCtx::new(42, jobs);
            let shared = e9_killchain_table(&ctx);
            assert_eq!(shared.rows.len(), defense_matrix().len());
            assert_eq!(shared, rebuilt_killchain_table(&ctx), "jobs {jobs}");
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
