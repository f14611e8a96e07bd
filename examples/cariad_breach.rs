//! The CARIAD telemetry breach (§V, Fig. 8), replayed against every
//! defense configuration.
//!
//! ```sh
//! cargo run --example cariad_breach
//! ```

use autosec::data::killchain::{Attacker, KillChainStage};
use autosec::data::service::{DefenseConfig, TelemetryBackend};
use autosec::sim::SimRng;

fn main() {
    println!("=== Fig. 8: CARIAD data-extraction kill chain ===\n");

    let configs: Vec<(&str, DefenseConfig)> = vec![
        ("none (the real incident)", DefenseConfig::none()),
        ("debug endpoints disabled", {
            let mut d = DefenseConfig::none();
            d.debug_endpoints_disabled = true;
            d
        }),
        ("secrets vaulted", {
            let mut d = DefenseConfig::none();
            d.secret_scanning = true;
            d
        }),
        ("scoped keys", {
            let mut d = DefenseConfig::none();
            d.scoped_keys = true;
            d
        }),
        ("detection only (rate+exfil)", {
            let mut d = DefenseConfig::none();
            d.rate_limiting = true;
            d.exfiltration_detection = true;
            d
        }),
        ("fully hardened", DefenseConfig::hardened()),
    ];

    // One scaled-down synthetic fleet; every configuration attacks the
    // same records.
    let mut rng = SimRng::seed(38);
    let fleet = TelemetryBackend::build(800_000 / 100, DefenseConfig::none(), &mut rng);
    for (label, cfg) in configs {
        let report = Attacker::new().execute(&fleet.with_defenses(cfg), &mut rng);

        print!("{label:<28} | chain: ");
        for stage in KillChainStage::ALL {
            let mark = if report.reached(stage) { "#" } else { "." };
            print!("{mark}");
        }
        println!(
            " | blocked at {:<22} | detected at {:<22} | {} records ({} sensitive)",
            report
                .blocked_at
                .map(|s| s.to_string())
                .unwrap_or_else(|| "- (full compromise)".into()),
            report
                .detected_at
                .map(|s| s.to_string())
                .unwrap_or_else(|| "- (never noticed)".into()),
            report.records_exfiltrated,
            report.sensitive_records,
        );
    }

    println!(
        "\nStages: {}",
        KillChainStage::ALL
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
}
