//! E8 / E8b: SDV reconfiguration and the plug-and-charge comparison
//! (Fig. 7 and §IV-C).

use autosec_runner::{par_trials, RunCtx};
use autosec_sdv::charging::{iso15118_flow, ssi_flow};
use autosec_sdv::component::{Asil, HardwareNode, SoftwareComponent};
use autosec_sdv::platform::{SdvPlatform, WalletCapacities};
use autosec_sdv::SdvError;
use autosec_sim::SimRng;
use autosec_ssi::prelude::*;

use crate::Table;

/// Outcome of the reconfiguration experiment for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Components successfully placed.
    pub placed: usize,
    /// Rogue placements rejected.
    pub rogue_rejected: usize,
    /// Components re-placed after a node failure.
    pub failover_recovered: usize,
    /// Mutual-authentication operations performed.
    pub auth_ops: usize,
}

/// Runs the reconfiguration scenario: register nodes & components,
/// attempt one rogue placement, fail a node, re-place. All randomness
/// comes from the caller-supplied substream.
pub fn reconfiguration_run(n_components: usize, rng: &mut SimRng) -> ReconfigOutcome {
    // Each wallet is sized to the signatures its role makes: the OEM
    // issues n + 2 credentials; hpc-0 signs n presentations (the rogue
    // attempt fails on the component side before the node signs) and
    // hpc-1 n on failover; each component signs 2. The rogue vendor
    // issues one credential.
    let capacities = WalletCapacities {
        oem: n_components + 2,
        node: n_components,
        component: 2,
    };
    reconfiguration_sized(n_components, rng, capacities, 1)
}

/// [`reconfiguration_run`] with platform wallets of `capacities` and a
/// rogue vendor that makes `rogue_signatures`.
fn reconfiguration_sized(
    n_components: usize,
    rng: &mut SimRng,
    capacities: WalletCapacities,
    rogue_signatures: usize,
) -> ReconfigOutcome {
    let (mut platform, mut oem) = SdvPlatform::with_capacities(rng, capacities);
    for id in ["hpc-0", "hpc-1"] {
        platform
            .register_node(
                rng,
                HardwareNode {
                    id: id.into(),
                    provides: vec!["can-if".into()],
                    compute_capacity: 1000,
                    max_asil: Asil::D,
                },
                &mut oem,
            )
            .expect("node registration");
    }
    let mut placed = 0;
    for i in 0..n_components {
        let id = format!("svc-{i}");
        platform
            .register_component(
                rng,
                SoftwareComponent {
                    id: id.clone(),
                    vendor: "oem".into(),
                    version: (1, 0, 0),
                    requires: vec!["can-if".into()],
                    compute_cost: 5,
                    asil: Asil::B,
                },
                &mut oem,
            )
            .expect("component registration");
        if platform.place(&id, "hpc-0").is_ok() {
            placed += 1;
        }
    }

    // Rogue attempt.
    let mut rogue = Wallet::with_capacity(rng, "rogue", platform.registry(), rogue_signatures);
    platform
        .register_component(
            rng,
            SoftwareComponent {
                id: "implant".into(),
                vendor: "rogue".into(),
                version: (1, 0, 0),
                requires: vec!["can-if".into()],
                compute_cost: 1,
                asil: Asil::Qm,
            },
            &mut rogue,
        )
        .expect("registration is open");
    let rogue_rejected = usize::from(matches!(
        platform.place("implant", "hpc-0"),
        Err(SdvError::AuthFailed(_))
    ));

    // Failover.
    let stranded = platform.fail_node("hpc-0").expect("known node");
    ReconfigOutcome {
        placed,
        rogue_rejected,
        failover_recovered: placed - stranded.len(),
        auth_ops: platform.auth_operations,
    }
}

/// E8 table: each fleet size runs as an independent [`par_trials`]
/// trial on its own `fork_idx` substream.
pub fn e8_reconfiguration_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E8",
        "Fig. 7 — zero-trust SDV reconfiguration",
        &[
            "components",
            "placed",
            "rogue rejected",
            "failover recovered",
            "auth ops",
        ],
    );
    const SIZES: [usize; 3] = [2, 5, 10];
    let base = ctx.rng("e8-reconfiguration");
    let outcomes = par_trials(ctx.jobs, SIZES.len(), &base, |i, mut rng| {
        reconfiguration_run(SIZES[i], &mut rng)
    });
    for (n, r) in SIZES.iter().zip(outcomes.iter()) {
        t.push_row(vec![
            n.to_string(),
            r.placed.to_string(),
            if r.rogue_rejected == 1 { "yes" } else { "NO" }.into(),
            format!("{}/{}", r.failover_recovered, r.placed),
            r.auth_ops.to_string(),
        ]);
    }
    t
}

/// E8b table: charging flows.
pub fn e8b_charging_table() -> Table {
    let mut t = Table::new(
        "E8b",
        "§IV-C — plug-and-charge: ISO-15118-style PKI vs SSI",
        &[
            "flow",
            "messages",
            "verifications",
            "station roots",
            "offline",
            "authorized",
        ],
    );
    let mut rng = SimRng::seed(15118);
    for n_emsp in [1usize, 4, 16] {
        let r = iso15118_flow(&mut rng, n_emsp).expect("flow completes");
        t.push_row(vec![
            format!("ISO 15118 ({n_emsp} eMSPs)"),
            r.messages.to_string(),
            r.signature_verifications.to_string(),
            r.station_trust_roots.to_string(),
            r.supports_offline.to_string(),
            r.authorized.to_string(),
        ]);
    }
    for (label, offline) in [("SSI online", false), ("SSI offline", true)] {
        let r = ssi_flow(&mut rng, offline).expect("flow completes");
        t.push_row(vec![
            label.to_owned(),
            r.messages.to_string(),
            r.signature_verifications.to_string(),
            r.station_trust_roots.to_string(),
            r.supports_offline.to_string(),
            r.authorized.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfiguration_recovers_and_rejects() {
        let r = reconfiguration_run(3, &mut SimRng::seed(1));
        assert_eq!(r.placed, 3);
        assert_eq!(r.rogue_rejected, 1);
        assert_eq!(r.failover_recovered, 3);
        assert!(r.auth_ops >= 12, "{}", r.auth_ops); // 2 per placement incl. failover
    }

    #[test]
    fn sized_reconfiguration_matches_the_default() {
        for n in [1, 2, 5, 6, 10, 14, 16] {
            let sized = reconfiguration_run(n, &mut SimRng::seed(8).fork_idx(n as u64));
            let rng = &mut SimRng::seed(8).fork_idx(n as u64);
            let full = reconfiguration_sized(n, rng, WalletCapacities::all(64), 64);
            assert_eq!(sized, full, "{n} components");
        }
    }

    #[test]
    fn charging_table_has_five_rows() {
        let t = e8b_charging_table();
        assert_eq!(t.rows.len(), 5);
    }
}
