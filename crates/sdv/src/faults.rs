//! Software-platform fault-injection adapter for `autosec-faults`.
//!
//! [`PlatformFaultTarget`] applies compute-node crashes,
//! restart-with-failover, and update-rollback pushes to a small
//! zero-trust SDV platform (three nodes, four placed components):
//!
//! - [`FaultEffect::CrashNode`] — the node dies and nothing re-places
//!   its components; health is the fraction of placements that survive.
//! - [`FaultEffect::RestartNode`] — the node dies and
//!   [`SdvPlatform::fail_node`] re-places its components through the
//!   full mutual-authentication ceremony; only stranded components cost
//!   health.
//! - [`FaultEffect::RollbackUpdate`] — a signed-but-stale (downgrade)
//!   OTA package is pushed; a defended platform's [`UpdateManager`]
//!   rejects it, an undefended one installs the stale image.
//!
//! A rollback never builds the platform: no platform state reaches its
//! record. The platform's key-seed draws are made either way, so the
//! caller's stream ends in the same state with or without a node fault.

use autosec_sim::inject::{FaultEffect, FaultTarget, InjectionRecord};
use autosec_sim::{ArchLayer, SimRng};
use autosec_ssi::prelude::*;
use rand::RngCore;

use crate::component::{Asil, HardwareNode, SoftwareComponent};
use crate::platform::{SdvPlatform, WalletCapacities};
use crate::update::{UpdateManager, UpdatePackage};

const NODES: usize = 3;
const COMPONENTS: usize = 4;

/// Signatures the OEM wallet of the reference platform makes: one
/// credential per node and component it registers. After set-up only
/// placement attempts sign, one presentation from the component and one
/// from the node each; crashes and rollbacks sign nothing on the
/// platform, and restarting a node that is already gone signs nothing.
const OEM_SIGNATURES: usize = NODES + COMPONENTS;

/// Signatures a node wallet makes under `restarts` node restarts: at
/// most `⌈COMPONENTS/2⌉` first placements (round-robin over two nodes),
/// then at most one attempt per displaced component per restart.
const fn node_signatures(restarts: usize) -> usize {
    COMPONENTS.div_ceil(2) + restarts * COMPONENTS
}

/// Signatures a component wallet makes under `restarts` node restarts:
/// its first placement, then one attempt per surviving node each time
/// its host restarts.
const fn component_signatures(restarts: usize) -> usize {
    1 + restarts * (NODES - 1)
}

// The most a list of effects can ask for, every node restarted once, fits
// each role in one 16-lane lockstep batch of leaves. One restart, the
// `sdv-restart` injection, rounds up to 8 + 3 x 8 + 4 x 4 = 48 leaves.
const _: () = assert!(
    OEM_SIGNATURES <= 16 && node_signatures(NODES) <= 16 && component_signatures(NODES) <= 16
);

/// The capacities of the reference platform under the effects `active`.
fn platform_capacities(active: &[&FaultEffect]) -> WalletCapacities {
    let restarts = active
        .iter()
        .filter(|e| matches!(e, FaultEffect::RestartNode { .. }))
        .count()
        .min(NODES);
    WalletCapacities {
        oem: OEM_SIGNATURES,
        node: node_signatures(restarts),
        component: component_signatures(restarts),
    }
}

/// A small SDV platform under node-crash / restart / rollback faults.
#[derive(Debug, Clone, Default)]
pub struct PlatformFaultTarget;

fn component(i: usize) -> SoftwareComponent {
    SoftwareComponent {
        id: format!("svc-{i}"),
        vendor: "tier1".into(),
        version: (1, 2, 0),
        requires: vec!["can-if".into()],
        compute_cost: 20,
        asil: Asil::B,
    }
}

fn hw_node(i: usize) -> HardwareNode {
    HardwareNode {
        id: format!("hpc-{i}"),
        provides: vec!["can-if".into()],
        compute_capacity: 100,
        max_asil: Asil::D,
    }
}

/// Wallets [`build_platform`] creates: the OEM's, then one per node and
/// per component. Creating a wallet draws one 32-byte key seed;
/// registering, issuing and placing draw nothing.
const PLATFORM_WALLETS: usize = 1 + NODES + COMPONENTS;

/// Advances `rng` exactly as [`build_platform`] would, without building.
fn skip_platform(rng: &mut SimRng) {
    let mut seed = [0u8; 32];
    for _ in 0..PLATFORM_WALLETS {
        rng.fill_bytes(&mut seed);
    }
}

/// Builds the reference platform with components placed round-robin on
/// the first two nodes (the third is failover headroom).
fn build_platform(rng: &mut SimRng, capacities: WalletCapacities) -> SdvPlatform {
    let (mut platform, mut oem) = SdvPlatform::with_capacities(rng, capacities);
    for i in 0..NODES {
        platform
            .register_node(rng, hw_node(i), &mut oem)
            .expect("static node registers");
    }
    for i in 0..COMPONENTS {
        platform
            .register_component(rng, component(i), &mut oem)
            .expect("static component registers");
        platform
            .place(&format!("svc-{i}"), &format!("hpc-{}", i % 2))
            .expect("initial placement fits");
    }
    platform
}

/// Applies a downgrade OTA push; returns (health multiplier, rejected).
/// The vendor signs the package once; the target never signs.
fn rollback_round(defended: bool, rng: &mut SimRng) -> (f64, bool) {
    let registry = Registry::new();
    let mut vendor = Wallet::with_capacity(rng, "tier1", &registry, 1);
    registry.add_trust_anchor(vendor.did().clone(), "vendor-root");
    let target = Wallet::with_capacity(rng, "svc-0", &registry, 1);
    let mut comp = component(0);
    let pkg = UpdatePackage::build(
        &mut vendor,
        target.did().clone(),
        "svc-0",
        (1, 0, 0), // downgrade below the running 1.2.0
        b"stale image".to_vec(),
    )
    .expect("vendor signs the stale package");
    if defended {
        let rejected = UpdateManager::apply(&registry, &mut comp, &pkg).is_err();
        (1.0, rejected)
    } else {
        // Undefended manager skips version monotonicity: the stale,
        // vulnerable image is now running.
        comp.version = pkg.version;
        (0.5, false)
    }
}

impl FaultTarget for PlatformFaultTarget {
    fn layer(&self) -> ArchLayer {
        ArchLayer::SoftwarePlatform
    }

    fn name(&self) -> &'static str {
        "sdv-platform"
    }

    /// Only a node fault builds the platform, each wallet sized to the
    /// signatures its role makes under `effects`.
    fn apply(
        &mut self,
        effects: &[FaultEffect],
        defended: bool,
        rng: &mut SimRng,
    ) -> InjectionRecord {
        let active = active_effects(effects);
        if active.is_empty() {
            return InjectionRecord::clean(self.layer(), self.name());
        }
        let node_fault = active.iter().any(|e| {
            matches!(
                e,
                FaultEffect::CrashNode { .. } | FaultEffect::RestartNode { .. }
            )
        });
        let platform = if node_fault {
            Some(build_platform(rng, platform_capacities(&active)))
        } else {
            skip_platform(rng);
            None
        };
        self.run_effects(&active, platform, defended, rng)
    }
}

impl PlatformFaultTarget {
    /// Applies `active` in order; `platform` is `Some` whenever a node
    /// fault is among them.
    fn run_effects(
        &self,
        active: &[&FaultEffect],
        mut platform: Option<SdvPlatform>,
        defended: bool,
        rng: &mut SimRng,
    ) -> InjectionRecord {
        let mut health = 1.0f64;
        let mut detected = false;
        let mut notes = Vec::new();
        for e in active {
            match **e {
                FaultEffect::CrashNode { node } => {
                    let platform = platform.as_ref().expect("node faults build the platform");
                    let name = format!("hpc-{}", node % NODES);
                    let lost = platform
                        .placements()
                        .iter()
                        .filter(|p| p.node == name)
                        .count();
                    health *= 1.0 - lost as f64 / COMPONENTS as f64;
                    detected |= defended;
                    notes.push(format!("{name} crashed, {lost} components down"));
                }
                FaultEffect::RestartNode { node } => {
                    let platform = platform.as_mut().expect("node faults build the platform");
                    let name = format!("hpc-{}", node % NODES);
                    let stranded = platform.fail_node(&name).map_or(0, |s| s.len());
                    health *= 1.0 - stranded as f64 / COMPONENTS as f64;
                    detected |= defended;
                    notes.push(format!("{name} restarted, {stranded} stranded"));
                }
                FaultEffect::RollbackUpdate => {
                    let (mult, rejected) = rollback_round(defended, rng);
                    health *= mult;
                    detected |= rejected;
                    notes.push(if rejected {
                        "downgrade rejected".into()
                    } else {
                        "stale image installed".into()
                    });
                }
                _ => {}
            }
        }
        InjectionRecord {
            layer: self.layer(),
            target: self.name(),
            applied: true,
            health,
            detected,
            detail: notes.join("; "),
        }
    }
}

/// The software-platform effects that do something.
fn active_effects(effects: &[FaultEffect]) -> Vec<&FaultEffect> {
    effects
        .iter()
        .filter(|e| e.layer() == ArchLayer::SoftwarePlatform && !e.is_noop())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(effects: &[FaultEffect], defended: bool) -> InjectionRecord {
        let mut t = PlatformFaultTarget;
        let mut rng = SimRng::seed(2025).fork("sdv-fault");
        t.apply(effects, defended, &mut rng)
    }

    #[test]
    fn no_effects_is_clean() {
        let rec = apply(&[], true);
        assert_eq!(
            rec,
            InjectionRecord::clean(ArchLayer::SoftwarePlatform, "sdv-platform")
        );
    }

    #[test]
    fn crash_without_failover_loses_components() {
        let rec = apply(&[FaultEffect::CrashNode { node: 0 }], true);
        assert_eq!(rec.health, 0.5, "hpc-0 hosted 2 of 4 components");
        assert!(rec.detected);
    }

    #[test]
    fn restart_failover_recovers_everything() {
        // hpc-2 is empty headroom: fail_node re-places both components.
        let rec = apply(&[FaultEffect::RestartNode { node: 0 }], true);
        assert_eq!(rec.health, 1.0, "{}", rec.detail);
        assert!(rec.detected);
    }

    #[test]
    fn rollback_rejected_only_when_defended() {
        let def = apply(&[FaultEffect::RollbackUpdate], true);
        assert_eq!(def.health, 1.0);
        assert!(def.detected);
        let undef = apply(&[FaultEffect::RollbackUpdate], false);
        assert_eq!(undef.health, 0.5);
        assert!(!undef.detected);
    }

    /// Every node restarts (each restart re-places through the full
    /// ceremony), then a crash and a rollback: the most signatures one
    /// `apply` can make.
    fn worst_case() -> Vec<FaultEffect> {
        let mut worst: Vec<FaultEffect> = (0..NODES)
            .map(|node| FaultEffect::RestartNode { node })
            .collect();
        worst.extend([
            FaultEffect::CrashNode { node: 0 },
            FaultEffect::RollbackUpdate,
        ]);
        worst
    }

    #[test]
    fn sized_platform_matches_the_default_under_the_worst_case() {
        // The record must equal a 64-leaf platform's.
        for defended in [true, false] {
            let sized = apply(&worst_case(), defended);
            let mut rng = SimRng::seed(2025).fork("sdv-fault");
            assert_eq!(sized, apply_eager(&worst_case(), defended, &mut rng));
        }
    }

    #[test]
    fn role_capacities_follow_the_restarts() {
        let roles = |effects: &[FaultEffect]| {
            let c = platform_capacities(&active_effects(effects));
            (c.oem, c.node, c.component)
        };
        assert_eq!(roles(&[FaultEffect::CrashNode { node: 0 }]), (7, 2, 1));
        assert_eq!(roles(&[FaultEffect::RestartNode { node: 0 }]), (7, 6, 3));
        assert_eq!(roles(&worst_case()), (7, 14, 7));
        // A fourth restart hits a node already gone and signs nothing.
        let mut more = worst_case();
        more.push(FaultEffect::RestartNode { node: 1 });
        assert_eq!(roles(&more), (7, 14, 7));
    }

    /// The eager path: every active effect list builds the platform, with
    /// the default 64 leaves in every wallet.
    fn apply_eager(effects: &[FaultEffect], defended: bool, rng: &mut SimRng) -> InjectionRecord {
        let t = PlatformFaultTarget;
        let active = active_effects(effects);
        if active.is_empty() {
            return InjectionRecord::clean(t.layer(), t.name());
        }
        let platform = build_platform(rng, WalletCapacities::all(64));
        t.run_effects(&active, Some(platform), defended, rng)
    }

    #[test]
    fn rollback_only_skips_the_platform_but_not_its_draws() {
        let worst = worst_case();
        let lists: [&[FaultEffect]; 6] = [
            &[],
            &[FaultEffect::RollbackUpdate],
            &[FaultEffect::CrashNode { node: 0 }],
            &[FaultEffect::RestartNode { node: 0 }],
            &[
                FaultEffect::RestartNode { node: 1 },
                FaultEffect::RollbackUpdate,
            ],
            &worst,
        ];
        for seed in [1, 2, 3, 7, 11, 42] {
            for defended in [true, false] {
                for effects in lists {
                    let mut lazy = SimRng::seed(seed);
                    let mut eager = SimRng::seed(seed);
                    let got = PlatformFaultTarget.apply(effects, defended, &mut lazy);
                    let want = apply_eager(effects, defended, &mut eager);
                    assert_eq!(got, want, "seed {seed}, defended {defended}, {effects:?}");
                    let after =
                        |rng: &mut SimRng| -> Vec<u64> { (0..4).map(|_| rng.next_u64()).collect() };
                    assert_eq!(
                        after(&mut lazy),
                        after(&mut eager),
                        "stream after seed {seed}, defended {defended}, {effects:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_per_substream() {
        let a = apply(&[FaultEffect::RestartNode { node: 1 }], true);
        let b = apply(&[FaultEffect::RestartNode { node: 1 }], true);
        assert_eq!(a, b);
    }
}
