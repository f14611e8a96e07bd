//! Software-platform fault-injection adapter for `autosec-faults`.
//!
//! [`PlatformFaultTarget`] applies compute-node crashes,
//! restart-with-failover, and update-rollback pushes to a small
//! zero-trust SDV platform (three nodes, four placed components):
//!
//! - [`FaultEffect::CrashNode`] — the node dies and nothing re-places
//!   its components; health is the fraction of placements that survive.
//! - [`FaultEffect::RestartNode`] — the node dies and its components are
//!   re-placed by the platform's placement rule, the one
//!   [`SdvPlatform::fail_node`] runs behind the mutual-authentication
//!   ceremony; only stranded components cost health.
//! - [`FaultEffect::RollbackUpdate`] — a signed-but-stale (downgrade)
//!   OTA package is pushed; a defended platform's [`UpdateManager`]
//!   rejects it, an undefended one installs the stale image.
//!
//! The fault target places without keys. Its platform's wallets are
//! honest and hold every signature the effects can ask for, so every
//! presentation of the ceremony verifies and the outcome depends only
//! on compatibility and capacity: the rule alone gives the same record.
//! The platform's eight key-seed draws are still made, so the caller's
//! stream ends where a keyed build would leave it. The keyed platform
//! is kept in the tests as the reference (E8 and E8b still run the
//! full ceremony).
//!
//! [`SdvPlatform::fail_node`]: crate::platform::SdvPlatform::fail_node

use autosec_sim::inject::{FaultEffect, FaultTarget, InjectionRecord};
use autosec_sim::{ArchLayer, SimRng};
use autosec_ssi::prelude::*;
use rand::RngCore;

use crate::component::{Asil, HardwareNode, SoftwareComponent};
use crate::platform::{Deployment, Placement};
use crate::update::{UpdateManager, UpdatePackage};
use crate::SdvError;

const NODES: usize = 3;
const COMPONENTS: usize = 4;

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

/// Wallets the keyed platform creates: the OEM's, then one per node and
/// per component. Creating a wallet draws one 32-byte key seed;
/// registering, issuing and placing draw nothing.
const PLATFORM_WALLETS: usize = 1 + NODES + COMPONENTS;

/// Advances `rng` exactly as building the keyed platform would.
fn skip_platform(rng: &mut SimRng) {
    let mut seed = [0u8; 32];
    for _ in 0..PLATFORM_WALLETS {
        rng.fill_bytes(&mut seed);
    }
}

/// Admits every pair: the ceremony's outcome on honest wallets that
/// hold enough signatures.
fn no_keys(_component: &str, _node: &str) -> Result<(), SdvError> {
    Ok(())
}

/// The reference platform's placements: components round-robin on the
/// first two nodes (the third is failover headroom).
fn reference_deployment() -> Deployment {
    let mut deployment = Deployment::default();
    for i in 0..NODES {
        deployment.add_node(hw_node(i));
    }
    for i in 0..COMPONENTS {
        deployment.add_component(component(i));
        deployment
            .place(&format!("svc-{i}"), &format!("hpc-{}", i % 2), &mut no_keys)
            .expect("initial placement fits");
    }
    deployment
}

/// What the effect loop reads of a platform and does to it: the keyless
/// [`Deployment`] here, the keyed platform in the tests' reference.
trait NodeFaults {
    fn placements(&self) -> &[Placement];
    /// Fails `node` and re-places its components; returns how many are
    /// stranded.
    fn restart(&mut self, node: &str) -> usize;
}

impl NodeFaults for Deployment {
    fn placements(&self) -> &[Placement] {
        Deployment::placements(self)
    }

    fn restart(&mut self, node: &str) -> usize {
        self.fail_node(node, &mut no_keys).map_or(0, |s| s.len())
    }
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

    /// Draws the keyed platform's key seeds, then runs `effects` on its
    /// placements without keys.
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
        skip_platform(rng);
        self.run_effects(&active, reference_deployment(), defended, rng)
    }
}

impl PlatformFaultTarget {
    /// Applies `active` in order to `platform`.
    fn run_effects(
        &self,
        active: &[&FaultEffect],
        mut platform: impl NodeFaults,
        defended: bool,
        rng: &mut SimRng,
    ) -> InjectionRecord {
        let mut health = 1.0f64;
        let mut detected = false;
        let mut notes = Vec::new();
        for e in active {
            match **e {
                FaultEffect::CrashNode { node } => {
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
                    let name = format!("hpc-{}", node % NODES);
                    let stranded = platform.restart(&name);
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
    use crate::platform::{SdvPlatform, WalletCapacities};

    fn apply(effects: &[FaultEffect], defended: bool) -> InjectionRecord {
        let mut t = PlatformFaultTarget;
        let mut rng = SimRng::seed(2025).fork("sdv-fault");
        t.apply(effects, defended, &mut rng)
    }

    // The keyed reference: the platform with its wallets, credentials and
    // the full ceremony, each wallet sized to the signatures its role
    // makes under the effects.

    /// Signatures the OEM wallet of the keyed platform makes: one
    /// credential per node and component it registers. After set-up only
    /// placement attempts sign, one presentation from the component and
    /// one from the node each; crashes and rollbacks sign nothing on the
    /// platform, and restarting a node that is already gone signs nothing.
    const OEM_SIGNATURES: usize = NODES + COMPONENTS;

    /// Signatures a node wallet makes under `restarts` node restarts: at
    /// most `⌈COMPONENTS/2⌉` first placements (round-robin over two
    /// nodes), then at most one attempt per displaced component per
    /// restart.
    const fn node_signatures(restarts: usize) -> usize {
        COMPONENTS.div_ceil(2) + restarts * COMPONENTS
    }

    /// Signatures a component wallet makes under `restarts` node
    /// restarts: its first placement, then one attempt per surviving
    /// node each time its host restarts.
    const fn component_signatures(restarts: usize) -> usize {
        1 + restarts * (NODES - 1)
    }

    // The most a list of effects can ask for, every node restarted once,
    // fits each role in one 16-lane lockstep batch of leaves.
    const _: () = assert!(
        OEM_SIGNATURES <= 16 && node_signatures(NODES) <= 16 && component_signatures(NODES) <= 16
    );

    /// The capacities of the keyed platform under the effects `active`.
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

    /// Builds the keyed platform with the reference placements.
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

    impl NodeFaults for SdvPlatform {
        fn placements(&self) -> &[Placement] {
            SdvPlatform::placements(self)
        }

        fn restart(&mut self, node: &str) -> usize {
            self.fail_node(node).map_or(0, |s| s.len())
        }
    }

    /// `apply` on the keyed platform, built for every active effect list
    /// with the wallet capacities `capacities` gives the list.
    fn apply_keyed(
        effects: &[FaultEffect],
        defended: bool,
        rng: &mut SimRng,
        capacities: fn(&[&FaultEffect]) -> WalletCapacities,
    ) -> InjectionRecord {
        let t = PlatformFaultTarget;
        let active = active_effects(effects);
        if active.is_empty() {
            return InjectionRecord::clean(t.layer(), t.name());
        }
        let platform = build_platform(rng, capacities(&active));
        t.run_effects(&active, platform, defended, rng)
    }

    /// The keyed platform with the default 64 leaves in every wallet.
    fn apply_eager(effects: &[FaultEffect], defended: bool, rng: &mut SimRng) -> InjectionRecord {
        apply_keyed(effects, defended, rng, |_| WalletCapacities::all(64))
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

    /// Every node restarts (on the keyed platform each restart re-places
    /// through the full ceremony), then a crash and a rollback: the most
    /// signatures one list of effects can make.
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
        // The sized platform's record must equal a 64-leaf platform's.
        for defended in [true, false] {
            let mut rng = SimRng::seed(2025).fork("sdv-fault");
            let sized = apply_keyed(&worst_case(), defended, &mut rng, platform_capacities);
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
    fn keyless_placement_matches_the_keyed_reference() {
        // Every list of up to two platform effects: the record and the
        // next draw equal the sized keyed platform's.
        let singles: Vec<FaultEffect> = (0..NODES)
            .flat_map(|node| {
                [
                    FaultEffect::CrashNode { node },
                    FaultEffect::RestartNode { node },
                ]
            })
            .chain([FaultEffect::RollbackUpdate])
            .collect();
        let mut lists: Vec<Vec<FaultEffect>> = vec![Vec::new()];
        for a in &singles {
            lists.push(vec![*a]);
            for b in &singles {
                lists.push(vec![*a, *b]);
            }
        }
        assert_eq!(lists.len(), 1 + 7 + 7 * 7);
        for seed in [3, 7, 42] {
            for defended in [true, false] {
                for effects in &lists {
                    let mut keyless = SimRng::seed(seed);
                    let mut keyed = SimRng::seed(seed);
                    let got = PlatformFaultTarget.apply(effects, defended, &mut keyless);
                    let want = apply_keyed(effects, defended, &mut keyed, platform_capacities);
                    let at = format!("seed {seed}, defended {defended}, {effects:?}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(keyless.next_u64(), keyed.next_u64(), "stream after {at}");
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
