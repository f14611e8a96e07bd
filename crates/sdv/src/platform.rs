//! The zero-trust SDV reconfiguration engine (§IV-A, paper ref \[29\]).
//!
//! Placement of a software component onto a hardware node requires
//! **mutual authentication**: the component presents its vendor-issued
//! credential; the node presents its platform-integration credential.
//! Both must chain to trust anchors in the shared registry. Then (and
//! only then) compatibility and capacity are committed.
//!
//! The failover flow the paper describes — "if some control unit fails,
//! software may have to be placed on other components" — is
//! [`SdvPlatform::fail_node`], which re-places every hosted component
//! with the full authentication ceremony.
//!
//! The placement rule itself (compatibility, capacity, re-placement in
//! node-id order) lives apart from the keys, in `Deployment`; the
//! ceremony is the gate the platform passes it. The fault target runs
//! the same rule without keys (see [`crate::faults`]).

use std::collections::HashMap;

use autosec_sim::SimRng;
use autosec_ssi::prelude::*;
use autosec_ssi::wallet::DEFAULT_KEY_HEIGHT;

use crate::component::{compatibility, HardwareNode, SoftwareComponent};
use crate::SdvError;

/// A placement decision record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Component id.
    pub component: String,
    /// Hosting node id.
    pub node: String,
}

/// Signatures each wallet a platform creates can make, by role, each
/// rounded up as [`Wallet::with_capacity`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalletCapacities {
    /// The OEM integrator: one credential per registration it issues.
    pub oem: usize,
    /// Each node: one presentation per placement attempt that reaches
    /// its side of the ceremony.
    pub node: usize,
    /// Each component: one presentation per placement attempt.
    pub component: usize,
}

impl WalletCapacities {
    /// `signatures` for every role.
    pub const fn all(signatures: usize) -> Self {
        Self {
            oem: signatures,
            node: signatures,
            component: signatures,
        }
    }
}

/// The components and nodes a platform knows, where each component
/// runs, and the placement rule that moves them, without the credential
/// ceremony that gates it. [`SdvPlatform`] runs the ceremony as the
/// `gate` of every placement attempt; the fault target runs the rule
/// with a gate that always lets the pair through.
#[derive(Debug, Default)]
pub(crate) struct Deployment {
    components: HashMap<String, SoftwareComponent>,
    nodes: HashMap<String, HardwareNode>,
    placements: Vec<Placement>,
    used_capacity: HashMap<String, u32>,
}

impl Deployment {
    pub(crate) fn add_node(&mut self, node: HardwareNode) {
        self.used_capacity.insert(node.id.clone(), 0);
        self.nodes.insert(node.id.clone(), node);
    }

    pub(crate) fn add_component(&mut self, component: SoftwareComponent) {
        self.components.insert(component.id.clone(), component);
    }

    pub(crate) fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Deploys `component` onto `node` once `gate` admits the pair:
    /// both must be known, then the gate runs, then compatibility and
    /// capacity are checked and committed.
    pub(crate) fn place<G>(
        &mut self,
        component: &str,
        node: &str,
        gate: &mut G,
    ) -> Result<(), SdvError>
    where
        G: FnMut(&str, &str) -> Result<(), SdvError>,
    {
        let comp = self
            .components
            .get(component)
            .ok_or_else(|| SdvError::NotFound(format!("component {component}")))?;
        let hw = self
            .nodes
            .get(node)
            .ok_or_else(|| SdvError::NotFound(format!("node {node}")))?;

        gate(component, node)?;
        compatibility(comp, hw).map_err(SdvError::Incompatible)?;
        let cost = comp.compute_cost;
        let used = self.used_capacity.get(node).copied().unwrap_or(0);
        if used + cost > hw.compute_capacity {
            return Err(SdvError::NoCapacity);
        }
        // Displace any previous placement of the component.
        self.remove_placement(component);
        self.used_capacity.insert(node.to_owned(), used + cost);
        self.placements.push(Placement {
            component: component.to_owned(),
            node: node.to_owned(),
        });
        Ok(())
    }

    fn remove_placement(&mut self, component: &str) {
        if let Some(pos) = self
            .placements
            .iter()
            .position(|p| p.component == component)
        {
            let old = self.placements.remove(pos);
            if let Some(comp) = self.components.get(component) {
                if let Some(u) = self.used_capacity.get_mut(&old.node) {
                    *u = u.saturating_sub(comp.compute_cost);
                }
            }
        }
    }

    /// Fails a node: every component it hosted is re-placed onto the
    /// first node, in id order, that [`Deployment::place`] accepts
    /// through `gate`. Returns components that could not be re-placed.
    pub(crate) fn fail_node<G>(&mut self, node: &str, gate: &mut G) -> Result<Vec<String>, SdvError>
    where
        G: FnMut(&str, &str) -> Result<(), SdvError>,
    {
        if !self.nodes.contains_key(node) {
            return Err(SdvError::NotFound(format!("node {node}")));
        }
        let displaced: Vec<String> = self
            .placements
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.component.clone())
            .collect();
        for c in &displaced {
            self.remove_placement(c);
        }
        self.nodes.remove(node);
        self.used_capacity.remove(node);

        let mut stranded = Vec::new();
        // Sorted, so the placements and the signatures each node wallet
        // spends do not depend on this process's hash seed.
        let mut candidate_nodes: Vec<String> = self.nodes.keys().cloned().collect();
        candidate_nodes.sort_unstable();
        for comp in displaced {
            if !candidate_nodes
                .iter()
                .any(|n| self.place(&comp, n, gate).is_ok())
            {
                stranded.push(comp);
            }
        }
        Ok(stranded)
    }
}

/// The key material of the mutual-authentication ceremony.
struct Trust {
    registry: Registry,
    /// Wallet per component (held by the component's vendor stack).
    component_wallets: HashMap<String, Wallet>,
    /// Wallet per node.
    node_wallets: HashMap<String, Wallet>,
    /// Vendor credentials per component.
    component_credentials: HashMap<String, VerifiableCredential>,
    /// Platform credentials per node.
    node_credentials: HashMap<String, VerifiableCredential>,
}

impl Trust {
    /// Mutual authentication between a component and a node: each side
    /// verifies the other's presentation against the registry and trust
    /// anchors. Each verification that passes adds one to `auths`.
    fn mutual_auth(
        &mut self,
        component: &str,
        node: &str,
        auths: &mut usize,
    ) -> Result<(), SdvError> {
        let comp_cred = self
            .component_credentials
            .get(component)
            .ok_or_else(|| SdvError::NotFound(format!("component credential {component}")))?
            .clone();
        let node_cred = self
            .node_credentials
            .get(node)
            .ok_or_else(|| SdvError::NotFound(format!("node credential {node}")))?
            .clone();

        // Node challenges the component.
        let challenge_n = b"node-challenge";
        let comp_wallet = self
            .component_wallets
            .get_mut(component)
            .ok_or_else(|| SdvError::NotFound(format!("component wallet {component}")))?;
        let vp = VerifiablePresentation::create(comp_wallet, vec![comp_cred], challenge_n)
            .map_err(|e| SdvError::AuthFailed(e.to_string()))?;
        vp.verify(&self.registry, challenge_n, 0)
            .map_err(|e| SdvError::AuthFailed(format!("component side: {e}")))?;
        *auths += 1;

        // Component challenges the node.
        let challenge_c = b"component-challenge";
        let node_wallet = self
            .node_wallets
            .get_mut(node)
            .ok_or_else(|| SdvError::NotFound(format!("node wallet {node}")))?;
        let vp = VerifiablePresentation::create(node_wallet, vec![node_cred], challenge_c)
            .map_err(|e| SdvError::AuthFailed(e.to_string()))?;
        vp.verify(&self.registry, challenge_c, 0)
            .map_err(|e| SdvError::AuthFailed(format!("node side: {e}")))?;
        *auths += 1;
        Ok(())
    }
}

/// The vehicle's software/hardware platform with its trust fabric.
pub struct SdvPlatform {
    trust: Trust,
    deployment: Deployment,
    /// Signatures each node and component wallet created later can make.
    capacities: WalletCapacities,
    /// Count of signature verifications performed (for E8 accounting).
    pub auth_operations: usize,
}

impl std::fmt::Debug for SdvPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdvPlatform")
            .field("components", &self.deployment.components.len())
            .field("nodes", &self.deployment.nodes.len())
            .field("placements", &self.deployment.placements.len())
            .finish_non_exhaustive()
    }
}

impl SdvPlatform {
    /// Creates a platform whose trust registry has one OEM anchor.
    /// Returns the platform and the OEM wallet (the integrator who signs
    /// node and vendor credentials). Every wallet it creates holds the
    /// default 64 leaves.
    pub fn new(rng: &mut SimRng) -> (Self, Wallet) {
        Self::with_capacities(rng, WalletCapacities::all(1 << DEFAULT_KEY_HEIGHT))
    }

    /// [`SdvPlatform::new`] for a short-lived platform: the OEM wallet,
    /// and every node and component wallet registered later, can make
    /// the signatures `capacities` gives its role. Every wallet draws the
    /// same 32-byte key seed whatever its capacity.
    pub fn with_capacities(rng: &mut SimRng, capacities: WalletCapacities) -> (Self, Wallet) {
        let registry = Registry::new();
        let oem = Wallet::with_capacity(rng, "oem-integrator", &registry, capacities.oem);
        registry.add_trust_anchor(oem.did().clone(), "OEM");
        (
            Self {
                trust: Trust {
                    registry,
                    component_wallets: HashMap::new(),
                    node_wallets: HashMap::new(),
                    component_credentials: HashMap::new(),
                    node_credentials: HashMap::new(),
                },
                deployment: Deployment::default(),
                capacities,
                auth_operations: 0,
            },
            oem,
        )
    }

    /// The shared trust registry.
    pub fn registry(&self) -> &Registry {
        &self.trust.registry
    }

    /// Registers a hardware node, credentialed by `issuer` (normally the
    /// OEM anchor).
    ///
    /// # Errors
    ///
    /// Propagates wallet/credential failures.
    pub fn register_node(
        &mut self,
        rng: &mut SimRng,
        node: HardwareNode,
        issuer: &mut Wallet,
    ) -> Result<(), SdvError> {
        let trust = &mut self.trust;
        let wallet = Wallet::with_capacity(rng, &node.id, &trust.registry, self.capacities.node);
        let cred = issuer
            .issue(
                wallet.did().clone(),
                serde_json::json!({"type": "platform-node", "id": (&node.id)}),
                None,
            )
            .map_err(|e| SdvError::AuthFailed(e.to_string()))?;
        trust.node_credentials.insert(node.id.clone(), cred);
        trust.node_wallets.insert(node.id.clone(), wallet);
        self.deployment.add_node(node);
        Ok(())
    }

    /// Registers a software component, credentialed by `vendor_issuer`.
    ///
    /// # Errors
    ///
    /// Propagates wallet/credential failures.
    pub fn register_component(
        &mut self,
        rng: &mut SimRng,
        component: SoftwareComponent,
        vendor_issuer: &mut Wallet,
    ) -> Result<(), SdvError> {
        let trust = &mut self.trust;
        let signatures = self.capacities.component;
        let wallet = Wallet::with_capacity(rng, &component.id, &trust.registry, signatures);
        let cred = vendor_issuer
            .issue(
                wallet.did().clone(),
                serde_json::json!({
                    "type": "software-release",
                    "id": (&component.id),
                    "version": component.version_string(),
                }),
                None,
            )
            .map_err(|e| SdvError::AuthFailed(e.to_string()))?;
        trust
            .component_credentials
            .insert(component.id.clone(), cred);
        trust.component_wallets.insert(component.id.clone(), wallet);
        self.deployment.add_component(component);
        Ok(())
    }

    /// Current placements.
    pub fn placements(&self) -> &[Placement] {
        self.deployment.placements()
    }

    /// Node hosting `component`, if deployed.
    pub fn host_of(&self, component: &str) -> Option<&str> {
        self.placements()
            .iter()
            .find(|p| p.component == component)
            .map(|p| p.node.as_str())
    }

    /// Deploys `component` onto `node` with the full zero-trust ceremony.
    ///
    /// # Errors
    ///
    /// [`SdvError::NotFound`], [`SdvError::AuthFailed`],
    /// [`SdvError::Incompatible`], or [`SdvError::NoCapacity`].
    pub fn place(&mut self, component: &str, node: &str) -> Result<(), SdvError> {
        let (trust, auths) = (&mut self.trust, &mut self.auth_operations);
        self.deployment
            .place(component, node, &mut |c, n| trust.mutual_auth(c, n, auths))
    }

    /// Fails a node: every component it hosted is re-placed onto the
    /// first compatible node with capacity, trying nodes in id order
    /// (full ceremony each time). Returns components that could not be
    /// re-placed.
    ///
    /// # Errors
    ///
    /// [`SdvError::NotFound`] for an unknown node.
    pub fn fail_node(&mut self, node: &str) -> Result<Vec<String>, SdvError> {
        let (trust, auths) = (&mut self.trust, &mut self.auth_operations);
        self.deployment
            .fail_node(node, &mut |c, n| trust.mutual_auth(c, n, auths))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Asil;

    fn component(id: &str, cost: u32, asil: Asil) -> SoftwareComponent {
        SoftwareComponent {
            id: id.into(),
            vendor: "tier1".into(),
            version: (1, 0, 0),
            requires: vec!["can-if".into()],
            compute_cost: cost,
            asil,
        }
    }

    fn node(id: &str, capacity: u32, asil: Asil) -> HardwareNode {
        HardwareNode {
            id: id.into(),
            provides: vec!["can-if".into()],
            compute_capacity: capacity,
            max_asil: asil,
        }
    }

    fn setup() -> (SdvPlatform, Wallet, SimRng) {
        let mut rng = SimRng::seed(2025);
        let (platform, oem) = SdvPlatform::new(&mut rng);
        (platform, oem, rng)
    }

    #[test]
    fn authenticated_placement_succeeds() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("brake", 10, Asil::D), &mut oem)
            .unwrap();
        p.place("brake", "hpc-0").unwrap();
        assert_eq!(p.host_of("brake"), Some("hpc-0"));
        assert_eq!(p.auth_operations, 2, "mutual = two verifications");
    }

    #[test]
    fn unvouched_component_rejected() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        // The component's credential is issued by an unanchored vendor.
        let mut rogue = Wallet::create(&mut rng, "rogue-vendor", p.registry());
        p.register_component(&mut rng, component("malware", 1, Asil::Qm), &mut rogue)
            .unwrap();
        let err = p.place("malware", "hpc-0").unwrap_err();
        assert!(matches!(err, SdvError::AuthFailed(_)), "{err}");
        assert_eq!(p.host_of("malware"), None);
    }

    #[test]
    fn endorsed_vendor_chain_accepted() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        let mut vendor = Wallet::create(&mut rng, "tier1", p.registry());
        // OEM endorses the vendor, creating a trust path.
        let endorsement = oem
            .issue(
                vendor.did().clone(),
                serde_json::json!({"authority": "software-vendor"}),
                None,
            )
            .unwrap();
        p.registry().record_endorsement(&endorsement).unwrap();
        p.register_component(&mut rng, component("adas", 10, Asil::B), &mut vendor)
            .unwrap();
        p.place("adas", "hpc-0").unwrap();
        assert_eq!(p.host_of("adas"), Some("hpc-0"));
    }

    #[test]
    fn incompatibility_blocks_after_auth() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("ecu-small", 100, Asil::A), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("brake", 10, Asil::D), &mut oem)
            .unwrap();
        let err = p.place("brake", "ecu-small").unwrap_err();
        assert!(matches!(err, SdvError::Incompatible(_)), "{err}");
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 25, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("a", 20, Asil::Qm), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("b", 10, Asil::Qm), &mut oem)
            .unwrap();
        p.place("a", "hpc-0").unwrap();
        assert_eq!(p.place("b", "hpc-0").unwrap_err(), SdvError::NoCapacity);
    }

    #[test]
    fn failover_replaces_components() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        p.register_node(&mut rng, node("hpc-1", 100, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("brake", 10, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("adas", 30, Asil::B), &mut oem)
            .unwrap();
        p.place("brake", "hpc-0").unwrap();
        p.place("adas", "hpc-0").unwrap();

        let stranded = p.fail_node("hpc-0").unwrap();
        assert!(stranded.is_empty());
        assert_eq!(p.host_of("brake"), Some("hpc-1"));
        assert_eq!(p.host_of("adas"), Some("hpc-1"));
    }

    #[test]
    fn failover_tries_nodes_in_id_order() {
        // Each platform has its own hash seed; the re-placement must not
        // follow it.
        for seed in 0..8 {
            let mut rng = SimRng::seed(seed);
            let (mut p, mut oem) = SdvPlatform::new(&mut rng);
            for id in ["hpc-0", "hpc-3", "hpc-1", "hpc-2"] {
                p.register_node(&mut rng, node(id, 100, Asil::D), &mut oem)
                    .unwrap();
            }
            p.register_component(&mut rng, component("brake", 10, Asil::D), &mut oem)
                .unwrap();
            p.place("brake", "hpc-0").unwrap();
            assert!(p.fail_node("hpc-0").unwrap().is_empty());
            assert_eq!(p.host_of("brake"), Some("hpc-1"), "seed {seed}");
        }
    }

    #[test]
    fn capacity_one_platform_places_a_trusted_component() {
        // Every wallet signs once: the OEM the node credential, the
        // component and the node one presentation each. The node side
        // has its leaf, so the ceremony completes.
        let mut rng = SimRng::seed(2026);
        let (mut p, mut oem) = SdvPlatform::with_capacities(&mut rng, WalletCapacities::all(1));
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        let mut vendor = Wallet::with_capacity(&mut rng, "tier1", p.registry(), 1);
        p.registry().add_trust_anchor(vendor.did().clone(), "tier1");
        p.register_component(&mut rng, component("adas", 10, Asil::B), &mut vendor)
            .unwrap();
        p.place("adas", "hpc-0").unwrap();
        assert_eq!(p.host_of("adas"), Some("hpc-0"));
        assert_eq!(p.auth_operations, 2);
        // A second placement attempt runs out of leaves and says so.
        let err = p.place("adas", "hpc-0").unwrap_err();
        assert_eq!(err, SdvError::AuthFailed("signing key exhausted".into()));
    }

    #[test]
    fn failover_reports_stranded_components() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 100, Asil::D), &mut oem)
            .unwrap();
        p.register_node(&mut rng, node("tiny", 5, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("big", 50, Asil::B), &mut oem)
            .unwrap();
        p.place("big", "hpc-0").unwrap();
        let stranded = p.fail_node("hpc-0").unwrap();
        assert_eq!(stranded, vec!["big".to_owned()]);
        assert_eq!(p.host_of("big"), None);
    }

    #[test]
    fn replacement_frees_old_capacity() {
        let (mut p, mut oem, mut rng) = setup();
        p.register_node(&mut rng, node("hpc-0", 25, Asil::D), &mut oem)
            .unwrap();
        p.register_node(&mut rng, node("hpc-1", 25, Asil::D), &mut oem)
            .unwrap();
        p.register_component(&mut rng, component("svc", 20, Asil::Qm), &mut oem)
            .unwrap();
        p.place("svc", "hpc-0").unwrap();
        p.place("svc", "hpc-1").unwrap(); // migrate
        assert_eq!(p.host_of("svc"), Some("hpc-1"));
        // hpc-0's capacity must be free again.
        p.register_component(&mut rng, component("svc2", 20, Asil::Qm), &mut oem)
            .unwrap();
        p.place("svc2", "hpc-0").unwrap();
    }
}
