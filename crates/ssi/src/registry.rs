//! The verifiable data registry: the paper's "immutable, publicly
//! available storage" with "different trust anchors".
//!
//! Append-only versioned DID documents plus a list of trust anchors and
//! recorded endorsements (authority credentials), from which trust paths
//! are computed. Thread-safe behind one `RwLock` so vehicle, cloud, and
//! charging-station actors can share one registry instance.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::credential::VerifiableCredential;
use crate::did::{Did, DidDocument};
use crate::SsiError;

#[derive(Debug, Default)]
struct Inner {
    /// Append-only document versions per DID.
    docs: HashMap<Did, Vec<DidDocument>>,
    /// Trust anchors: (did, label).
    anchors: Vec<(Did, String)>,
    /// Recorded endorsements: subject -> issuer (authority chain edges).
    endorsements: HashMap<Did, Did>,
}

/// The shared verifiable data registry.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // No writer can panic part-way through a mutation (the asserts in
    // `publish` run before it touches `docs`), so a lock poisoned by a
    // panicking writer still guards consistent state: recover it.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the *initial* DID document.
    ///
    /// # Panics
    ///
    /// Panics if the document is not self-certifying or the DID already
    /// exists — the registry is the trust root and refuses inconsistent
    /// writes. Rotations go through [`Registry::publish_rotation`].
    pub fn publish(&self, doc: DidDocument) {
        let mut inner = self.write();
        assert!(
            !inner.docs.contains_key(&doc.id),
            "DID already registered; use publish_rotation"
        );
        assert!(
            doc.is_self_certifying(),
            "initial DID document must be self-certifying"
        );
        inner.docs.entry(doc.id.clone()).or_default().push(doc);
    }

    /// Publishes a key-rotation document. The new document must be
    /// signed with the **previous** key — otherwise anyone could hijack
    /// a DID by publishing version n+1.
    ///
    /// # Errors
    ///
    /// [`SsiError::UnknownDid`] if the DID was never registered;
    /// [`SsiError::BadSignature`] if the version does not increase or
    /// the signature does not verify under the previous key.
    pub fn publish_rotation(
        &self,
        doc: DidDocument,
        prev_key_sig: &autosec_crypto::MssSignature,
    ) -> Result<(), SsiError> {
        let mut inner = self.write();
        let versions = inner
            .docs
            .get_mut(&doc.id)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| SsiError::UnknownDid(doc.id.as_str().to_owned()))?;
        let last = versions.last().expect("nonempty");
        if doc.version <= last.version {
            return Err(SsiError::BadSignature);
        }
        let prev_pk = autosec_crypto::MssPublicKey::from_bytes(last.public_key);
        if !prev_pk.verify(&doc.canonical_bytes(), prev_key_sig) {
            return Err(SsiError::BadSignature);
        }
        versions.push(doc);
        Ok(())
    }

    /// Appends a later document version without a hand-over signature.
    /// Only used by offline-bundle reconstruction, where credentials pin
    /// their signing key version (see `offline.rs` for the argument).
    pub(crate) fn force_publish_version(&self, doc: DidDocument) {
        self.write()
            .docs
            .entry(doc.id.clone())
            .or_default()
            .push(doc);
    }

    /// Resolves the latest document for `did`.
    ///
    /// # Errors
    ///
    /// [`SsiError::UnknownDid`] if never published.
    pub fn resolve(&self, did: &Did) -> Result<DidDocument, SsiError> {
        self.read()
            .docs
            .get(did)
            .and_then(|v| v.last().cloned())
            .ok_or_else(|| SsiError::UnknownDid(did.as_str().to_owned()))
    }

    /// Full version history (the "immutable" property: old versions stay).
    pub fn history(&self, did: &Did) -> Vec<DidDocument> {
        self.read().docs.get(did).cloned().unwrap_or_default()
    }

    /// Registers `did` as a trust anchor.
    pub fn add_trust_anchor(&self, did: Did, label: &str) {
        self.write().anchors.push((did, label.to_owned()));
    }

    /// All trust anchors.
    pub fn trust_anchors(&self) -> Vec<(Did, String)> {
        self.read().anchors.clone()
    }

    /// Whether `did` is an anchor.
    pub fn is_anchor(&self, did: &Did) -> bool {
        self.read().anchors.iter().any(|(d, _)| d == did)
    }

    /// Records an endorsement edge after verifying the authority
    /// credential (issuer vouches for subject).
    ///
    /// # Errors
    ///
    /// Propagates verification failures; the edge is only recorded for
    /// valid credentials.
    pub fn record_endorsement(&self, cred: &VerifiableCredential) -> Result<(), SsiError> {
        cred.verify(self)?;
        self.write()
            .endorsements
            .insert(cred.subject.clone(), cred.issuer.clone());
        Ok(())
    }

    /// Whether a trust path exists from an anchor to the credential's
    /// issuer (directly, or through recorded endorsements; depth ≤ 8,
    /// cycle-safe).
    pub fn trust_path_ok(&self, cred: &VerifiableCredential) -> bool {
        let inner = self.read();
        let mut current = cred.issuer.clone();
        for _ in 0..8 {
            if inner.anchors.iter().any(|(d, _)| *d == current) {
                return true;
            }
            match inner.endorsements.get(&current) {
                Some(parent) if *parent != current => current = parent.clone(),
                _ => return false,
            }
        }
        false
    }

    /// Number of published DIDs.
    pub fn did_count(&self) -> usize {
        self.read().docs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallet::Wallet;
    use autosec_sim::SimRng;

    #[test]
    fn publish_and_resolve() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(1);
        let w = Wallet::create(&mut rng, "ecu", &reg);
        let doc = reg.resolve(w.did()).unwrap();
        assert_eq!(doc.name, "ecu");
        assert_eq!(reg.did_count(), 1);
    }

    #[test]
    fn unknown_did_errors() {
        let reg = Registry::new();
        let did = Did::from_public_key(&[9u8; 32]);
        assert_eq!(
            reg.resolve(&did).unwrap_err(),
            SsiError::UnknownDid(did.as_str().to_owned())
        );
    }

    #[test]
    fn rotation_keeps_history() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(2);
        let mut w = Wallet::create(&mut rng, "ecu", &reg);
        w.rotate_key(&mut rng, &reg).unwrap();
        let hist = reg.history(w.did());
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].version, 1);
        assert_eq!(hist[1].version, 2);
        assert_eq!(reg.resolve(w.did()).unwrap().version, 2);
    }

    #[test]
    fn unsigned_hijack_rotation_rejected() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(3);
        let victim = Wallet::create(&mut rng, "ecu", &reg);
        let mut mallory = Wallet::create(&mut rng, "mallory", &reg);
        // Mallory forges version 2 of the victim's document with her own
        // key, signed by her own key.
        let mut doc = reg.resolve(victim.did()).unwrap();
        doc.version = 2;
        doc.public_key = reg.resolve(mallory.did()).unwrap().public_key;
        let sig = mallory.sign(&doc.canonical_bytes()).unwrap();
        assert_eq!(
            reg.publish_rotation(doc, &sig).unwrap_err(),
            SsiError::BadSignature
        );
        // Victim's document is untouched.
        assert_eq!(reg.resolve(victim.did()).unwrap().version, 1);
    }

    #[test]
    #[should_panic(expected = "self-certifying")]
    fn forged_initial_document_rejected() {
        let reg = Registry::new();
        let doc = DidDocument {
            id: Did::from_public_key(&[1u8; 32]),
            name: "mallory".into(),
            public_key: [2u8; 32], // does not match the DID
            version: 1,
            service: None,
        };
        reg.publish(doc);
    }

    #[test]
    fn registry_survives_a_writer_that_panicked_holding_the_lock() {
        let reg = Registry::new();
        let forged = DidDocument {
            id: Did::from_public_key(&[1u8; 32]),
            name: "mallory".into(),
            public_key: [2u8; 32],
            version: 1,
            service: None,
        };
        let panicked = std::thread::scope(|s| s.spawn(|| reg.publish(forged)).join());
        assert!(panicked.is_err());
        assert!(reg.inner.is_poisoned());
        // The rejected write left nothing behind, and the registry
        // keeps serving.
        assert_eq!(reg.did_count(), 0);
        let w = Wallet::create(&mut SimRng::seed(6), "ecu", &reg);
        assert_eq!(reg.resolve(w.did()).unwrap().name, "ecu");
        assert_eq!(reg.did_count(), 1);
    }

    #[test]
    fn multiple_anchors_coexist() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(4);
        let oem = Wallet::create(&mut rng, "oem", &reg);
        let cloud = Wallet::create(&mut rng, "cloud-provider", &reg);
        reg.add_trust_anchor(oem.did().clone(), "OEM");
        reg.add_trust_anchor(cloud.did().clone(), "Cloud");
        assert_eq!(reg.trust_anchors().len(), 2);
        assert!(reg.is_anchor(oem.did()));
        assert!(reg.is_anchor(cloud.did()));
    }

    #[test]
    fn trust_chain_through_endorsement() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(5);
        let mut anchor = Wallet::create(&mut rng, "anchor", &reg);
        let mut tier1 = Wallet::create(&mut rng, "tier1-supplier", &reg);
        let mut ecu = Wallet::create(&mut rng, "ecu", &reg);
        reg.add_trust_anchor(anchor.did().clone(), "root");

        // anchor endorses tier1; tier1 issues to the ECU.
        let authority = anchor
            .issue(
                tier1.did().clone(),
                serde_json::json!({"authority": "component-certification"}),
                None,
            )
            .unwrap();
        reg.record_endorsement(&authority).unwrap();

        let cred = tier1
            .issue(
                ecu.did().clone(),
                serde_json::json!({"model": "BCU-9"}),
                None,
            )
            .unwrap();
        assert!(cred.verify(&reg).is_ok());
        assert!(reg.trust_path_ok(&cred));

        // An unendorsed issuer has no path.
        let rogue_cred = ecu
            .issue(tier1.did().clone(), serde_json::json!({"x": 1}), None)
            .unwrap();
        assert!(!reg.trust_path_ok(&rogue_cred));
    }
}
