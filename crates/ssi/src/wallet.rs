//! Identity wallets: key material plus the DID it backs.
//!
//! A wallet holds a stateful Merkle signature key (`autosec-crypto`'s
//! [`MssKeyPair`]) — the hash-based substitute for the elliptic-curve
//! keys real SSI stacks use (see `DESIGN.md`). Key rotation publishes a
//! new DID-document version, exactly the flow a software-defined vehicle
//! needs when a component is replaced.
//!
//! # Sizing
//!
//! Key generation costs one WOTS expansion per leaf, so a wallet is sized
//! to the signatures it will make:
//!
//! - long-lived wallets use [`Wallet::create`], `2^DEFAULT_KEY_HEIGHT`
//!   = 64 leaves;
//! - a short-lived wallet built inside a replayed trial uses
//!   [`Wallet::with_capacity`] with the number of signatures its call
//!   site makes, stated (and bounded) there;
//! - running out of leaves is an [`SsiError::KeyExhausted`] error. No
//!   wallet rotates silently.

use autosec_crypto::{MssKeyPair, MssSignature};
use autosec_sim::SimRng;
use serde_json::Value;

use crate::credential::VerifiableCredential;
use crate::did::{Did, DidDocument};
use crate::registry::Registry;
use crate::SsiError;

/// Default MSS tree height: 2^6 = 64 signatures per key version.
pub const DEFAULT_KEY_HEIGHT: u8 = 6;

/// An identity wallet.
#[derive(Debug)]
pub struct Wallet {
    did: Did,
    name: String,
    keypair: MssKeyPair,
    doc_version: u32,
}

impl Wallet {
    /// Generates a key pair, derives the DID, and publishes the initial
    /// DID document to `registry`.
    pub fn create(rng: &mut SimRng, name: &str, registry: &Registry) -> Self {
        Self::with_capacity(rng, name, registry, 1 << DEFAULT_KEY_HEIGHT)
    }

    /// [`Wallet::create`] with a key that makes at least `signatures`
    /// signatures: the count is rounded up to the next power of two.
    /// The RNG draw is the same at any capacity.
    ///
    /// # Panics
    ///
    /// Panics if `signatures` is 0 or above `2^16`.
    pub fn with_capacity(
        rng: &mut SimRng,
        name: &str,
        registry: &Registry,
        signatures: usize,
    ) -> Self {
        assert!(signatures >= 1, "a wallet must be able to sign once");
        let height = signatures.next_power_of_two().trailing_zeros() as u8;
        let keypair = MssKeyPair::generate(rng, height);
        let pk = *keypair.public_key().as_bytes();
        let did = Did::from_public_key(&pk);
        let doc = DidDocument {
            id: did.clone(),
            name: name.to_owned(),
            public_key: pk,
            version: 1,
            service: None,
        };
        registry.publish(doc);
        Self {
            did,
            name: name.to_owned(),
            keypair,
            doc_version: 1,
        }
    }

    /// This wallet's DID.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// Subject name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current DID-document version this wallet's key corresponds to.
    pub fn doc_version(&self) -> u32 {
        self.doc_version
    }

    /// Remaining one-time signatures before rotation is forced.
    pub fn signatures_remaining(&self) -> usize {
        self.keypair.remaining()
    }

    /// Rotates to a fresh key, publishing the next DID-document version
    /// signed with the *previous* key (the registry rejects anything
    /// else).
    ///
    /// The DID itself is stable (it commits to the *initial* key); the
    /// registry history provides the hand-over trail. Rotate **before**
    /// the old key is exhausted — the hand-over signature needs one leaf.
    ///
    /// # Errors
    ///
    /// [`SsiError::KeyExhausted`] if no leaf remains to sign the
    /// hand-over; propagates registry rejections.
    pub fn rotate_key(&mut self, rng: &mut SimRng, registry: &Registry) -> Result<(), SsiError> {
        let next = MssKeyPair::generate(rng, DEFAULT_KEY_HEIGHT);
        let doc = DidDocument {
            id: self.did.clone(),
            name: self.name.clone(),
            public_key: *next.public_key().as_bytes(),
            version: self.doc_version + 1,
            service: None,
        };
        let sig = self
            .keypair
            .sign(&doc.canonical_bytes())
            .map_err(|_| SsiError::KeyExhausted)?;
        registry.publish_rotation(doc, &sig)?;
        self.doc_version += 1;
        self.keypair = next;
        Ok(())
    }

    /// Signs raw bytes.
    ///
    /// # Errors
    ///
    /// [`SsiError::KeyExhausted`] when the key has no leaves left.
    pub fn sign(&mut self, message: &[u8]) -> Result<MssSignature, SsiError> {
        self.keypair
            .sign(message)
            .map_err(|_| SsiError::KeyExhausted)
    }

    /// Issues a credential about `subject` with `claims`; `links` are ids
    /// of related credentials (§IV-B's linked signed documents).
    ///
    /// # Errors
    ///
    /// [`SsiError::KeyExhausted`] if the signing key is spent.
    pub fn issue(
        &mut self,
        subject: Did,
        claims: Value,
        links: Option<Vec<String>>,
    ) -> Result<VerifiableCredential, SsiError> {
        self.issue_with_validity(subject, claims, links, 0, None)
    }

    /// [`Wallet::issue`] with an explicit validity period (logical
    /// timestamps).
    ///
    /// # Errors
    ///
    /// [`SsiError::KeyExhausted`] if the signing key is spent.
    pub fn issue_with_validity(
        &mut self,
        subject: Did,
        claims: Value,
        links: Option<Vec<String>>,
        issued_at: u64,
        expires_at: Option<u64>,
    ) -> Result<VerifiableCredential, SsiError> {
        VerifiableCredential::issue(
            self,
            subject,
            claims,
            links.unwrap_or_default(),
            issued_at,
            expires_at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn wallet_publishes_on_create() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(10);
        let w = Wallet::create(&mut rng, "vehicle", &reg);
        assert_eq!(reg.resolve(w.did()).unwrap().name, "vehicle");
        assert_eq!(w.signatures_remaining(), 64);
    }

    #[test]
    fn create_derives_a_pinned_did_at_a_fixed_seed() {
        // Golden value: MSS key generation and DID derivation are pure
        // functions of the seed, so any hashing change shows up here.
        let reg = Registry::new();
        let w = Wallet::create(&mut SimRng::seed(42), "vehicle", &reg);
        assert_eq!(
            w.did().as_str(),
            "did:vreg:8b96b752ec8154dc8ebf5e5bcb72ff39"
        );
    }

    #[test]
    fn with_capacity_rounds_up_to_a_power_of_two() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(15);
        for (asked, leaves) in [
            (1, 1),
            (2, 2),
            (3, 4),
            (12, 16),
            (16, 16),
            (17, 32),
            (64, 64),
        ] {
            let w = Wallet::with_capacity(&mut rng, "ecu", &reg, asked);
            assert_eq!(w.signatures_remaining(), leaves, "asked for {asked}");
        }
    }

    #[test]
    #[should_panic(expected = "must be able to sign once")]
    fn with_capacity_rejects_zero() {
        Wallet::with_capacity(&mut SimRng::seed(17), "ecu", &Registry::new(), 0);
    }

    #[test]
    fn capacity_moves_no_rng_draw() {
        // Every capacity draws the same 32-byte seed, so the stream
        // after a sized wallet is the stream after a default one.
        let reg = Registry::new();
        let (mut a, mut b) = (SimRng::seed(18), SimRng::seed(18));
        Wallet::with_capacity(&mut a, "small", &reg, 1);
        Wallet::create(&mut b, "default", &reg);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn signing_consumes_capacity() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(11);
        let mut w = Wallet::with_capacity(&mut rng, "ecu", &reg, 4);
        assert_eq!(w.signatures_remaining(), 4);
        w.sign(b"m").unwrap();
        assert_eq!(w.signatures_remaining(), 3);
    }

    #[test]
    fn rotation_before_exhaustion_recovers_capacity() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(12);
        let mut w = Wallet::with_capacity(&mut rng, "ecu", &reg, 4);
        w.sign(b"1").unwrap();
        w.sign(b"2").unwrap();
        w.sign(b"3").unwrap();
        // One leaf left: exactly enough for the hand-over signature.
        w.rotate_key(&mut rng, &reg).unwrap();
        assert!(w.sign(b"4").is_ok());
        assert_eq!(reg.resolve(w.did()).unwrap().version, 2);
    }

    #[test]
    fn fully_exhausted_key_cannot_rotate() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(14);
        let mut w = Wallet::with_capacity(&mut rng, "ecu", &reg, 2);
        w.sign(b"1").unwrap();
        w.sign(b"2").unwrap();
        assert_eq!(
            w.rotate_key(&mut rng, &reg).unwrap_err(),
            SsiError::KeyExhausted
        );
    }

    #[test]
    fn did_stable_across_rotation() {
        let reg = Registry::new();
        let mut rng = SimRng::seed(13);
        let mut w = Wallet::create(&mut rng, "ecu", &reg);
        let did_before = w.did().clone();
        w.rotate_key(&mut rng, &reg).unwrap();
        assert_eq!(*w.did(), did_before);
    }
}
