//! A minimal hierarchical X.509-style PKI — the ISO-15118 baseline the
//! §IV-C comparison measures SSI against.
//!
//! Root CA → intermediate CA(s) → end-entity certificates, with chain
//! verification. Signatures use the same hash-based scheme as the SSI
//! side so the comparison isolates *architecture* (hierarchy vs
//! registry + anchors), not primitive speed.

use autosec_crypto::{MssKeyPair, MssPublicKey, MssSignature};
use autosec_sim::SimRng;

use crate::SdvError;

/// A certificate: subject name + key, signed by the issuer.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Subject name.
    pub subject: String,
    /// Issuer name.
    pub issuer: String,
    /// Subject public key root.
    pub public_key: [u8; 32],
    /// Whether the subject may issue further certificates.
    pub is_ca: bool,
    signature: MssSignature,
}

impl Certificate {
    fn tbs_bytes(subject: &str, issuer: &str, pk: &[u8; 32], is_ca: bool) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(b"cert|");
        b.extend_from_slice(subject.as_bytes());
        b.push(b'|');
        b.extend_from_slice(issuer.as_bytes());
        b.push(b'|');
        b.extend_from_slice(pk);
        b.push(u8::from(is_ca));
        b
    }
}

/// A certificate authority (root or intermediate).
pub struct CertificateAuthority {
    name: String,
    keypair: MssKeyPair,
    /// The CA's own certificate (self-signed for roots).
    pub certificate: Certificate,
}

impl std::fmt::Debug for CertificateAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertificateAuthority")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// An MSS key that signs at least `certificates` certificates, rounded up
/// to a power of two as [`autosec_ssi::Wallet::with_capacity`] does. It
/// draws the same 32-byte seed from `rng` at any size.
///
/// # Panics
///
/// Panics if `certificates` is 0 or above `2^16`.
fn ca_key(rng: &mut SimRng, certificates: usize) -> MssKeyPair {
    assert!(certificates >= 1, "a CA signs at least its own certificate");
    MssKeyPair::generate(rng, certificates.next_power_of_two().trailing_zeros() as u8)
}

impl CertificateAuthority {
    /// Creates a self-signed root CA whose key signs `certificates`
    /// certificates, its own included (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `certificates` is 0 or above `2^16`.
    pub fn root(rng: &mut SimRng, name: &str, certificates: usize) -> Self {
        let mut keypair = ca_key(rng, certificates);
        let pk = *keypair.public_key().as_bytes();
        let tbs = Certificate::tbs_bytes(name, name, &pk, true);
        let signature = keypair.sign(&tbs).expect("fresh key");
        Self {
            name: name.to_owned(),
            keypair,
            certificate: Certificate {
                subject: name.to_owned(),
                issuer: name.to_owned(),
                public_key: pk,
                is_ca: true,
                signature,
            },
        }
    }

    /// Issues a subordinate CA whose key signs `certificates`
    /// certificates (rounded up to a power of two).
    ///
    /// # Errors
    ///
    /// [`SdvError::UpdateRejected`] if the CA key is exhausted (reused
    /// error type: rekey required).
    ///
    /// # Panics
    ///
    /// Panics if `certificates` is 0 or above `2^16`.
    pub fn issue_sub_ca(
        &mut self,
        rng: &mut SimRng,
        name: &str,
        certificates: usize,
    ) -> Result<Self, SdvError> {
        let keypair = ca_key(rng, certificates);
        let pk = *keypair.public_key().as_bytes();
        let tbs = Certificate::tbs_bytes(name, &self.name, &pk, true);
        let signature = self
            .keypair
            .sign(&tbs)
            .map_err(|e| SdvError::UpdateRejected(e.to_string()))?;
        Ok(Self {
            name: name.to_owned(),
            keypair,
            certificate: Certificate {
                subject: name.to_owned(),
                issuer: self.name.clone(),
                public_key: pk,
                is_ca: true,
                signature,
            },
        })
    }

    /// Issues an end-entity certificate for `subject` with `public_key`.
    ///
    /// # Errors
    ///
    /// [`SdvError::UpdateRejected`] if the CA key is exhausted.
    pub fn issue_leaf(
        &mut self,
        subject: &str,
        public_key: [u8; 32],
    ) -> Result<Certificate, SdvError> {
        let tbs = Certificate::tbs_bytes(subject, &self.name, &public_key, false);
        let signature = self
            .keypair
            .sign(&tbs)
            .map_err(|e| SdvError::UpdateRejected(e.to_string()))?;
        Ok(Certificate {
            subject: subject.to_owned(),
            issuer: self.name.clone(),
            public_key,
            is_ca: false,
            signature,
        })
    }
}

/// Verifies `chain` (leaf first, root last) against a pinned root
/// certificate. Returns the number of signature verifications performed.
///
/// # Errors
///
/// [`SdvError::AuthFailed`] naming the broken link.
pub fn verify_chain(chain: &[Certificate], pinned_root: &Certificate) -> Result<usize, SdvError> {
    if chain.is_empty() {
        return Err(SdvError::AuthFailed("empty chain".into()));
    }
    let mut verifications = 0usize;
    for i in 0..chain.len() {
        let cert = &chain[i];
        let issuer_cert = if i + 1 < chain.len() {
            &chain[i + 1]
        } else {
            pinned_root
        };
        if cert.issuer != issuer_cert.subject {
            return Err(SdvError::AuthFailed(format!(
                "issuer mismatch at {}",
                cert.subject
            )));
        }
        if i > 0 && !cert.is_ca {
            return Err(SdvError::AuthFailed(format!(
                "non-CA {} used as issuer",
                cert.subject
            )));
        }
        let pk = MssPublicKey::from_bytes(issuer_cert.public_key);
        let tbs = Certificate::tbs_bytes(&cert.subject, &cert.issuer, &cert.public_key, cert.is_ca);
        verifications += 1;
        if !pk.verify(&tbs, &cert.signature) {
            return Err(SdvError::AuthFailed(format!(
                "bad signature on {}",
                cert.subject
            )));
        }
    }
    // Root self-check.
    let pk = MssPublicKey::from_bytes(pinned_root.public_key);
    let tbs = Certificate::tbs_bytes(
        &pinned_root.subject,
        &pinned_root.issuer,
        &pinned_root.public_key,
        pinned_root.is_ca,
    );
    verifications += 1;
    if !pk.verify(&tbs, &pinned_root.signature) {
        return Err(SdvError::AuthFailed("bad root self-signature".into()));
    }
    Ok(verifications)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(15118)
    }

    #[test]
    fn three_level_chain_verifies() {
        let mut rng = rng();
        let mut root = CertificateAuthority::root(&mut rng, "v2g-root", 2);
        let mut cpo = root.issue_sub_ca(&mut rng, "cpo-ca", 1).unwrap();
        let station_key = MssKeyPair::generate(&mut rng, 2);
        let leaf = cpo
            .issue_leaf("station-017", *station_key.public_key().as_bytes())
            .unwrap();
        let chain = vec![leaf, cpo.certificate.clone()];
        let verifications = verify_chain(&chain, &root.certificate).unwrap();
        assert_eq!(verifications, 3); // leaf, sub-CA, root
    }

    #[test]
    fn wrong_issuer_rejected() {
        let mut rng = rng();
        let mut root_a = CertificateAuthority::root(&mut rng, "root-a", 2);
        let root_b = CertificateAuthority::root(&mut rng, "root-b", 1);
        let key = MssKeyPair::generate(&mut rng, 2);
        let leaf = root_a
            .issue_leaf("leaf", *key.public_key().as_bytes())
            .unwrap();
        let err = verify_chain(&[leaf], &root_b.certificate).unwrap_err();
        assert!(err.to_string().contains("issuer mismatch"), "{err}");
    }

    #[test]
    fn forged_leaf_rejected() {
        let mut rng = rng();
        let mut root = CertificateAuthority::root(&mut rng, "root", 2);
        let key = MssKeyPair::generate(&mut rng, 2);
        let mut leaf = root
            .issue_leaf("station", *key.public_key().as_bytes())
            .unwrap();
        leaf.public_key = [0xAA; 32]; // swap key, keep signature
        let err = verify_chain(&[leaf], &root.certificate).unwrap_err();
        assert!(err.to_string().contains("bad signature"), "{err}");
    }

    #[test]
    fn leaf_cannot_act_as_ca() {
        let mut rng = rng();
        let mut root = CertificateAuthority::root(&mut rng, "root", 2);
        let mut k1 = MssKeyPair::generate(&mut rng, 2);
        let leaf1 = root
            .issue_leaf("station", *k1.public_key().as_bytes())
            .unwrap();
        // The leaf "issues" another cert.
        let k2 = MssKeyPair::generate(&mut rng, 2);
        let tbs = Certificate::tbs_bytes("evil", "station", k2.public_key().as_bytes(), false);
        let forged = Certificate {
            subject: "evil".into(),
            issuer: "station".into(),
            public_key: *k2.public_key().as_bytes(),
            is_ca: false,
            signature: k1.sign(&tbs).unwrap(),
        };
        let err = verify_chain(&[forged, leaf1], &root.certificate).unwrap_err();
        assert!(err.to_string().contains("non-CA"), "{err}");
    }

    #[test]
    fn a_ca_signs_what_it_was_sized_for_then_exhausts() {
        let exhausted = SdvError::UpdateRejected("signing key exhausted".into());
        for certificates in 1..=9usize {
            let mut rng = rng();
            let mut root = CertificateAuthority::root(&mut rng, "root", certificates);
            // The self-signature took one leaf; the rest issue leaves.
            let size = certificates.next_power_of_two();
            for i in 1..size {
                root.issue_leaf(&format!("leaf-{i}"), [i as u8; 32])
                    .unwrap();
            }
            let err = root.issue_leaf("one-too-many", [0; 32]).unwrap_err();
            assert_eq!(err, exhausted, "{certificates} certificates");
            assert!(root.issue_sub_ca(&mut rng, "sub", 1).is_err());
        }
        let mut rng = rng();
        let mut root = CertificateAuthority::root(&mut rng, "root", 2);
        let mut sub = root.issue_sub_ca(&mut rng, "sub", 1).unwrap();
        let leaf = sub.issue_leaf("station", [1; 32]).unwrap();
        verify_chain(&[leaf, sub.certificate.clone()], &root.certificate).unwrap();
        assert_eq!(sub.issue_leaf("again", [2; 32]).unwrap_err(), exhausted);
    }

    #[test]
    fn empty_chain_rejected() {
        let mut rng = rng();
        let root = CertificateAuthority::root(&mut rng, "root", 1);
        assert!(verify_chain(&[], &root.certificate).is_err());
    }
}
