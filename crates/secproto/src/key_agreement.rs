//! MKA-style key agreement (IEEE 802.1X MKA, paper ref \[25\]).
//!
//! From a pairwise (or group) Connectivity Association Key (CAK), the
//! elected key server distributes Secure Association Keys (SAKs) derived
//! via HKDF with a fresh key-server nonce. The S1/S2/S3 comparison's
//! zone-controller key count lives in [`crate::scenarios`].

use autosec_crypto::Hkdf;

/// A connectivity association: the parties sharing one CAK.
#[derive(Debug, Clone)]
pub struct ConnectivityAssociation {
    cak: Vec<u8>,
    name: String,
    key_number: u32,
}

/// A distributed secure association key with its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedSak {
    /// The 16-byte AES key.
    pub sak: [u8; 16],
    /// Key number (increments per rekey).
    pub key_number: u32,
    /// Association name this SAK belongs to.
    pub ca_name: String,
}

impl ConnectivityAssociation {
    /// Creates an association from a pre-shared CAK.
    pub fn new(name: &str, cak: &[u8]) -> Self {
        Self {
            cak: cak.to_vec(),
            name: name.to_owned(),
            key_number: 0,
        }
    }

    /// Association name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Key-server operation: derives and "distributes" the next SAK.
    /// `server_nonce` must be fresh per invocation.
    pub fn distribute_sak(&mut self, server_nonce: &[u8]) -> DistributedSak {
        self.key_number += 1;
        let mut info = Vec::new();
        info.extend_from_slice(b"mka sak ");
        info.extend_from_slice(self.name.as_bytes());
        info.extend_from_slice(&self.key_number.to_be_bytes());
        let sak = Hkdf::derive_key16(server_nonce, &self.cak, &info);
        DistributedSak {
            sak,
            key_number: self.key_number,
            ca_name: self.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sak_changes_per_rekey() {
        let mut ca = ConnectivityAssociation::new("zone0", b"cak secret");
        let k1 = ca.distribute_sak(b"nonce-1");
        let k2 = ca.distribute_sak(b"nonce-2");
        assert_ne!(k1.sak, k2.sak);
        assert_eq!(k1.key_number + 1, k2.key_number);
    }

    #[test]
    fn sak_depends_on_cak_and_name() {
        let mut a = ConnectivityAssociation::new("zone0", b"cak-a");
        let mut b = ConnectivityAssociation::new("zone0", b"cak-b");
        let mut c = ConnectivityAssociation::new("zone1", b"cak-a");
        assert_ne!(a.distribute_sak(b"n").sak, b.distribute_sak(b"n").sak);
        assert_ne!(a.distribute_sak(b"n").sak, c.distribute_sak(b"n").sak);
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let mut a1 = ConnectivityAssociation::new("z", b"cak");
        let mut a2 = ConnectivityAssociation::new("z", b"cak");
        assert_eq!(a1.distribute_sak(b"n").sak, a2.distribute_sak(b"n").sak);
    }
}
