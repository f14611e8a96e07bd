//! Merkle signature scheme (MSS): a stateful many-time signature built
//! from `2^h` WOTS one-time keys under a Merkle root (XMSS-style, without
//! the bitmask optimizations).
//!
//! This is the signature scheme the SSI layer (`autosec-ssi`) issues
//! credentials with. The public key is a single 32-byte root; each
//! signature carries the WOTS signature, the leaf's WOTS public key and
//! the Merkle authentication path.
//!
//! Key generation runs the leaves' WOTS chains 16 keys at a time; a
//! signature runs its leaf's 67 chains once, from secret to head, taking
//! the signature values on the way; verification runs each chain from
//! its signature value to its head. All three hand their chains to the
//! 16-lane lockstep kernel where the CPU has one (see [`crate::sha256`]).
//!
//! **Statefulness** is the classic operational hazard of hash-based
//! signatures: reusing a leaf breaks security. [`MssKeyPair::sign`]
//! enforces monotonically advancing leaves and errs with
//! [`CryptoError::KeyExhausted`] when the tree is spent.

use rand::RngCore;

use crate::merkle::{MerkleProof, MerkleTree};
use crate::ots::{self, WotsPublicKey, WotsSignature};
use crate::sha256::{Digest, Sha256};
use crate::CryptoError;

/// Public half of an MSS key: the Merkle root over the WOTS leaf keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MssPublicKey {
    root: Digest,
}

impl MssPublicKey {
    /// The raw 32-byte root.
    pub fn as_bytes(&self) -> &Digest {
        &self.root
    }

    /// Reconstructs a public key from raw bytes (e.g. out of a DID
    /// document).
    pub fn from_bytes(root: Digest) -> Self {
        Self { root }
    }

    /// Verifies an MSS signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &MssSignature) -> bool {
        // 1. WOTS signature must verify under the carried leaf key.
        if !sig.leaf_pk.verify(message, &sig.wots) {
            return false;
        }
        // 2. The leaf key must be committed under our root.
        let leaf_digest = sig.leaf_pk.digest();
        sig.auth_path
            .verify_leaf_hash(&self.root, &leaf_hash_of(&leaf_digest))
    }
}

fn leaf_hash_of(wots_pk_digest: &Digest) -> Digest {
    crate::merkle::leaf_hash(wots_pk_digest)
}

/// An MSS signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MssSignature {
    /// Index of the leaf used.
    pub leaf_index: usize,
    wots: WotsSignature,
    leaf_pk: WotsPublicKey,
    auth_path: MerkleProof,
}

impl MssSignature {
    /// Approximate wire size in bytes (WOTS sig + leaf pk + auth path).
    pub fn byte_len(&self) -> usize {
        self.wots.byte_len() + crate::ots::WOTS_CHAINS * 32 + self.auth_path.depth() * 33 + 8
    }
}

/// Leaf keys whose chains run in one batched call. Sixteen keys of 67
/// chains fill the 16-lane chain kernel exactly, and the batch stays
/// small (34 KiB) even at height 16.
const LEAVES_PER_BATCH: usize = 16;

/// A stateful MSS key pair with `2^height` one-time leaves.
///
/// # Example
///
/// ```
/// use autosec_crypto::MssKeyPair;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let mut kp = MssKeyPair::generate(&mut rng, 3); // 8 signatures
/// let pk = kp.public_key();
/// let sig = kp.sign(b"credential").unwrap();
/// assert!(pk.verify(b"credential", &sig));
/// ```
#[derive(Clone)]
pub struct MssKeyPair {
    master_seed: Digest,
    tree: MerkleTree,
    next_leaf: usize,
    capacity: usize,
}

impl std::fmt::Debug for MssKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MssKeyPair")
            .field("capacity", &self.capacity)
            .field("next_leaf", &self.next_leaf)
            .finish_non_exhaustive()
    }
}

impl MssKeyPair {
    /// Generates a key pair with `2^height` leaves from a master seed
    /// drawn from `rng`; see [`MssKeyPair::from_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `height > 16`, as [`MssKeyPair::from_seed`] does.
    pub fn generate(rng: &mut dyn RngCore, height: u8) -> Self {
        let mut master_seed = [0u8; 32];
        rng.fill_bytes(&mut master_seed);
        Self::from_seed(master_seed, height)
    }

    /// Deterministic construction of a key pair with `2^height` leaves
    /// from a master seed.
    ///
    /// Leaf WOTS keys are derived from the master seed, so key generation
    /// costs `2^height` WOTS expansions but storage stays O(tree). The
    /// leaves' chains run in batches of 16 keys.
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (65k signatures is plenty for simulation;
    /// larger trees take noticeable time to build).
    pub fn from_seed(master_seed: Digest, height: u8) -> Self {
        assert!(height <= 16, "MSS height {height} too large");
        let capacity = 1usize << height;
        let leaf_seeds: Vec<Digest> = (0..capacity)
            .map(|i| Self::leaf_seed(&master_seed, i))
            .collect();
        let leaf_hashes: Vec<Digest> = leaf_seeds
            .chunks(LEAVES_PER_BATCH)
            .flat_map(ots::public_key_digests)
            .map(|pk_digest| leaf_hash_of(&pk_digest))
            .collect();
        let tree = MerkleTree::from_leaf_hashes(leaf_hashes);
        Self {
            master_seed,
            tree,
            next_leaf: 0,
            capacity,
        }
    }

    fn leaf_seed(master: &Digest, index: usize) -> Digest {
        Sha256::digest_parts(&[&[0x04], master, &(index as u64).to_be_bytes()])
    }

    /// The public key (Merkle root).
    pub fn public_key(&self) -> MssPublicKey {
        MssPublicKey {
            root: self.tree.root(),
        }
    }

    /// Signatures remaining before exhaustion.
    pub fn remaining(&self) -> usize {
        self.capacity - self.next_leaf
    }

    /// Total signature capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Signs `message` with the next unused leaf.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyExhausted`] once all `2^height` leaves are spent.
    pub fn sign(&mut self, message: &[u8]) -> Result<MssSignature, CryptoError> {
        if self.next_leaf >= self.capacity {
            return Err(CryptoError::KeyExhausted);
        }
        let index = self.next_leaf;
        self.next_leaf += 1;
        let (leaf_pk, wots) =
            ots::sign_with_seed(&Self::leaf_seed(&self.master_seed, index), message);
        let auth_path = self.tree.prove(index).expect("leaf index within capacity");
        Ok(MssSignature {
            leaf_index: index,
            wots,
            leaf_pk,
            auth_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ots::WotsKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(height: u8) -> MssKeyPair {
        MssKeyPair::generate(&mut StdRng::seed_from_u64(11), height)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = keypair(2);
        let pk = kp.public_key();
        let sig = kp.sign(b"doc").unwrap();
        assert!(pk.verify(b"doc", &sig));
        assert!(!pk.verify(b"doc2", &sig));
    }

    #[test]
    fn every_leaf_works_then_exhausts() {
        let mut kp = keypair(2);
        let pk = kp.public_key();
        assert_eq!(kp.capacity(), 4);
        for i in 0..4 {
            let msg = format!("msg {i}");
            let sig = kp.sign(msg.as_bytes()).unwrap();
            assert_eq!(sig.leaf_index, i);
            assert!(pk.verify(msg.as_bytes(), &sig));
        }
        assert_eq!(kp.remaining(), 0);
        assert_eq!(kp.sign(b"x").unwrap_err(), CryptoError::KeyExhausted);
    }

    #[test]
    fn cross_key_rejection() {
        let mut kp1 = MssKeyPair::generate(&mut StdRng::seed_from_u64(1), 2);
        let kp2 = MssKeyPair::generate(&mut StdRng::seed_from_u64(2), 2);
        let sig = kp1.sign(b"m").unwrap();
        assert!(!kp2.public_key().verify(b"m", &sig));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut kp = keypair(3);
        let pk = kp.public_key();
        let sig = kp.sign(b"m").unwrap();
        // Forge: present the signature against a different root.
        let other = MssPublicKey::from_bytes([0xab; 32]);
        assert!(!other.verify(b"m", &sig));
        assert!(pk.verify(b"m", &sig));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = MssKeyPair::from_seed([7u8; 32], 2);
        let b = MssKeyPair::from_seed([7u8; 32], 2);
        assert_eq!(a.public_key(), b.public_key());
    }

    /// The root built leaf by leaf from the one-chain function, apart
    /// from the batched path `from_seed` takes.
    fn reference_root(master_seed: Digest, height: u8) -> Digest {
        let leaf_hashes = (0..1usize << height)
            .map(|leaf| {
                let seed = MssKeyPair::leaf_seed(&master_seed, leaf);
                let mut pk = Sha256::new();
                for i in 0..ots::WOTS_CHAINS {
                    let secret = Sha256::digest_parts(&[&[0x03], &seed, &(i as u16).to_be_bytes()]);
                    pk.update(&ots::chain(&secret, i, 0, 15));
                }
                leaf_hash_of(&pk.finalize())
            })
            .collect();
        MerkleTree::from_leaf_hashes(leaf_hashes).root()
    }

    #[test]
    fn batched_roots_match_the_leaf_by_leaf_reference() {
        for height in 0..=6 {
            for seed in [[0u8; 32], [7u8; 32], [0xa5; 32]] {
                assert_eq!(
                    *MssKeyPair::from_seed(seed, height).public_key().as_bytes(),
                    reference_root(seed, height),
                    "height {height}"
                );
            }
        }
    }

    #[test]
    fn signatures_match_the_one_chain_composition() {
        // The leaf key from `WotsKeyPair::from_seed`, signed one chain at
        // a time, under every leaf of every height up to 6.
        for height in 0..=6 {
            let mut kp = MssKeyPair::from_seed([height; 32], height);
            let pk = kp.public_key();
            for leaf in 0..kp.capacity() {
                let msg = format!("h{height} leaf {leaf}");
                let leaf_kp = WotsKeyPair::from_seed(&MssKeyPair::leaf_seed(&[height; 32], leaf));
                let want = MssSignature {
                    leaf_index: leaf,
                    wots: leaf_kp.sign_chain_by_chain(msg.as_bytes()),
                    leaf_pk: leaf_kp.public_key().clone(),
                    auth_path: kp.tree.prove(leaf).unwrap(),
                };
                let sig = kp.sign(msg.as_bytes()).unwrap();
                assert_eq!(sig, want, "height {height}, leaf {leaf}");
                assert!(pk.verify(msg.as_bytes(), &sig));
                assert!(!pk.verify(b"tampered", &sig));
            }
            assert_eq!(kp.sign(b"x").unwrap_err(), CryptoError::KeyExhausted);
        }
    }

    #[test]
    fn tampered_signatures_and_wrong_keys_fail() {
        let mut kp = keypair(3);
        let pk = kp.public_key();
        let sig = kp.sign(b"m").unwrap();
        let theirs = MssKeyPair::generate(&mut StdRng::seed_from_u64(12), 3)
            .sign(b"m")
            .unwrap();
        // Another key's leaf under our root, our leaf under a key of
        // another height, and each part of theirs spliced into ours.
        assert!(!pk.verify(b"m", &theirs));
        assert!(!keypair(2).public_key().verify(b"m", &sig));
        let (mut wots, mut leaf_pk) = (sig.clone(), sig.clone());
        wots.wots = theirs.wots.clone();
        leaf_pk.leaf_pk = theirs.leaf_pk.clone();
        assert!(!pk.verify(b"m", &wots));
        assert!(!pk.verify(b"m", &leaf_pk));
        let mut moved = sig.clone();
        moved.auth_path = kp.tree.prove(5).unwrap();
        assert!(!pk.verify(b"m", &moved));
        assert!(pk.verify(b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "MSS height 64 too large")]
    fn from_seed_rejects_heights_above_16() {
        // `1usize << 64` would wrap to a one-leaf key in a release build.
        MssKeyPair::from_seed([0u8; 32], 64);
    }

    #[test]
    fn signature_size_reported() {
        let mut kp = keypair(4);
        let sig = kp.sign(b"m").unwrap();
        // Two WOTS-key-sized components dominate: ~4.3 KB.
        assert!(
            sig.byte_len() > 4000 && sig.byte_len() < 5000,
            "{}",
            sig.byte_len()
        );
    }

    #[test]
    fn public_key_round_trips_through_bytes() {
        let kp = keypair(1);
        let pk = kp.public_key();
        assert_eq!(MssPublicKey::from_bytes(*pk.as_bytes()), pk);
    }
}
