//! # autosec-crypto
//!
//! From-scratch cryptographic substrate for the `autosec` workbench.
//!
//! Every protocol the paper discusses — SECOC, MACsec, CANsec (§III-A),
//! self-sovereign identity (§IV), telemetry key management (§V), signed
//! V2X collaboration messages (§VII) — needs real primitives with real
//! semantics (tag truncation, replay windows, forgery rejection), not
//! stubs. This crate provides them, each validated against the official
//! FIPS / NIST SP-800 / RFC test vectors in its module tests:
//!
//! - [`sha256`] — FIPS 180-4 SHA-256
//! - [`hmac`] — RFC 2104 / FIPS 198-1 HMAC-SHA256
//! - [`hkdf`] — RFC 5869 HKDF-SHA256
//! - [`aes`] — FIPS 197 AES-128 block cipher
//! - [`ctr`] — NIST SP 800-38A counter mode
//! - [`cmac`] — NIST SP 800-38B / RFC 4493 AES-CMAC
//! - [`gcm`] — NIST SP 800-38D AES-GCM AEAD
//! - [`merkle`] — binary Merkle trees with membership proofs
//! - [`ots`] — Lamport and Winternitz (WOTS) one-time signatures
//! - [`mss`] — Merkle many-time signature scheme (XMSS-style, stateful)
//! - [`shamir`] — Shamir secret sharing over GF(2^8) (SeeMQTT substrate)
//!
//! ## Scope note (see `DESIGN.md`)
//!
//! This is a **simulation-grade** implementation: correct and vector-
//! validated, but not hardened against timing side channels beyond the
//! constant-time comparisons in [`util`]. The paper's SSI layer uses
//! elliptic-curve signatures on real deployments; we substitute hash-based
//! signatures, which are implementable from scratch with confidence and
//! preserve every property the experiments rely on (unforgeability,
//! multiple trust anchors, offline verification).
//!
//! SHA-256 compression dispatches at run time: on x86-64 CPUs with the
//! SHA extensions it uses them, elsewhere it runs a portable scalar
//! kernel. Both give the same digests (the `sha256` tests cross-check
//! them block by block), so every signature, DID and MAC is identical on
//! any machine; only the hashing speed differs.
//!
//! WOTS and MSS key generation, signing and verification, the bulk of
//! the hashing, do not hash one chain step after another where they can
//! avoid it. Each hands every chain of a key (or of 16 MSS leaf keys) to
//! [`sha256`] at once. On x86-64 CPUs with AVX-512F that runs 16 chains
//! in lockstep, one per vector lane, with each chain value kept in
//! registers for all its steps; elsewhere the chains run one after
//! another through the one-chain function. The keys and signatures are
//! the same either way: tests check the lanes against the one-chain
//! function, and `tests/golden.rs` pins roots, keys and a signature.
//!
//! ## Example
//!
//! ```
//! use autosec_crypto::{Sha256, AesGcm};
//!
//! let digest = Sha256::digest(b"autonomous systems");
//! assert_eq!(digest.len(), 32);
//!
//! let key = [0u8; 16];
//! let aead = AesGcm::new(&key);
//! let nonce = [1u8; 12];
//! let sealed = aead.seal(&nonce, b"header", b"secret telemetry");
//! let opened = aead.open(&nonce, b"header", &sealed).unwrap();
//! assert_eq!(opened, b"secret telemetry");
//! ```

pub mod aes;
pub mod cmac;
pub mod ctr;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod merkle;
pub mod mss;
pub mod ots;
pub mod sha256;
pub mod shamir;
pub mod util;

pub use aes::Aes128;
pub use cmac::Cmac;
pub use ctr::AesCtr;
pub use gcm::AesGcm;
pub use hkdf::Hkdf;
pub use hmac::HmacSha256;
pub use merkle::{MerkleProof, MerkleTree};
pub use mss::{MssKeyPair, MssPublicKey, MssSignature};
pub use ots::{LamportKeyPair, WotsKeyPair, WotsPublicKey, WotsSignature};
pub use sha256::Sha256;

/// Errors produced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoError {
    /// An authentication tag or signature failed to verify.
    VerifyFailed,
    /// Ciphertext too short to contain the authentication tag.
    TruncatedInput,
    /// A one-time key was asked to sign a second message, or a Merkle
    /// signature key ran out of leaves.
    KeyExhausted,
    /// Parameter outside the supported range (e.g. tag length).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerifyFailed => write!(f, "authentication failed"),
            CryptoError::TruncatedInput => write!(f, "input shorter than authentication tag"),
            CryptoError::KeyExhausted => write!(f, "signing key exhausted"),
            CryptoError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}
