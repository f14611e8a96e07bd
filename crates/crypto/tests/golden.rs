//! Golden outputs of the hash-based constructions.
//!
//! Every SHA-256 consumer in the workbench must produce the same bytes
//! whichever kernel the CPU selects, for single blocks and for WOTS
//! chains run in lockstep. The root, key and MAC pins were taken from
//! the portable kernel, the signature and generated-key pins from the
//! one-chain-at-a-time key generation; a kernel bug fails here, in the
//! crate that owns it, before it shows up as a changed experiment table.

use autosec_crypto::util::to_hex;
use autosec_crypto::{HmacSha256, MssKeyPair, WotsKeyPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mss_h6_root_from_fixed_seed() {
    let kp = MssKeyPair::from_seed([7u8; 32], 6);
    assert_eq!(
        to_hex(kp.public_key().as_bytes()),
        "a95acda0351ed2900d175d58fc0f607081e5d6fa67eb62d8edc4b76584380b9e"
    );
}

#[test]
fn wots_public_key_digest_from_fixed_seed() {
    let kp = WotsKeyPair::from_seed(&[9u8; 32]);
    assert_eq!(
        to_hex(&kp.public_key().digest()),
        "15703c951403f7246f5316266e48105ab2eb2c94fa81790adc2758b86bf7f813"
    );
}

#[test]
fn hmac_tag_over_multi_block_message() {
    let message: Vec<u8> = (0u8..200).collect();
    let tag = HmacSha256::mac(b"autosec golden key", &message);
    assert_eq!(
        to_hex(&tag),
        "3277071edc675d7e6ae600db8b0d566409426a87543cbe57f33f4b771119c844"
    );
}

#[test]
fn mss_signature_from_fixed_seed() {
    // Signing regenerates the leaf's WOTS key, so this pins the leaf
    // chains as well as the tree. The signature has no byte encoding to
    // hash, so the pin is the root it must verify under: the root commits
    // to every leaf public key, and a leaf key fixes the chain values
    // that verify under it, so no other bytes can pass here.
    let mut kp = MssKeyPair::from_seed([5u8; 32], 3);
    let pk = kp.public_key();
    assert_eq!(
        to_hex(pk.as_bytes()),
        "50a13e3045956554d28b3fe83f0f2f33c4385f1e10dd1aaf4cf28cd78bd6b7e6"
    );
    kp.sign(b"first").expect("fresh key");
    let sig = kp.sign(b"golden credential").expect("second leaf");
    assert_eq!(sig.leaf_index, 1);
    assert!(pk.verify(b"golden credential", &sig));
    assert!(!pk.verify(b"golden credentiam", &sig));
}

#[test]
fn wots_generated_public_key_digest_from_seeded_rng() {
    let kp = WotsKeyPair::generate(&mut StdRng::seed_from_u64(0x60_1d));
    assert_eq!(
        to_hex(&kp.public_key().digest()),
        "5261edc1ca7f0235bd0ec8f463c02d0d3d8755e20da2a5dc9793c23a332a17a0"
    );
}
