//! Golden outputs of the hash-based constructions.
//!
//! Every SHA-256 consumer in the workbench must produce the same bytes
//! whichever compression kernel the CPU selects. These pins were taken
//! from the portable kernel; a kernel bug fails here, in the crate that
//! owns it, before it shows up as a changed experiment table.

use autosec_crypto::util::to_hex;
use autosec_crypto::{HmacSha256, MssKeyPair, WotsKeyPair};

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
