//! AES-128 block cipher (FIPS 197), forward direction only.
//!
//! Encryption of single 16-byte blocks; the modes live in
//! [`crate::ctr`], [`crate::cmac`] and [`crate::gcm`], and all three
//! (GCM's open included) run only the forward cipher, so the inverse
//! cipher is not modelled. The implementation is a straightforward
//! byte-oriented one (S-box table plus `xtime` multiplication) — clarity
//! over speed, validated against the FIPS 197 appendix and
//! SP 800-38A ECB vectors.

/// The AES S-box (FIPS 197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key.
///
/// # Example
///
/// ```
/// use autosec_crypto::{util::to_hex, Aes128};
/// // FIPS 197 Appendix C.1.
/// let key: [u8; 16] = core::array::from_fn(|i| i as u8);
/// let pt: [u8; 16] = core::array::from_fn(|i| i as u8 * 0x11);
/// let ct = Aes128::new(&key).encrypt_block(&pt);
/// assert_eq!(to_hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[0]);
        for r in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[r]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        s
    }
}

// State layout: s[4*c + r] is row r, column c (column-major, as FIPS 197).

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(s: &mut [u8; 16]) {
    // Row r rotates left by r.
    for r in 1..4 {
        let mut row = [s[r], s[4 + r], s[8 + r], s[12 + r]];
        row.rotate_left(r);
        s[r] = row[0];
        s[4 + r] = row[1];
        s[8 + r] = row[2];
        s[12 + r] = row[3];
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    fn block(hex: &str) -> [u8; 16] {
        let v = from_hex(hex).unwrap();
        let mut b = [0u8; 16];
        b.copy_from_slice(&v);
        b
    }

    /// FIPS 197 Appendix C.1.
    #[test]
    fn fips197_appendix_c1() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt_block(&block("00112233445566778899aabbccddeeff"));
        assert_eq!(to_hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    /// NIST SP 800-38A F.1.1 (ECB-AES128 block 1).
    #[test]
    fn sp800_38a_ecb_block1() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(&block("6bc1bee22e409f96e93d7e117393172a"));
        assert_eq!(to_hex(&ct), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    /// NIST SP 800-38A F.1.1 block 2.
    #[test]
    fn sp800_38a_ecb_block2() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(&block("ae2d8a571e03ac9c9eb76fac45af8e51"));
        assert_eq!(to_hex(&ct), "f5d3d58503b9699de785895a96fdbaaf");
    }

    #[test]
    fn debug_hides_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('7'));
    }
}
