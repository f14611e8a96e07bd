//! HKDF-SHA256 (RFC 5869): extract-then-expand key derivation.
//!
//! Derives session keys from long-term pre-shared secrets (the DTLS
//! record keys of `autosec-secproto`).

use crate::hmac::HmacSha256;
use crate::CryptoError;

/// HKDF with SHA-256.
///
/// # Example
///
/// ```
/// use autosec_crypto::Hkdf;
/// let okm = Hkdf::derive(b"salt", b"input key material", b"macsec sak", 16).unwrap();
/// assert_eq!(okm.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Hkdf {
    prk: [u8; 32],
}

impl Hkdf {
    /// HKDF-Extract: builds a pseudorandom key from salt and input key
    /// material.
    pub fn extract(salt: &[u8], ikm: &[u8]) -> Self {
        Self {
            prk: HmacSha256::mac(salt, ikm),
        }
    }

    /// Raw pseudorandom key (mostly for tests).
    pub fn prk(&self) -> &[u8; 32] {
        &self.prk
    }

    /// HKDF-Expand: derives `len` bytes of output keyed to `info`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if `len > 255 * 32`.
    pub fn expand(&self, info: &[u8], len: usize) -> Result<Vec<u8>, CryptoError> {
        if len > 255 * 32 {
            return Err(CryptoError::InvalidParameter("hkdf output too long"));
        }
        let mut okm = Vec::with_capacity(len);
        let mut t: Vec<u8> = Vec::new();
        let mut counter = 1u8;
        while okm.len() < len {
            let mut h = HmacSha256::new(&self.prk);
            h.update(&t);
            h.update(info);
            h.update(&[counter]);
            let block = h.finalize();
            let take = (len - okm.len()).min(32);
            okm.extend_from_slice(&block[..take]);
            t = block.to_vec();
            counter = counter.wrapping_add(1);
        }
        Ok(okm)
    }

    /// One-shot extract-then-expand.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if `len > 255 * 32`.
    pub fn derive(
        salt: &[u8],
        ikm: &[u8],
        info: &[u8],
        len: usize,
    ) -> Result<Vec<u8>, CryptoError> {
        Self::extract(salt, ikm).expand(info, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    /// RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0b; 22];
        let salt = from_hex("000102030405060708090a0b0c").unwrap();
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let hk = Hkdf::extract(&salt, &ikm);
        assert_eq!(
            to_hex(hk.prk()),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hk.expand(&info, 42).unwrap();
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0b; 22];
        let okm = Hkdf::derive(b"", &ikm, b"", 42).unwrap();
        assert_eq!(
            to_hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths() {
        let hk = Hkdf::extract(b"s", b"ikm");
        for len in [0, 1, 31, 32, 33, 64, 100] {
            assert_eq!(hk.expand(b"i", len).unwrap().len(), len);
        }
    }

    #[test]
    fn expand_rejects_oversize() {
        let hk = Hkdf::extract(b"s", b"ikm");
        assert_eq!(
            hk.expand(b"i", 255 * 32 + 1),
            Err(CryptoError::InvalidParameter("hkdf output too long"))
        );
    }

    #[test]
    fn info_separates_keys() {
        let a = Hkdf::derive(b"salt", b"secret", b"key-a", 16).unwrap();
        let b = Hkdf::derive(b"salt", b"secret", b"key-b", 16).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_consistency() {
        // Expanding to 64 bytes must start with the 32-byte expansion.
        let hk = Hkdf::extract(b"s", b"ikm");
        let short = hk.expand(b"i", 32).unwrap();
        let long = hk.expand(b"i", 64).unwrap();
        assert_eq!(&long[..32], &short[..]);
    }
}
