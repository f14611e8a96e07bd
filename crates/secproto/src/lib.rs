//! # autosec-secproto
//!
//! In-vehicle security protocols (§III-A of the paper, Table I and
//! Figs. 4–6).
//!
//! Implements every protocol in the paper's Table I against the real
//! cryptography of `autosec-crypto` and the frame models of
//! `autosec-ivn`:
//!
//! | ISO-OSI layer | Ethernet            | CAN XL             |
//! |---------------|---------------------|--------------------|
//! | 7 Application | [`secoc`]           | [`secoc`]          |
//! | 4 Transport   | [`dtls`]            | —                  |
//! | 3 Network     | [`ipsec`]           | —                  |
//! | 2 Data link   | [`macsec`]          | [`cansec`]         |
//!
//! plus:
//!
//! - [`canal`] — the CAN Adaptation Layer of Fig. 6 (AAL5-inspired),
//!   tunneling Ethernet/MACsec frames over CAN XL so MACsec can run end
//!   to end between CAN and 10BASE-T1S endpoints
//! - [`scenarios`] — the three deployment scenarios S1 (Fig. 4),
//!   S2 (Fig. 5, end-to-end vs point-to-point) and S3 (Fig. 6), with the
//!   per-message overhead / crypto-operation / key-storage accounting the
//!   paper's comparison is about
//!
//! ## Example
//!
//! ```
//! use autosec_secproto::secoc::{SecOcAuthenticator, SecOcConfig};
//!
//! let cfg = SecOcConfig::default();
//! let mut tx = SecOcAuthenticator::new_sender(cfg, [7u8; 16], 0x100);
//! let mut rx = SecOcAuthenticator::new_receiver(cfg, [7u8; 16], 0x100);
//! let pdu = tx.protect(b"wheel speed").unwrap();
//! assert_eq!(rx.verify(&pdu).unwrap(), b"wheel speed");
//! ```

pub mod canal;
pub mod cansec;
pub mod dtls;
pub mod ipsec;
pub mod macsec;
pub mod scenarios;
pub mod secoc;
pub mod seemqtt;

/// Errors shared by the protocol implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoError {
    /// MAC or AEAD verification failed.
    AuthFailed,
    /// Frame rejected by the anti-replay check.
    Replayed,
    /// Frame too short / malformed.
    Malformed,
    /// Freshness could not be reconstructed within the window.
    FreshnessLost,
    /// Reassembly failed (missing fragment or bad trailer CRC).
    ReassemblyFailed,
    /// Counter space exhausted; rekey required.
    RekeyRequired,
    /// Too few secret shares were delivered to reconstruct a key.
    InsufficientShares,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::AuthFailed => write!(f, "authentication failed"),
            ProtoError::Replayed => write!(f, "replay detected"),
            ProtoError::Malformed => write!(f, "malformed protocol frame"),
            ProtoError::FreshnessLost => write!(f, "freshness value out of window"),
            ProtoError::ReassemblyFailed => write!(f, "reassembly failed"),
            ProtoError::RekeyRequired => write!(f, "counter exhausted, rekey required"),
            ProtoError::InsufficientShares => {
                write!(f, "not enough key shares delivered")
            }
        }
    }
}

impl std::error::Error for ProtoError {}
