//! E4–E7: protocol matrix (Table I) and scenario comparison (Figs. 4–6).

use autosec_secproto::cansec::CansecTx;
use autosec_secproto::dtls::DtlsSession;
use autosec_secproto::ipsec::EspSa;
use autosec_secproto::macsec::{MacsecFrame, MacsecMode, MacsecTx};
use autosec_secproto::scenarios::{evaluate, table1, Scenario};
use autosec_secproto::secoc::{SecOcAuthenticator, SecOcConfig};

use crate::Table;

/// E4: the paper's Table I, regenerated from the implementation.
pub fn e4_table1() -> Table {
    let mut t = Table::new(
        "E4",
        "Table I — existing security protocols for in-vehicle communication",
        &["ISO-OSI", "layer", "Ethernet", "CAN XL"],
    );
    for row in table1() {
        t.push_row(vec![
            row.osi_layer.to_string(),
            row.layer_name.to_owned(),
            row.ethernet.unwrap_or("-").to_owned(),
            row.can_xl.unwrap_or("-").to_owned(),
        ]);
    }
    t
}

/// Per-protocol wire overhead, measured by running each protocol.
pub fn e4_overhead_table() -> Table {
    let mut t = Table::new(
        "E4",
        "Table I protocols — measured per-message overhead (64 B payload)",
        &[
            "protocol",
            "layer",
            "overhead B",
            "confidential",
            "replay protection",
        ],
    );
    let payload = vec![0xA5u8; 64];

    // SECOC.
    let cfg = SecOcConfig::default();
    let mut secoc = SecOcAuthenticator::new_sender(cfg, [1; 16], 1);
    let pdu = secoc.protect(&payload).expect("fresh counter");
    t.push_row(vec![
        "SECOC".into(),
        "7 application".into(),
        (pdu.wire_len(&cfg) - payload.len()).to_string(),
        "no".into(),
        "freshness counters".into(),
    ]);

    // DTLS.
    let (mut client, _) = DtlsSession::establish(b"psk", b"nonce");
    let rec = client.seal(&payload).expect("fresh seq");
    t.push_row(vec![
        "(D)TLS".into(),
        "4 transport".into(),
        (rec.wire_len() - payload.len()).to_string(),
        "yes".into(),
        "sequence numbers".into(),
    ]);

    // IPsec ESP.
    let mut esp = EspSa::new([2; 16], 7);
    let pkt = esp.encapsulate(&payload).expect("fresh seq");
    t.push_row(vec![
        "IPsec ESP".into(),
        "3 network".into(),
        (pkt.wire_len() - payload.len()).to_string(),
        "yes".into(),
        "sequence window".into(),
    ]);

    // MACsec: SecTAG + ICV around the (here encrypted) payload.
    let mut mtx = MacsecTx::new([3; 16], 5, MacsecMode::AuthenticatedEncryption);
    let frame = mtx.protect(&payload).expect("fresh pn");
    debug_assert_eq!(
        frame.wire_len() - payload.len(),
        MacsecFrame::overhead_bytes()
    );
    t.push_row(vec![
        "MACsec".into(),
        "2 data link".into(),
        MacsecFrame::overhead_bytes().to_string(),
        "optional".into(),
        "packet numbers".into(),
    ]);

    // CANsec.
    let mut ctx = CansecTx::new([4; 16], 1, true);
    let xl = ctx.protect(0x50, 0, &payload).expect("fits XL");
    t.push_row(vec![
        "CANsec".into(),
        "2 data link".into(),
        (xl.data().len() - payload.len()).to_string(),
        "optional".into(),
        "freshness values".into(),
    ]);
    t
}

/// E5–E7: the full S1/S2/S3 comparison at several payload sizes.
pub fn e567_scenario_table() -> Table {
    let mut t = Table::new(
        "E5-E7",
        "Figs. 4-6 — deployment scenarios S1/S2/S3",
        &[
            "scenario",
            "payload B",
            "overhead B",
            "frames",
            "crypto ops",
            "ZC keys",
            "latency us",
            "confidential",
        ],
    );
    for payload in [8usize, 64, 256, 1024] {
        for s in Scenario::ALL {
            let r = evaluate(s, payload);
            t.push_row(vec![
                s.label().to_owned(),
                payload.to_string(),
                r.segment_overhead_bytes.to_string(),
                r.segment_frames.to_string(),
                r.crypto_ops.to_string(),
                r.zc_session_keys.to_string(),
                format!("{:.1}", r.e2e_latency_us),
                if r.confidential_on_segment {
                    "yes"
                } else {
                    "no"
                }
                .into(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_shape() {
        let t = e4_table1();
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0][2], "SECOC");
        assert_eq!(t.rows[3][3], "CANsec");
    }

    #[test]
    fn overhead_table_has_all_five_protocols() {
        let t = e4_overhead_table();
        assert_eq!(t.rows.len(), 5);
        // SECOC is the lightest; MACsec-family heavier.
        let secoc: usize = t.rows[0][2].parse().expect("number");
        let macsec: usize = t.rows[3][2].parse().expect("number");
        assert!(secoc < macsec);
    }

    #[test]
    fn scenario_table_covers_all_combinations() {
        let t = e567_scenario_table();
        assert_eq!(t.rows.len(), 4 * 4);
    }
}
