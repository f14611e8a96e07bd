//! Golden outputs of the UWB ranging receivers.
//!
//! Each pin is the SHA-256 of a fixed-seed batch of measurement
//! outcomes, every `f64` hashed by its bit pattern. The batches cover
//! both HRP receivers with and without an [`HrpAttack`], the UWB-ED
//! enlargement detector with and without an overshadow attack, and a
//! multipath channel. The pins were taken from the dense
//! offset-by-offset correlation loop, so a correlation kernel or
//! channel change that moves a single bit of any profile that decides
//! an outcome fails here, before it shows up as a changed experiment
//! table.

use autosec_crypto::{util::to_hex, Sha256};
use autosec_phy::attacks::{HrpAttack, OvershadowAttack};
use autosec_phy::enlargement::{EnlargementConfig, EnlargementDetector};
use autosec_phy::hrp::{HrpConfig, HrpRanging, ReceiverKind};
use autosec_phy::{Channel, Waveform};
use autosec_sim::SimRng;

fn put(h: &mut Sha256, values: &[f64]) {
    for v in values {
        h.update(&v.to_bits().to_le_bytes());
    }
}

#[test]
fn hrp_outcomes_from_fixed_seed() {
    let attacks = [
        None,
        Some(HrpAttack::cicada(8.0, 3.0)),
        Some(HrpAttack::ed_lc(5.0, 1.5, 0.6)),
        Some(HrpAttack::ed_lc(3.0, 2.0, 1.0)),
    ];
    let mut h = Sha256::new();
    for kind in [
        ReceiverKind::NaiveLeadingEdge,
        ReceiverKind::IntegrityChecked,
    ] {
        let session = HrpRanging::new(HrpConfig::default(), kind);
        for (a, attack) in attacks.iter().enumerate() {
            let mut rng = SimRng::seed(42).fork_idx(a as u64);
            for d in [1.0, 7.5, 20.0, 50.0] {
                for _ in 0..4 {
                    let o = session.measure(d, attack.as_ref(), &mut rng);
                    put(&mut h, &[o.true_m, o.estimated_m, o.reduction_m]);
                    h.update(&[o.rejected as u8]);
                }
            }
        }
    }
    assert_eq!(
        to_hex(&h.finalize()),
        "393eeb74800e95e49209c519e867961f6ea2e068b6bc9e731c28ce607e455e5b"
    );
}

#[test]
fn enlargement_outcomes_from_fixed_seed() {
    let attacks = [
        None,
        Some(OvershadowAttack {
            delay_m: 15.0,
            power: 3.0,
            residual: 0.3,
        }),
        Some(OvershadowAttack {
            delay_m: 8.0,
            power: 2.0,
            residual: 0.0,
        }),
    ];
    let det = EnlargementDetector::new(EnlargementConfig::default());
    let mut h = Sha256::new();
    for (a, attack) in attacks.iter().enumerate() {
        let mut rng = SimRng::seed(7).fork_idx(a as u64);
        for d in [2.0, 25.0, 60.0] {
            for _ in 0..4 {
                let o = det.measure(d, attack.as_ref(), &mut rng);
                put(&mut h, &[o.true_m, o.estimated_m]);
                h.update(&[o.enlarged as u8, o.detected as u8]);
            }
        }
    }
    assert_eq!(
        to_hex(&h.finalize()),
        "c0e4da1feb98d8e08031bee0c1070bd48d721075477d5e1bf77156a8de027660"
    );
}

#[test]
fn multipath_channel_from_fixed_seed() {
    let mut tx = Waveform::zeros(64);
    for i in (0..64).step_by(4) {
        tx.add_impulse(i, if i % 8 == 0 { 1.0 } else { -1.0 });
    }
    let channel = Channel::line_of_sight(3.0, 25.0)
        .with_multipath()
        .with_direct_gain(0.7);
    let rx = channel.propagate(&tx, 160, &mut SimRng::seed(11));
    let mut h = Sha256::new();
    put(&mut h, rx.samples());
    put(&mut h, &rx.correlate(&tx));
    assert_eq!(
        to_hex(&h.finalize()),
        "b6cd217cfe663ce2d4c7048452b8b7711d159a28d6b93b3002682ec5c5114c24"
    );
}
