//! Physical-layer adversary models for distance manipulation.
//!
//! Three families, matching the paper's discussion (§II-A/§II-B):
//!
//! - **Distance reduction** against HRP correlation receivers:
//!   [`HrpAttack::cicada`] (blind early-pulse injection) and
//!   [`HrpAttack::ed_lc`] (early-detect/late-commit with partial STS
//!   knowledge).
//! - **Relay** ([`RelayAttack`]) against PKES: amplify-and-forward between
//!   the car and a far-away key fob. Cannot reduce time-of-flight — it
//!   *adds* processing delay — which is exactly why secure ranging defeats
//!   it while RSSI proximity does not.
//! - **Distance enlargement** ([`OvershadowAttack`]) against collision
//!   avoidance: attenuate/annihilate the legitimate first path and replay
//!   a stronger, delayed copy.

use autosec_sim::SimRng;

use crate::hrp::PULSE_SPREAD;
use crate::signal::{Waveform, SAMPLES_PER_METER};

/// An attack on an HRP STS measurement, applied to the received waveform
/// before time-of-arrival estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct HrpAttack {
    /// How many metres earlier the fake path should appear.
    pub advance_m: f64,
    /// Amplitude of injected pulses relative to the legitimate ones.
    pub power: f64,
    /// Fraction of STS pulse polarities the attacker knows (0 = blind
    /// Cicada-style injection, 1 = full oracle). Early-detect/late-commit
    /// receivers achieve intermediate values.
    pub knowledge: f64,
}

impl HrpAttack {
    /// Blind early-pulse injection (Cicada / ghost-peak style): the
    /// attacker hammers pulses at the advanced position with random
    /// polarity, hoping the correlation spikes early.
    pub fn cicada(advance_m: f64, power: f64) -> Self {
        Self {
            advance_m,
            power,
            knowledge: 0.0,
        }
    }

    /// Early-detect/late-commit: the attacker demodulates part of each
    /// pulse before committing its own, getting `knowledge` of the
    /// polarities right.
    pub fn ed_lc(advance_m: f64, power: f64, knowledge: f64) -> Self {
        Self {
            advance_m,
            power,
            knowledge: knowledge.clamp(0.0, 1.0),
        }
    }

    /// Advance in whole samples.
    pub fn advance_samples(&self) -> usize {
        (self.advance_m * SAMPLES_PER_METER).round() as usize
    }

    /// Injects the attack signal into `rx`.
    ///
    /// `true_delay` is the line-of-sight arrival (samples);
    /// `polarities` are the true STS polarities — the attacker sees each
    /// with probability [`HrpAttack::knowledge`], otherwise guesses.
    pub fn apply(
        &self,
        rx: &mut Waveform,
        true_delay: usize,
        polarities: &[f64],
        rng: &mut SimRng,
    ) {
        let adv = self.advance_samples();
        let start = true_delay.saturating_sub(adv);
        for (i, &true_p) in polarities.iter().enumerate() {
            let p = if rng.chance(self.knowledge) {
                true_p
            } else if rng.chance(0.5) {
                1.0
            } else {
                -1.0
            };
            rx.add_impulse(start + i * PULSE_SPREAD, p * self.power);
        }
    }
}

/// A classic two-sided PKES relay: one device near the car, one near the
/// far-away key fob, forwarding signals both ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayAttack {
    /// Distance from car to the relay endpoint near it, in metres.
    pub car_to_relay_m: f64,
    /// Distance from the fob to its relay endpoint, in metres.
    pub fob_to_relay_m: f64,
    /// Distance bridged between the two relay endpoints, in metres.
    pub relay_span_m: f64,
    /// Per-hop electronic processing delay, in nanoseconds.
    pub processing_ns: f64,
}

impl RelayAttack {
    /// A typical parking-lot relay: car on the driveway, fob 40 m away
    /// inside the house, 15 ns of amplifier latency per direction.
    pub fn typical() -> Self {
        Self {
            car_to_relay_m: 1.0,
            fob_to_relay_m: 2.0,
            relay_span_m: 40.0,
            processing_ns: 15.0,
        }
    }

    /// Total one-way signal path length the relayed signal traverses, in
    /// metres.
    pub fn total_path_m(&self) -> f64 {
        self.car_to_relay_m + self.relay_span_m + self.fob_to_relay_m
    }

    /// The distance a *time-of-flight* ranging system measures through the
    /// relay: full path plus processing delays expressed as light-metres.
    /// Always an **enlargement** relative to the real fob distance —
    /// relays cannot make light faster.
    pub fn tof_apparent_distance_m(&self) -> f64 {
        let processing_m = 2.0 * self.processing_ns * 1e-9 * crate::C_M_PER_S / 2.0;
        self.total_path_m() + processing_m
    }

    /// The apparent proximity an *RSSI-based* legacy PKES infers: the
    /// relay amplifies, so the fob looks as close as the relay endpoint.
    pub fn rssi_apparent_distance_m(&self) -> f64 {
        self.car_to_relay_m
    }
}

/// Distance-enlargement adversary (§II-B): attenuates the legitimate
/// first path (imperfect annihilation) and injects a strong delayed copy,
/// trying to make an approaching object look farther than it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvershadowAttack {
    /// Extra distance the attacker wants to add, in metres.
    pub delay_m: f64,
    /// Power of the delayed replayed copy relative to the legitimate path.
    pub power: f64,
    /// Fraction of legitimate first-path amplitude that *survives* the
    /// attacker's annihilation attempt (0 = perfect cancellation, which
    /// is physically unrealistic; UWB-ED exploits the residue).
    pub residual: f64,
}

impl OvershadowAttack {
    /// Delay in samples.
    pub fn delay_samples(&self) -> usize {
        (self.delay_m * SAMPLES_PER_METER).round() as usize
    }

    /// Applies the attack: scales the window containing the legitimate
    /// signal by `residual` and superimposes an amplified copy `delay_m`
    /// later.
    pub fn apply(&self, rx: &mut Waveform, legit: &Waveform, true_delay: usize) {
        // Imperfect annihilation of the legitimate signal.
        let n = legit.len();
        for i in 0..n {
            let idx = true_delay + i;
            if idx < rx.len() {
                let legit_amp = legit.samples()[i];
                // Remove (1 - residual) of the legitimate contribution.
                rx.samples_mut()[idx] -= legit_amp * (1.0 - self.residual);
            }
        }
        // Strong delayed replay.
        let offset = (true_delay + self.delay_samples()) as isize;
        rx.superimpose_scaled(legit, offset, self.power);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cicada_is_blind() {
        let a = HrpAttack::cicada(5.0, 2.0);
        assert_eq!(a.knowledge, 0.0);
        assert!(a.advance_samples() > 60); // 5 m ≈ 67 samples
    }

    #[test]
    fn ed_lc_clamps_knowledge() {
        assert_eq!(HrpAttack::ed_lc(1.0, 1.0, 1.7).knowledge, 1.0);
        assert_eq!(HrpAttack::ed_lc(1.0, 1.0, -0.3).knowledge, 0.0);
    }

    #[test]
    fn hrp_attack_injects_expected_energy() {
        let a = HrpAttack::cicada(2.0, 3.0);
        let polarities = vec![1.0; 16];
        let mut rx = Waveform::zeros(400);
        let mut rng = SimRng::seed(1);
        a.apply(&mut rx, 200, &polarities, &mut rng);
        // 16 pulses of amplitude 3 → energy 144.
        assert!((rx.energy() - 144.0).abs() < 1e-9);
        let start = 200 - a.advance_samples();
        assert!(rx.samples()[start].abs() > 2.9);
    }

    #[test]
    fn relay_always_enlarges_tof() {
        let r = RelayAttack::typical();
        assert!(r.tof_apparent_distance_m() > r.total_path_m());
        assert!(r.tof_apparent_distance_m() > 43.0);
        assert!(r.rssi_apparent_distance_m() < 2.0);
    }

    #[test]
    fn overshadow_moves_energy_later() {
        let mut legit = Waveform::zeros(4);
        legit.add_impulse(0, 1.0);
        let mut rx = Waveform::zeros(300);
        rx.superimpose_scaled(&legit, 100, 1.0);
        let atk = OvershadowAttack {
            delay_m: 6.0,
            power: 4.0,
            residual: 0.1,
        };
        atk.apply(&mut rx, &legit, 100);
        assert!((rx.samples()[100] - 0.1).abs() < 1e-9, "residual remains");
        let late = 100 + atk.delay_samples();
        assert!((rx.samples()[late] - 4.0).abs() < 1e-9, "strong late copy");
    }

    #[test]
    fn perfect_annihilation_leaves_nothing() {
        let mut legit = Waveform::zeros(1);
        legit.add_impulse(0, 1.0);
        let mut rx = Waveform::zeros(200);
        rx.superimpose_scaled(&legit, 50, 1.0);
        let atk = OvershadowAttack {
            delay_m: 3.0,
            power: 2.0,
            residual: 0.0,
        };
        atk.apply(&mut rx, &legit, 50);
        assert!(rx.samples()[50].abs() < 1e-12);
    }
}
