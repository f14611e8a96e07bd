//! IEEE 802.15.4z High-Rate-Pulse (HRP) mode with Secure Training
//! Sequences (STS).
//!
//! The paper (§II-A) explains the core weakness: *"if cross-correlation is
//! naively applied to compute the time-of-arrival on these STS sequences,
//! it opens the door to distance manipulation attacks"* — and the fix:
//! *"it is critical to implement integrity checks at the receiver"*
//! (refs \[4\], \[8\]). This module implements both receivers so E2 can
//! measure the difference:
//!
//! - [`ReceiverKind::NaiveLeadingEdge`] picks the earliest correlation
//!   peak above a fraction of the maximum — fast, standard, and
//!   vulnerable to early-pulse injection (Cicada / ghost-peak attacks).
//! - [`ReceiverKind::IntegrityChecked`] additionally demands per-pulse
//!   polarity consistency at the claimed first path. An attacker who does
//!   not know the pseudorandom STS polarities agrees on only ~50% of
//!   pulses and is rejected.

use autosec_crypto::AesCtr;
use autosec_sim::SimRng;

use crate::attacks::HrpAttack;
use crate::channel::Channel;
use crate::signal::{Waveform, SAMPLES_PER_METER};

/// Spacing between consecutive STS pulses, in samples.
pub const PULSE_SPREAD: usize = 4;

/// Configuration of an HRP ranging exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrpConfig {
    /// Number of STS pulses (IEEE 802.15.4z uses 32–4096; 64 keeps the
    /// simulation fast while preserving the statistics).
    pub n_pulses: usize,
    /// Channel signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Leading-edge threshold as a fraction of the maximum correlation.
    pub threshold_frac: f64,
    /// Minimum per-pulse polarity agreement for the integrity check.
    pub consistency_min: f64,
    /// Minimum absolute per-pulse amplitude counted as a real pulse.
    pub min_pulse_amp: f64,
    /// Extra observation window after the expected arrival, in samples.
    pub window_margin: usize,
    /// 128-bit STS key shared between initiator and responder.
    pub sts_key: [u8; 16],
}

impl Default for HrpConfig {
    fn default() -> Self {
        Self {
            n_pulses: 64,
            snr_db: 20.0,
            threshold_frac: 0.5,
            consistency_min: 0.80,
            min_pulse_amp: 0.35,
            window_margin: 64,
            sts_key: [0x5a; 16],
        }
    }
}

/// Which time-of-arrival algorithm the receiver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReceiverKind {
    /// Earliest correlation sample above `threshold_frac * max` wins.
    NaiveLeadingEdge,
    /// Leading edge plus per-pulse polarity integrity check (refs \[4\], \[8\]).
    IntegrityChecked,
}

/// Result of one HRP ranging measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrpOutcome {
    /// Ground-truth distance.
    pub true_m: f64,
    /// Distance the receiver reported.
    pub estimated_m: f64,
    /// True minus estimated (positive = distance reduction achieved).
    pub reduction_m: f64,
    /// The receiver refused the measurement (integrity check failed at
    /// every candidate). Treated as attack detected / ranging failed.
    pub rejected: bool,
}

/// One HRP secure-ranging exchange between an initiator and a responder.
#[derive(Debug, Clone)]
pub struct HrpRanging {
    cfg: HrpConfig,
    receiver: ReceiverKind,
}

impl HrpRanging {
    /// Creates a ranging exchange with the given receiver algorithm.
    pub fn new(cfg: HrpConfig, receiver: ReceiverKind) -> Self {
        Self { cfg, receiver }
    }

    /// Configuration in use.
    pub fn config(&self) -> &HrpConfig {
        &self.cfg
    }

    /// Generates the STS pulse polarities for `counter` from the session
    /// key — a fresh pseudorandom sequence per exchange, unpredictable to
    /// an attacker without the key.
    pub fn sts_polarities(&self, counter: u64) -> Vec<f64> {
        let ctr = AesCtr::new(&self.cfg.sts_key);
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&counter.to_be_bytes());
        let n_bytes = self.cfg.n_pulses.div_ceil(8);
        let stream = ctr.process(&iv, &vec![0u8; n_bytes]);
        (0..self.cfg.n_pulses)
            .map(|i| {
                if (stream[i / 8] >> (i % 8)) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    /// Builds the transmitted STS waveform for `counter`.
    pub fn sts_waveform(&self, counter: u64) -> Waveform {
        pulse_train(&self.sts_polarities(counter))
    }

    /// Runs one measurement over a line-of-sight channel of `distance_m`,
    /// with an optional attacker manipulating the received waveform.
    pub fn measure(
        &self,
        distance_m: f64,
        attack: Option<&HrpAttack>,
        rng: &mut SimRng,
    ) -> HrpOutcome {
        let counter = rng.next_u64_counter();
        let polarities = self.sts_polarities(counter);
        let template = pulse_train(&polarities);
        let channel = Channel::line_of_sight(distance_m, self.cfg.snr_db);
        let true_delay = channel.delay_samples();
        let window = true_delay + template.len() + self.cfg.window_margin;
        let mut rx = channel.propagate(&template, window, rng);

        if let Some(atk) = attack {
            atk.apply(&mut rx, true_delay, &polarities, rng);
        }

        let toa = self.estimate_toa(&rx, &template, &polarities);
        match toa {
            Some(delay_samples) => {
                let est_m = delay_samples as f64 / SAMPLES_PER_METER;
                HrpOutcome {
                    true_m: distance_m,
                    estimated_m: est_m,
                    reduction_m: distance_m - est_m,
                    rejected: false,
                }
            }
            None => HrpOutcome {
                true_m: distance_m,
                estimated_m: f64::NAN,
                reduction_m: 0.0,
                rejected: true,
            },
        }
    }

    /// Estimates the time of arrival (in samples) from a received
    /// waveform. `None` means the receiver rejected every candidate.
    fn estimate_toa(
        &self,
        rx: &Waveform,
        template: &Waveform,
        polarities: &[f64],
    ) -> Option<usize> {
        if template.len() > rx.len() {
            return None;
        }
        let profile = rx.correlate(template);
        let max = profile.iter().cloned().fold(f64::MIN, f64::max);
        if max <= 0.0 {
            return None;
        }
        let threshold = self.cfg.threshold_frac * max;
        match self.receiver {
            ReceiverKind::NaiveLeadingEdge => profile.iter().position(|&c| c >= threshold),
            ReceiverKind::IntegrityChecked => profile
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= threshold)
                .find(|&(off, _)| self.consistency_ok(rx, polarities, off))
                .map(|(off, _)| off),
        }
    }

    /// Per-pulse polarity agreement check at candidate offset `off`.
    fn consistency_ok(&self, rx: &Waveform, polarities: &[f64], off: usize) -> bool {
        let mut agree = 0usize;
        for (i, &p) in polarities.iter().enumerate() {
            let idx = off + i * PULSE_SPREAD;
            let s = rx.samples().get(idx).copied().unwrap_or(0.0);
            if s.abs() >= self.cfg.min_pulse_amp && (s > 0.0) == (p > 0.0) {
                agree += 1;
            }
        }
        agree as f64 / polarities.len() as f64 >= self.cfg.consistency_min
    }
}

/// The STS pulse train: one impulse of each polarity, [`PULSE_SPREAD`]
/// samples apart.
fn pulse_train(polarities: &[f64]) -> Waveform {
    let mut w = Waveform::zeros(polarities.len() * PULSE_SPREAD);
    for (i, &p) in polarities.iter().enumerate() {
        w.add_impulse(i * PULSE_SPREAD, p);
    }
    w
}

/// Extension trait-ish helper: deterministic per-measurement counters.
trait CounterSource {
    fn next_u64_counter(&mut self) -> u64;
}

impl CounterSource for SimRng {
    fn next_u64_counter(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::HrpAttack;

    fn rng() -> SimRng {
        SimRng::seed(0xC0FFEE)
    }

    #[test]
    fn clean_channel_accurate_for_both_receivers() {
        for kind in [
            ReceiverKind::NaiveLeadingEdge,
            ReceiverKind::IntegrityChecked,
        ] {
            let s = HrpRanging::new(HrpConfig::default(), kind);
            let mut r = rng();
            for d in [1.0, 5.0, 20.0, 50.0] {
                let out = s.measure(d, None, &mut r);
                assert!(!out.rejected, "{kind:?} rejected clean channel at {d} m");
                assert!(
                    (out.estimated_m - d).abs() < 0.5,
                    "{kind:?} at {d} m estimated {}",
                    out.estimated_m
                );
            }
        }
    }

    #[test]
    fn sts_changes_per_counter() {
        let s = HrpRanging::new(HrpConfig::default(), ReceiverKind::NaiveLeadingEdge);
        assert_ne!(s.sts_polarities(1), s.sts_polarities(2));
        assert_eq!(s.sts_polarities(7), s.sts_polarities(7));
    }

    #[test]
    fn sts_depends_on_key() {
        let cfg2 = HrpConfig {
            sts_key: [0x77; 16],
            ..HrpConfig::default()
        };
        let a = HrpRanging::new(HrpConfig::default(), ReceiverKind::NaiveLeadingEdge);
        let b = HrpRanging::new(cfg2, ReceiverKind::NaiveLeadingEdge);
        assert_ne!(a.sts_polarities(1), b.sts_polarities(1));
    }

    #[test]
    fn cicada_beats_naive_but_not_checked() {
        let cfg = HrpConfig::default();
        let attack = HrpAttack::cicada(8.0, 3.0); // reduce by 8 m at 3x power
        let naive = HrpRanging::new(cfg, ReceiverKind::NaiveLeadingEdge);
        let checked = HrpRanging::new(cfg, ReceiverKind::IntegrityChecked);

        let trials = 60;
        let mut naive_wins = 0;
        let mut checked_wins = 0;
        let mut r1 = rng();
        let mut r2 = SimRng::seed(0xBEEF);
        for _ in 0..trials {
            let o = naive.measure(20.0, Some(&attack), &mut r1);
            if !o.rejected && o.reduction_m > 1.0 {
                naive_wins += 1;
            }
            let o = checked.measure(20.0, Some(&attack), &mut r2);
            if !o.rejected && o.reduction_m > 1.0 {
                checked_wins += 1;
            }
        }
        assert!(
            naive_wins > trials / 2,
            "cicada should usually beat the naive receiver (won {naive_wins}/{trials})"
        );
        assert!(
            checked_wins <= trials / 20,
            "integrity check should stop cicada (won {checked_wins}/{trials})"
        );
    }

    #[test]
    fn full_knowledge_attacker_beats_everything() {
        // Sanity: an attacker who somehow knows the STS (knowledge = 1.0)
        // can always fake an early path — the defense is the secrecy of
        // the STS, which the check leverages, not magic.
        let cfg = HrpConfig::default();
        let attack = HrpAttack::ed_lc(5.0, 1.5, 1.0);
        let checked = HrpRanging::new(cfg, ReceiverKind::IntegrityChecked);
        let mut r = rng();
        let mut wins = 0;
        for _ in 0..20 {
            let o = checked.measure(15.0, Some(&attack), &mut r);
            if !o.rejected && o.reduction_m > 1.0 {
                wins += 1;
            }
        }
        assert!(wins >= 18, "oracle attacker won only {wins}/20");
    }

    #[test]
    fn rejection_reports_nan_estimate() {
        let cfg = HrpConfig {
            consistency_min: 1.01, // impossible: force rejection
            ..HrpConfig::default()
        };
        let s = HrpRanging::new(cfg, ReceiverKind::IntegrityChecked);
        let out = s.measure(10.0, None, &mut rng());
        assert!(out.rejected);
        assert!(out.estimated_m.is_nan());
    }
}
