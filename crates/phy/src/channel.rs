//! Propagation channel: line-of-sight delay, multipath taps, path loss and
//! additive white Gaussian noise.

use autosec_sim::SimRng;

use crate::signal::{Waveform, SAMPLES_PER_METER};

/// One multipath echo: excess delay (in samples, relative to the direct
/// path) and amplitude gain relative to the direct path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Excess delay in samples after the line-of-sight path.
    pub excess_delay_samples: usize,
    /// Relative amplitude (0..1 for attenuated echoes).
    pub gain: f64,
}

/// A simulated UWB channel between two transceivers.
///
/// # Example
///
/// ```
/// use autosec_phy::{Channel, Waveform};
/// use autosec_sim::SimRng;
///
/// let ch = Channel::line_of_sight(10.0, 20.0);
/// let mut tx = Waveform::zeros(4);
/// tx.add_impulse(0, 1.0);
/// let rx = ch.propagate(&tx, 200, &mut SimRng::seed(3));
/// assert_eq!(rx.len(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    distance_m: f64,
    taps: Vec<Tap>,
    snr_db: f64,
    /// Amplitude gain of the direct path (models path loss; 1.0 = none).
    direct_gain: f64,
}

impl Channel {
    /// A clean line-of-sight channel at `distance_m` with the given SNR.
    pub fn line_of_sight(distance_m: f64, snr_db: f64) -> Self {
        assert!(distance_m >= 0.0, "negative distance");
        Self {
            distance_m,
            taps: Vec::new(),
            snr_db,
            direct_gain: 1.0,
        }
    }

    /// Adds a typical indoor/urban multipath profile: three echoes of
    /// decreasing strength.
    pub fn with_multipath(mut self) -> Self {
        self.taps = vec![
            Tap {
                excess_delay_samples: 3,
                gain: 0.6,
            },
            Tap {
                excess_delay_samples: 8,
                gain: 0.35,
            },
            Tap {
                excess_delay_samples: 15,
                gain: 0.2,
            },
        ];
        self
    }

    /// Overrides the multipath taps.
    pub fn with_taps(mut self, taps: Vec<Tap>) -> Self {
        self.taps = taps;
        self
    }

    /// Overrides the direct-path gain (e.g. 0.5 for obstructed LoS).
    pub fn with_direct_gain(mut self, gain: f64) -> Self {
        self.direct_gain = gain;
        self
    }

    /// Channel distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// One-way flight delay in samples.
    pub fn delay_samples(&self) -> usize {
        (self.distance_m * SAMPLES_PER_METER).round() as usize
    }

    /// Noise standard deviation for a unit-amplitude signal at the
    /// configured SNR.
    pub fn noise_sigma(&self) -> f64 {
        // SNR(dB) = 20 log10(A / sigma) with A = 1.
        10f64.powf(-self.snr_db / 20.0)
    }

    /// Propagates `tx` through the channel into an observation window of
    /// `window_len` samples: applies flight delay, multipath echoes, and
    /// AWGN.
    pub fn propagate(&self, tx: &Waveform, window_len: usize, rng: &mut SimRng) -> Waveform {
        let mut rx = Waveform::zeros(window_len);
        let delay = self.delay_samples() as isize;
        // Direct path.
        rx.superimpose_scaled(tx, delay, self.direct_gain);
        // Echoes.
        for tap in &self.taps {
            let offset = delay + tap.excess_delay_samples as isize;
            rx.superimpose_scaled(tx, offset, tap.gain * self.direct_gain);
        }
        // Noise.
        let sigma = self.noise_sigma();
        if sigma > 0.0 {
            for s in rx.samples_mut() {
                *s += rng.normal_with(0.0, sigma);
            }
        }
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_matches_distance() {
        let ch = Channel::line_of_sight(10.0, 100.0);
        // 10 m ≈ 133 samples.
        assert_eq!(ch.delay_samples(), 133);
    }

    #[test]
    fn clean_channel_preserves_impulse() {
        let ch = Channel::line_of_sight(1.0, 200.0); // essentially noiseless
        let mut tx = Waveform::zeros(1);
        tx.add_impulse(0, 1.0);
        let rx = ch.propagate(&tx, 50, &mut SimRng::seed(1));
        let d = ch.delay_samples();
        assert!((rx.samples()[d] - 1.0).abs() < 1e-6);
        assert!(rx.energy_in(0, d) < 1e-9);
    }

    #[test]
    fn multipath_adds_later_energy() {
        let ch = Channel::line_of_sight(2.0, 200.0).with_multipath();
        let mut tx = Waveform::zeros(1);
        tx.add_impulse(0, 1.0);
        let rx = ch.propagate(&tx, 80, &mut SimRng::seed(2));
        let d = ch.delay_samples();
        assert!((rx.samples()[d] - 1.0).abs() < 1e-6);
        assert!((rx.samples()[d + 3] - 0.6).abs() < 1e-6);
        assert!((rx.samples()[d + 8] - 0.35).abs() < 1e-6);
    }

    #[test]
    fn noise_scales_with_snr() {
        let quiet = Channel::line_of_sight(0.0, 40.0);
        let loud = Channel::line_of_sight(0.0, 10.0);
        assert!(loud.noise_sigma() > quiet.noise_sigma());
        let tx = Waveform::zeros(1);
        let mut rng = SimRng::seed(3);
        let rx = loud.propagate(&tx, 10_000, &mut rng);
        let sigma_est = (rx.energy() / 10_000.0).sqrt();
        assert!((sigma_est - loud.noise_sigma()).abs() / loud.noise_sigma() < 0.05);
    }

    #[test]
    fn direct_gain_attenuates() {
        let ch = Channel::line_of_sight(1.0, 300.0).with_direct_gain(0.5);
        let mut tx = Waveform::zeros(1);
        tx.add_impulse(0, 2.0);
        let rx = ch.propagate(&tx, 30, &mut SimRng::seed(4));
        assert!((rx.samples()[ch.delay_samples()] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "negative distance")]
    fn negative_distance_rejected() {
        let _ = Channel::line_of_sight(-1.0, 10.0);
    }
}
