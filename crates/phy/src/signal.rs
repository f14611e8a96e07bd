//! Discrete-time baseband waveforms.
//!
//! Everything at the physical layer is a vector of amplitude samples at a
//! fixed 250 ps sample period — fine enough to resolve ~7.5 cm of one-way
//! distance per sample, which is the scale at which the Fig. 2 attacks
//! operate.

use crate::PS_PER_METER;

/// Sample period in picoseconds (4 GS/s).
pub const SAMPLE_PS: f64 = 250.0;

/// Samples of one-way flight per metre of distance (~13.3).
pub const SAMPLES_PER_METER: f64 = PS_PER_METER / SAMPLE_PS;

/// A baseband waveform: amplitude per 250 ps sample.
///
/// # Example
///
/// ```
/// use autosec_phy::Waveform;
/// let mut w = Waveform::zeros(10);
/// w.add_impulse(3, 1.0);
/// assert_eq!(w.samples()[3], 1.0);
/// assert_eq!(w.energy(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    samples: Vec<f64>,
}

impl Waveform {
    /// A silent waveform of `len` samples.
    pub fn zeros(len: usize) -> Self {
        Self {
            samples: vec![0.0; len],
        }
    }

    /// Builds from raw samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// Sample buffer.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable sample buffer.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Adds an impulse of `amplitude` at sample `idx` (ignored if out of
    /// range — attacker pulses may fall outside the observation window).
    pub fn add_impulse(&mut self, idx: usize, amplitude: f64) {
        if let Some(s) = self.samples.get_mut(idx) {
            *s += amplitude;
        }
    }

    /// Superimposes `other`, every sample multiplied by `gain`, onto this
    /// waveform, offset by `offset` samples; samples falling outside this
    /// waveform are dropped.
    pub(crate) fn superimpose_scaled(&mut self, other: &Waveform, offset: isize, gain: f64) {
        for (i, &v) in other.samples.iter().enumerate() {
            let idx = i as isize + offset;
            if idx >= 0 && (idx as usize) < self.samples.len() {
                self.samples[idx as usize] += v * gain;
            }
        }
    }

    /// Total signal energy (sum of squared amplitudes).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|s| s * s).sum()
    }

    /// Energy within the half-open sample window `[start, end)`, clamped
    /// to the waveform bounds.
    pub fn energy_in(&self, start: usize, end: usize) -> f64 {
        let end = end.min(self.samples.len());
        if start >= end {
            return 0.0;
        }
        self.samples[start..end].iter().map(|s| s * s).sum()
    }

    /// Sliding cross-correlation of this received waveform against a
    /// `template`, evaluated at every candidate offset
    /// `0 ..= len - template.len()`. Returns the raw correlation profile.
    ///
    /// Only the template's non-zero taps contribute. Each offset's value
    /// starts at `0.0` and adds `tap * sample` for those taps in
    /// ascending tap order, so the profile is bit-for-bit the one an
    /// offset-by-offset dot product gives; the work is done tap by tap
    /// across all offsets, which skips the zero gaps of a pulse train.
    ///
    /// # Panics
    ///
    /// Panics if the template is longer than the waveform or empty.
    pub fn correlate(&self, template: &Waveform) -> Vec<f64> {
        assert!(!template.is_empty(), "empty correlation template");
        assert!(
            template.len() <= self.len(),
            "template longer than waveform"
        );
        let n = self.len() - template.len() + 1;
        let mut out = vec![0.0; n];
        for (j, &t) in template.samples.iter().enumerate() {
            if t != 0.0 {
                for (acc, &x) in out.iter_mut().zip(&self.samples[j..j + n]) {
                    *acc += t * x;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_and_energy() {
        let mut w = Waveform::zeros(8);
        w.add_impulse(2, 2.0);
        w.add_impulse(5, -1.0);
        w.add_impulse(100, 9.0); // silently ignored
        assert_eq!(w.energy(), 5.0);
        assert_eq!(w.energy_in(0, 3), 4.0);
        assert_eq!(w.energy_in(3, 8), 1.0);
        assert_eq!(w.energy_in(6, 3), 0.0);
    }

    #[test]
    fn superimpose_with_offsets() {
        let mut base = Waveform::zeros(5);
        let mut add = Waveform::zeros(2);
        add.add_impulse(0, 1.0);
        add.add_impulse(1, 2.0);
        base.superimpose_scaled(&add, 3, 1.0);
        assert_eq!(base.samples(), &[0.0, 0.0, 0.0, 1.0, 2.0]);
        base.superimpose_scaled(&add, -1, 1.0); // first sample clipped
        assert_eq!(base.samples()[0], 2.0);
        base.superimpose_scaled(&add, 4, 1.0); // second sample clipped
        assert_eq!(base.samples()[4], 3.0);
    }

    #[test]
    fn correlation_peaks_at_true_offset() {
        let mut template = Waveform::zeros(4);
        template.add_impulse(0, 1.0);
        template.add_impulse(2, -1.0);
        let mut rx = Waveform::zeros(16);
        rx.superimpose_scaled(&template, 7, 1.0);
        let profile = rx.correlate(&template);
        let (best, _) = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(best, 7);
    }

    /// The dense offset-by-offset loop, kept as the bit-exact reference
    /// for [`Waveform::correlate`]: each offset starts at `0.0` and adds
    /// `t * x` for every non-zero tap in ascending tap order.
    fn dense_correlate(rx: &Waveform, template: &Waveform) -> Vec<f64> {
        let n = rx.len() - template.len() + 1;
        (0..n)
            .map(|off| {
                let mut acc = 0.0;
                for (j, &t) in template.samples().iter().enumerate() {
                    if t != 0.0 {
                        acc += t * rx.samples()[off + j];
                    }
                }
                acc
            })
            .collect()
    }

    fn assert_matches_reference(rx: &Waveform, template: &Waveform) {
        let got = rx.correlate(template);
        let want = dense_correlate(rx, template);
        assert_eq!(got.len(), want.len());
        for (off, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "offset {off} of {}-tap template over {} samples: {g} vs {w}",
                template.len(),
                rx.len()
            );
        }
    }

    #[test]
    fn correlate_matches_dense_reference_bit_for_bit() {
        use autosec_sim::SimRng;
        use rand::Rng;

        let mut rng = SimRng::seed(0x5EED_C0DE);
        let noise = |rng: &mut SimRng, len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.normal_with(0.0, 3.0)).collect()
        };
        for _ in 0..48 {
            let len = rng.gen_range(1..=400usize);
            let rx = Waveform::from_samples(noise(&mut rng, len));
            let short = rng.gen_range(1..=len);

            // Length 1 and the full waveform length.
            assert_matches_reference(&rx, &Waveform::from_samples(noise(&mut rng, 1)));
            assert_matches_reference(&rx, &Waveform::from_samples(noise(&mut rng, len)));
            // All zeros, of both signs: no tap contributes.
            assert_matches_reference(&rx, &Waveform::zeros(short));
            assert_matches_reference(&rx, &Waveform::from_samples(vec![-0.0; short]));
            // Dense: every tap non-zero.
            assert_matches_reference(&rx, &Waveform::from_samples(noise(&mut rng, short)));
            // Sparse STS-style: a ±1 pulse every 4th sample.
            let mut sts = Waveform::zeros(short);
            for i in (0..short).step_by(4) {
                sts.add_impulse(i, if rng.chance(0.5) { 1.0 } else { -1.0 });
            }
            assert_matches_reference(&rx, &sts);
            // Mixed: `-0.0` and `0.0` taps among random ones.
            let mixed = (0..short)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.normal(),
                })
                .collect();
            assert_matches_reference(&rx, &Waveform::from_samples(mixed));
        }
    }

    #[test]
    #[should_panic(expected = "template longer")]
    fn correlate_rejects_long_template() {
        let w = Waveform::zeros(3);
        let t = Waveform::zeros(5);
        let _ = w.correlate(&t);
    }

    #[test]
    fn samples_per_meter_is_about_13() {
        assert!((SAMPLES_PER_METER - 13.34).abs() < 0.01);
    }
}
