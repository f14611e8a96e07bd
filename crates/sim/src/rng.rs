//! Deterministic random-number plumbing.
//!
//! Every experiment takes a single `u64` master seed; independent
//! subsystems derive their own decorrelated streams from it so that adding
//! a component never perturbs the random sequence of another.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seedable RNG with support for deriving independent child streams.
///
/// Wraps [`rand::rngs::StdRng`], adding [`SimRng::fork`] — a stable
/// label-based stream-split (SplitMix-style seed mixing).
///
/// # Example
///
/// ```
/// use autosec_sim::SimRng;
/// use rand::RngCore;
/// let mut root = SimRng::seed(42);
/// let mut channel = root.fork("uwb-channel");
/// let mut attacker = root.fork("attacker");
/// // Streams are decorrelated and reproducible:
/// assert_eq!(SimRng::seed(42).fork("uwb-channel").next_u64(), channel.next_u64());
/// assert_ne!(channel.next_u64(), attacker.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used to bind fork labels into seeds.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SimRng {
    /// Creates an RNG from a master seed.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// The master seed this stream was created from.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream bound to `label`.
    ///
    /// Forking is a pure function of `(master_seed, label)` — it does not
    /// consume state from `self`, so fork order never matters.
    pub fn fork(&self, label: &str) -> SimRng {
        let child = splitmix64(self.seed ^ fnv1a(label).rotate_left(17));
        SimRng {
            inner: StdRng::seed_from_u64(child),
            seed: child,
        }
    }

    /// Derives an independent child stream bound to a numeric index
    /// (e.g. per-trial streams in a Monte-Carlo sweep).
    pub fn fork_idx(&self, idx: u64) -> SimRng {
        let child = splitmix64(self.seed ^ splitmix64(idx ^ 0xA5A5_5A5A_DEAD_BEEF));
        SimRng {
            inner: StdRng::seed_from_u64(child),
            seed: child,
        }
    }

    /// Samples a standard-normal value (Box–Muller, polar-free variant).
    pub fn normal(&mut self) -> f64 {
        // Marsaglia polar method.
        loop {
            let u: f64 = self.inner.gen_range(-1.0..1.0);
            let v: f64 = self.inner.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Samples a normal with given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// The integer form of [`SimRng::chance`]: `rng.below(chance_threshold(p))`
    /// consumes one draw and returns what `rng.chance(p)` would have.
    ///
    /// `chance` compares `k · 2⁻⁵³` against `p`, where `k` is the
    /// draw's top 53 bits. That product is exact, and so is scaling
    /// `p` by `2⁵³`, so `k · 2⁻⁵³ < p` ⇔ `k < p · 2⁵³` ⇔
    /// `k < ⌈p · 2⁵³⌉`. The clamp mirrors `chance`; NaN maps to 0 and
    /// never hits, as in `chance`.
    #[inline]
    pub fn chance_threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// Bernoulli trial against a [`SimRng::chance_threshold`]: the same
    /// single draw as [`SimRng::chance`], without the float conversion.
    #[inline]
    pub fn below(&mut self, threshold: u64) -> bool {
        (self.inner.next_u64() >> 11) < threshold
    }

    /// Samples an exponential inter-arrival time with the given rate
    /// (events per unit); returns the time in the same unit.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_unit` is not strictly positive.
    pub fn exponential(&mut self, rate_per_unit: f64) -> f64 {
        assert!(rate_per_unit > 0.0, "exponential rate must be positive");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate_per_unit
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_stable_and_order_independent() {
        let root = SimRng::seed(99);
        let mut c1 = root.fork("x");
        let _ = root.fork("y");
        let mut c2 = SimRng::seed(99).fork("x");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn forks_decorrelate() {
        let root = SimRng::seed(1);
        let a = root.fork("a").next_u64();
        let b = root.fork("b").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn fork_idx_distinct() {
        let root = SimRng::seed(5);
        let vals: Vec<u64> = (0..16).map(|i| root.fork_idx(i).next_u64()).collect();
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len());
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = SimRng::seed(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn chance_respects_extremes() {
        let mut rng = SimRng::seed(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn threshold_form_agrees_with_chance() {
        let ps = [
            0.0,
            -0.0,
            5e-324,
            5e-4,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for (n, p) in ps.into_iter().enumerate() {
            let t = SimRng::chance_threshold(p);
            let mut a = SimRng::seed(11).fork_idx(n as u64);
            let mut b = a.clone();
            for draw in 0..100_000 {
                assert_eq!(a.chance(p), b.below(t), "p = {p:e}, draw {draw}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p = {p:e}: same draws consumed");
        }
        assert_eq!(SimRng::chance_threshold(f64::NAN), 0);
        assert_eq!(SimRng::chance_threshold(5e-324), 1);
        assert_eq!(
            SimRng::chance_threshold(1.0 - f64::EPSILON / 2.0),
            (1 << 53) - 1
        );
        assert_eq!(SimRng::chance_threshold(1.0), 1 << 53);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed(8);
        let rate = 4.0;
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }
}
