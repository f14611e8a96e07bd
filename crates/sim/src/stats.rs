//! Small statistics helpers used by the experiment harnesses.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); `0.0` for fewer than two
/// samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Percentile by linear interpolation between closest ranks.
///
/// `p` is in `[0, 100]`. Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any sample is NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Empty input produces an all-zero summary.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Self {
            n: xs.len(),
            mean: mean(xs),
            stddev: stddev(xs),
            min,
            p50: percentile(xs, 50.0),
            p95: percentile(xs, 95.0),
            p99: percentile(xs, 99.0),
            max,
        }
    }
}

/// A moment accumulator (Welford): mean, variance, min, max and count
/// without storing samples. Callers fold per-trial results into it with
/// [`push`](RunningStats::push) in trial order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.mean = x;
            self.m2 = 0.0;
            self.min = x;
            self.max = x;
            return;
        }
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator); `0.0` for fewer
    /// than two samples.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.n, self.mean, self.stddev, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((stddev(&xs) - 2.138).abs() < 0.01);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_p() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn summary_is_consistent() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p95 > s.p50 && s.p99 > s.p95);
    }

    #[test]
    fn running_stats_match_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), xs.len() as u64);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.stddev() - stddev(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), 2.0);
        assert_eq!(rs.max(), 9.0);
    }
}
