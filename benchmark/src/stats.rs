//! Order statistics over a metric's raw samples.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so spreads computed here match
//! the ones an external checker computes from the same numbers.

use serde_json::{json, Value};

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub(crate) fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive") gives them.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when two samples clamp `j` up to 1: Python
        // extrapolates below the first sample then, and so do we.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median absolute deviation from the median.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub(crate) fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The spread a bound is judged against, as a share of the median
/// (0 for a zero median): twice the MAD. For normal noise that equals
/// the interquartile range, but unlike the quartiles of three to six
/// samples it ignores a lone outlier.
pub(crate) fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        2.0 * mad(values) / m.abs()
    }
}

/// The summary recorded beside a metric's raw samples.
pub(crate) fn summary(values: &[f64]) -> Value {
    let v = sorted(values);
    let (q1, q3) = quartiles(&v);
    json!({
        "n": v.len(),
        "median": median(&v),
        "min": v[0],
        "max": v[v.len() - 1],
        "q1": q1,
        "q3": q3,
        "mad": mad(&v),
        "samples": values.to_vec(),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // deviations from the median 3: [2, 1, 0, 1, 97] -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn relative_spread_is_twice_the_mad_over_the_median() {
        // median 5.5; absolute deviations have median 2.5
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.0 / 5.5).abs() < 1e-12);
        // One slow sample of four barely widens it.
        assert!((relative_spread(&[10.0, 10.2, 9.8, 30.0]) - 0.4 / 10.1).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn summary_keeps_raw_samples_in_order() {
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!(s["n"].as_u64(), Some(3));
        assert_eq!(s["median"].as_f64(), Some(2.0));
        assert_eq!(s["min"].as_f64(), Some(1.0));
        assert_eq!(s["max"].as_f64(), Some(3.0));
        let raw: Vec<f64> = s["samples"]
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(raw, vec![3.0, 1.0, 2.0]);
    }
}
