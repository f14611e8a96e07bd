//! `compare A B`: one verdict per (workload, end-to-end metric) between
//! two results files, judged against the metric's bound in
//! `BENCHMARK.json`.

use std::fmt;

use serde_json::Value;

use crate::stats::{median, relative_spread};

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Improved,
    /// The medians are within the bound of each other.
    Unchanged,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The samples spread wider than the bound, so the medians cannot
    /// be told apart (unless every sample of one side beats every
    /// sample of the other).
    Unresolved,
    /// A and B computed different outputs; their speeds are not
    /// comparable.
    DigestMismatch,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::DigestMismatch => "digest-mismatch",
        })
    }
}

/// A metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the end-to-end rules of a `BENCHMARK.json` body.
pub fn rules(benchmark: &Value) -> Option<Vec<Rule>> {
    benchmark
        .get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Judges samples `b` against baseline samples `a`.
///
/// # Panics
///
/// Panics if either side has no samples.
pub(crate) fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse.
    let worse = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    let (min_a, max_a) = min_max(a);
    let (min_b, max_b) = min_max(b);
    let b_beats_all = if rule.lower_is_better {
        max_b < min_a
    } else {
        min_b > max_a
    };
    let a_beats_all = if rule.lower_is_better {
        max_a < min_b
    } else {
        min_a > max_b
    };
    let spread = relative_spread(a).max(relative_spread(b));
    if spread > rule.bound && !b_beats_all && !a_beats_all {
        Verdict::Unresolved
    } else if worse > rule.bound {
        Verdict::Regressed
    } else if worse < -rule.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

fn samples(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results["workloads"][workload]["metrics"][metric]["samples"]
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Compares two results files; returns the report lines and whether
/// the comparison passes (no regression, digest mismatch or higher
/// error rate).
pub fn compare(rules: &[Rule], a: &Value, b: &Value) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<20} {:<12} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    )];
    let mut pass = true;
    let names = |v: &Value| -> Vec<String> {
        v["workloads"]
            .as_object()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    };
    let b_names = names(b);
    for w in names(a).iter().filter(|w| b_names.contains(w)) {
        let (wa, wb) = (&a["workloads"][w.as_str()], &b["workloads"][w.as_str()]);
        let digests_match = wa["digest"] == wb["digest"];
        for rule in rules {
            let (Some(sa), Some(sb)) = (samples(a, w, &rule.name), samples(b, w, &rule.name))
            else {
                continue;
            };
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let v = if digests_match {
                verdict(rule, &sa, &sb)
            } else {
                Verdict::DigestMismatch
            };
            pass &= !matches!(v, Verdict::Regressed | Verdict::DigestMismatch);
            let (ma, mb) = (median(&sa), median(&sb));
            lines.push(format!(
                "{:<20} {:<12} {:>12.6} {:>12.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {v}",
                w,
                rule.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * relative_spread(&sa).max(relative_spread(&sb)),
                100.0 * rule.bound
            ));
        }
        let (ea, eb) = (
            wa["error_rate"].as_f64().unwrap_or(0.0),
            wb["error_rate"].as_f64().unwrap_or(0.0),
        );
        let worse = eb > ea;
        pass &= !worse;
        lines.push(format!(
            "{:<20} {:<12} {:>12.6} {:>12.6} {:>9} {:>8} {:>7}  {}",
            w,
            "error_rate",
            ea,
            eb,
            "",
            "",
            "0",
            if worse { "regressed" } else { "unchanged" }
        ));
    }
    (lines, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn rule(lower_is_better: bool) -> Rule {
        Rule {
            name: "wall_s".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_against_the_bound() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&rule(true), &a, &[10.2, 10.3, 10.1]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&rule(true), &a, &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&rule(true), &a, &[8.0, 8.1, 7.9]),
            Verdict::Improved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&rule(false), &a, &[12.0, 12.1, 11.9]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&rule(false), &a, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_wins_every_sample() {
        let a = [8.0, 10.0, 12.0];
        assert_eq!(
            verdict(&rule(true), &a, &[8.5, 10.5, 12.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&rule(true), &a, &[13.0, 14.0, 16.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&rule(true), &a, &[5.0, 6.0, 7.0]),
            Verdict::Improved
        );
    }

    fn results(digest: &str, wall: &[f64], error_rate: f64) -> Value {
        json!({"workloads": {"w": {
            "digest": digest,
            "error_rate": error_rate,
            "metrics": {"wall_s": {"samples": (wall.to_vec())}},
        }}})
    }

    #[test]
    fn digest_mismatch_and_error_rate_fail_the_comparison() {
        let rules = vec![rule(true)];
        let base = results("d1", &[10.0, 10.0, 10.1], 0.0);
        let (lines, pass) = compare(&rules, &base, &results("d1", &[10.0, 10.1, 10.0], 0.0));
        assert!(pass, "{lines:?}");
        assert!(lines[1].ends_with("unchanged"));

        let (lines, pass) = compare(&rules, &base, &results("d2", &[10.0, 10.1, 10.0], 0.0));
        assert!(!pass);
        assert!(lines[1].ends_with("digest-mismatch"));

        let (lines, pass) = compare(&rules, &base, &results("d1", &[10.0, 10.1, 10.0], 0.5));
        assert!(!pass);
        assert!(lines[2].ends_with("regressed"));

        let (_, pass) = compare(&rules, &base, &results("d1", &[13.0, 13.1, 13.0], 0.0));
        assert!(!pass);
    }

    #[test]
    fn rules_come_from_the_benchmark_file() {
        let b = json!({"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
        ]});
        let r = rules(&b).expect("well-formed");
        assert_eq!(r.len(), 2);
        assert!(r[0].lower_is_better && !r[1].lower_is_better);
        assert_eq!(r[1].bound, 0.05);
        assert!(rules(&json!({})).is_none());
    }
}
