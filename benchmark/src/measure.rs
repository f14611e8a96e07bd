//! The parent side: spawns one fresh process per sample, times it, and
//! turns samples into a workload's `run` or `trace` result.
//!
//! Samples run one after another, one child at a time (a closed loop
//! with a single client), so no sample competes with another for the
//! machine's cores.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::probes::run_probes;
use crate::stats::median;
use crate::trace::{self_times, spans_json};
use crate::workload::{OpResult, SampleOutput, Workload};

/// Samples per `run` pass, at the least; more run while the pass is
/// shorter than its `--seconds`.
pub(crate) const MIN_SAMPLES: usize = 3;

/// A set-up shorter than this (the suite's, about a millisecond of
/// process start) is mostly scheduler noise, whose level shifts over
/// seconds...
const CHEAP_SETUP_S: f64 = 0.05;
/// ...so it is repeated this many times after every full sample, and
/// its median draws on several moments of the pass.
const SETUP_REPEATS: usize = 10;

/// End-to-end metrics: name, unit, better direction.
pub(crate) const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Unit of a per-layer metric, read from its name's suffix.
pub(crate) fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_mb_per_s") {
        "MB/s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") || name.ends_with("_us_per_trial") {
        "us"
    } else if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_s") {
        "s"
    } else {
        "count"
    }
}

/// How a sample process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Untraced set-up and run.
    Full,
    /// Set-up and run with spans recorded.
    Traced,
    /// Set-up only; the process exits once ready.
    SetupOnly,
}

/// One sample as the parent saw it.
#[derive(Debug, Clone)]
pub(crate) struct Measured {
    /// Spawn until the child reported `ready`: process start plus the
    /// workload's construction.
    pub setup_s: f64,
    /// Spawn until the child exited.
    pub wall_s: f64,
    /// The child's report (`None` for set-up-only samples).
    pub out: Option<SampleOutput>,
}

/// Runs one sample in a fresh process of this executable and waits
/// for it to exit.
///
/// # Errors
///
/// Returns the reason when the child cannot start, exits unsuccessfully
/// or reports something unreadable.
pub(crate) fn spawn_sample(w: Workload, seed: u64, kind: Kind) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "sample",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
    ]);
    match kind {
        Kind::Full => {}
        Kind::Traced => {
            cmd.arg("--traced");
        }
        Kind::SetupOnly => {
            cmd.arg("--setup-only");
        }
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn sample: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut setup_s = None;
    let mut report = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| format!("reading sample output: {e}"))?;
        if line == "ready" {
            setup_s = Some(start.elapsed().as_secs_f64());
        } else if line.starts_with('{') {
            report = Some(line);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for sample: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("{} sample exited with {status}", w.name()));
    }
    let setup_s = setup_s.ok_or_else(|| format!("{} sample never became ready", w.name()))?;
    let out = match kind {
        Kind::SetupOnly => None,
        _ => {
            let line = report.ok_or_else(|| format!("{} sample printed no report", w.name()))?;
            let v = serde_json::from_str(&line).map_err(|e| format!("sample report: {e}"))?;
            Some(SampleOutput::from_json(&v).ok_or("sample report has the wrong shape")?)
        }
    };
    Ok(Measured {
        setup_s,
        wall_s,
        out,
    })
}

/// Operation accounting across the samples of one pass. The first
/// completed sample of each workload is the reference: a later
/// operation whose digest differs from it fails.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    reference: BTreeMap<&'static str, Vec<OpResult>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Books one sample's operations.
    pub fn record(&mut self, w: Workload, sample: &Result<Measured, String>) {
        let ops = w.ops_per_sample() as u64;
        self.attempted += ops;
        let out = match sample {
            Ok(Measured { out: Some(out), .. }) => out,
            Ok(_) => unreachable!("only full samples are booked"),
            Err(e) => {
                self.failed += ops;
                self.failures.push(e.clone());
                return;
            }
        };
        let reference = self
            .reference
            .entry(w.name())
            .or_insert_with(|| out.ops.clone());
        for (i, op) in out.ops.iter().enumerate() {
            let failure = op.failure.clone().or_else(|| {
                (reference.get(i).map(|r| &r.digest) != Some(&op.digest))
                    .then(|| "digest differs from sample 1".to_owned())
            });
            if let Some(why) = failure {
                self.failed += 1;
                self.failures
                    .push(format!("{}/{}: {why}", w.name(), op.name));
            }
        }
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A workload's result from one `run` or `trace` pass.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Which workload.
    pub(crate) workload: Workload,
    /// Full samples run (set-up-only repeats not included).
    pub(crate) samples: usize,
    /// Operation accounting.
    pub(crate) ledger: Ledger,
    /// Digest of the first completed sample.
    pub(crate) digest: Option<String>,
    /// End-to-end metric samples (in `trace`, the untraced sample's).
    pub(crate) metrics: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics (`trace` only).
    pub(crate) per_layer: BTreeMap<String, f64>,
    /// Recorded spans with self times (`trace` only).
    pub(crate) spans: Vec<Value>,
    /// The traced sample's `setup_s`, which its set-up spans split
    /// (`trace` only).
    pub(crate) traced_setup_s: Option<f64>,
}

impl WorkloadResult {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            samples: 0,
            ledger: Ledger::default(),
            digest: None,
            metrics: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            spans: Vec::new(),
            traced_setup_s: None,
        }
    }

    /// Books a full sample and, when it completed, its metrics.
    fn add(&mut self, sample: &Result<Measured, String>) {
        self.samples += 1;
        self.ledger.record(self.workload, sample);
        if let Ok(Measured {
            setup_s,
            wall_s,
            out: Some(out),
        }) = sample
        {
            self.digest.get_or_insert_with(|| out.digest.clone());
            for (name, v) in [
                ("setup_s", *setup_s),
                ("run_s", out.run_s),
                ("wall_s", *wall_s),
                ("cpu_s", out.cpu_s),
                ("peak_rss_mb", out.peak_rss_mb),
            ] {
                self.metrics.entry(name).or_default().push(v);
            }
        }
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
    }
}

/// The `run` pass: fresh-process samples until `seconds` have passed
/// and at least [`MIN_SAMPLES`] ran. After each, a cheap set-up is
/// repeated in set-up-only processes.
///
/// # Errors
///
/// Fails when no sample completed, or a set-up-only repeat failed.
pub fn run_pass(w: Workload, seed: u64, seconds: f64) -> Result<WorkloadResult, String> {
    let mut res = WorkloadResult::new(w);
    let start = Instant::now();
    while res.samples < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        res.add(&spawn_sample(w, seed, Kind::Full));
        if let Some(setups) = res.metrics.get_mut("setup_s") {
            if median(setups) < CHEAP_SETUP_S {
                for _ in 0..SETUP_REPEATS {
                    setups.push(spawn_sample(w, seed, Kind::SetupOnly)?.setup_s);
                }
            }
        }
    }
    if res.metrics.is_empty() {
        return Err(format!("no {} sample completed", w.name()));
    }
    Ok(res)
}

/// The `trace` pass: an untraced and a traced sample of the workload
/// (their digests must agree; their wall-time difference is the
/// tracing overhead), the per-layer spans of a fleet and of the suite,
/// and the layer probes.
///
/// `fleet.*` spans and counts come from the workload's own traced
/// fleet; the suite workload, which runs no single fleet, takes them
/// from a traced fleet-service sample. `suite.*` spans come from a
/// traced suite sample.
///
/// # Errors
///
/// Fails when a sample the per-layer metrics need did not complete.
pub fn trace_pass(w: Workload, seed: u64) -> Result<WorkloadResult, String> {
    let mut res = WorkloadResult::new(w);
    let untraced = spawn_sample(w, seed, Kind::Full);
    let traced = spawn_sample(w, seed, Kind::Traced);
    // End-to-end metrics are the untraced sample's; the traced one only
    // has to reproduce its digests.
    res.add(&untraced);
    res.samples += 1;
    res.ledger.record(w, &traced);
    let (untraced, traced) = (untraced?, traced?);
    res.per_layer
        .insert("trace.overhead_s".into(), traced.wall_s - untraced.wall_s);
    res.traced_setup_s = Some(traced.setup_s);

    let mut layer_sample = |other: Workload| -> Result<Measured, String> {
        if other == w {
            return Ok(traced.clone());
        }
        let s = spawn_sample(other, seed, Kind::Traced);
        res.ledger.record(other, &s);
        s
    };
    let fleet_workload = if w.fleet_config(seed).is_some() {
        w
    } else {
        Workload::FleetService
    };
    let fleet = layer_sample(fleet_workload)?;
    let suite = layer_sample(Workload::SuiteScaled)?;

    for (label, m) in [(fleet_workload, &fleet), (Workload::SuiteScaled, &suite)] {
        let out = m.out.as_ref().expect("traced samples report");
        let selfs = self_times(&out.spans);
        for (i, span) in out.spans.iter().enumerate() {
            let is_leaf = !out.spans.iter().any(|s| s.parent == Some(i));
            if is_leaf {
                res.per_layer.insert(format!("{}_s", span.name), selfs[i]);
            }
        }
        for (k, v) in &out.counts {
            res.per_layer.insert(k.clone(), *v as f64);
        }
        res.spans
            .extend(spans_json(&format!("{}/traced", label.name()), &out.spans));
    }
    let fleet_cfg = fleet_workload
        .fleet_config(seed)
        .expect("fleet workloads have a fleet");
    res.per_layer.extend(run_probes(seed, &fleet_cfg));
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(digests: &[&str], failure: Option<&str>) -> Result<Measured, String> {
        Ok(Measured {
            setup_s: 1.0,
            wall_s: 2.0,
            out: Some(SampleOutput {
                run_s: 1.0,
                cpu_s: 2.0,
                peak_rss_mb: 3.0,
                digest: "d".into(),
                ops: digests
                    .iter()
                    .map(|d| OpResult {
                        name: "op".into(),
                        digest: (*d).into(),
                        failure: failure.map(str::to_owned),
                    })
                    .collect(),
                counts: BTreeMap::new(),
                spans: Vec::new(),
            }),
        })
    }

    #[test]
    fn ledger_fails_digest_drift_panics_and_crashes() {
        let mut l = Ledger::default();
        l.record(Workload::FleetService, &sample(&["a"], None));
        l.record(Workload::FleetService, &sample(&["a"], None));
        assert_eq!((l.attempted, l.failed), (2, 0));
        l.record(Workload::FleetService, &sample(&["b"], None));
        assert_eq!((l.attempted, l.failed), (3, 1));
        l.record(Workload::FleetService, &sample(&["a"], Some("boom")));
        l.record(Workload::FleetService, &Err("crashed".into()));
        assert_eq!((l.attempted, l.failed), (5, 3));
        assert!(l.failures.iter().any(|f| f.contains("digest differs")));
        assert!((l.error_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn per_layer_units_follow_the_name() {
        assert_eq!(per_layer_unit("crypto.sha256_mb_per_s"), "MB/s");
        assert_eq!(per_layer_unit("core.measure_step.pkes-relay.full_ms"), "ms");
        assert_eq!(
            per_layer_unit("scengen.evaluate_campaign_us_per_trial"),
            "us"
        );
        assert_eq!(per_layer_unit("ids.response_handle_ns"), "ns");
        assert_eq!(per_layer_unit("suite.e1-depth-sweep_s"), "s");
        assert_eq!(per_layer_unit("fleet.alerts"), "count");
    }
}
