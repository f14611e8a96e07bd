//! Results files (one schema for `run` and `trace`), the human report,
//! and the one-line summary a `--workload` invocation ends with.

use std::path::Path;
use std::process::Command;

use serde_json::{json, Map, Value};

use crate::measure::{per_layer_unit, WorkloadResult, END_TO_END};
use crate::stats::{median, summary};

/// `run` or `trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, untraced.
    Run,
    /// Per-layer metrics from traced samples and probes.
    Trace,
}

impl Mode {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// The machine a result was measured on.
pub(crate) fn machine() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let read = |path: &str, key: &str| -> Option<String> {
        std::fs::read_to_string(path)
            .ok()?
            .lines()
            .find(|l| l.starts_with(key))?
            .split_once(':')
            .map(|(_, v)| v.trim().to_owned())
    };
    json!({
        "nproc": nproc,
        "cpu_model": (read("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())),
        "mem_total": (read("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".into())),
    })
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub(crate) fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn workload_json(r: &WorkloadResult) -> Value {
    let metrics: Map = END_TO_END
        .iter()
        .filter_map(|(name, unit, better)| {
            let mut s = summary(r.metrics.get(name)?);
            if let Value::Object(m) = &mut s {
                m.insert("unit".into(), json!(*unit));
                m.insert("better".into(), json!(*better));
            }
            Some(((*name).to_owned(), s))
        })
        .collect();
    let mut v = json!({
        "params": (r.workload.params()),
        "samples": (r.samples),
        "attempted": (r.ledger.attempted),
        "failed": (r.ledger.failed),
        "error_rate": (r.ledger.error_rate()),
        "failures": (r.ledger.failures.clone()),
        "digest": (r.digest.clone()),
        "metrics": (Value::Object(metrics)),
    });
    if !r.per_layer.is_empty() {
        let per_layer: Map = r
            .per_layer
            .iter()
            .map(|(k, x)| (k.clone(), json!({"value": *x, "unit": (per_layer_unit(k))})))
            .collect();
        if let Value::Object(m) = &mut v {
            m.insert("per_layer".into(), Value::Object(per_layer));
            m.insert("traced_setup_s".into(), json!(r.traced_setup_s));
        }
    }
    v
}

/// The results file body.
pub fn results_json(mode: Mode, seed: u64, seconds: f64, results: &[WorkloadResult]) -> Value {
    json!({
        "schema": "autosec-benchmark/1",
        "mode": (mode.label()),
        "machine": (machine()),
        "command": (std::env::args().collect::<Vec<_>>()),
        "git_rev": (git_rev()),
        "seed": seed,
        "seconds": seconds,
        "workloads": (Value::Object(
            results
                .iter()
                .map(|r| (r.workload.name().to_owned(), workload_json(r)))
                .collect()
        )),
    })
}

/// The spans of every traced sample of a `trace` pass.
pub fn trace_json(seed: u64, results: &[WorkloadResult]) -> Value {
    json!({
        "seed": seed,
        "workloads": (Value::Object(
            results
                .iter()
                .map(|r| (r.workload.name().to_owned(), Value::Array(r.spans.clone())))
                .collect()
        )),
    })
}

/// Writes `v` to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error's description.
pub fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string_pretty(v).expect("values always serialize");
    std::fs::write(path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The last line of a `--workload` invocation: correctness, operation
/// counts, and each metric's value (the median over the pass's
/// samples for `run`).
pub fn summary_line(mode: Mode, r: &WorkloadResult) -> Value {
    let metrics: Map = match mode {
        Mode::Run => END_TO_END
            .iter()
            .filter_map(|(name, unit, _)| {
                let v = median(r.metrics.get(name)?);
                Some(((*name).to_owned(), json!({"value": v, "unit": *unit})))
            })
            .collect(),
        Mode::Trace => r
            .per_layer
            .iter()
            .map(|(k, v)| (k.clone(), json!({"value": *v, "unit": (per_layer_unit(k))})))
            .collect(),
    };
    json!({
        "correct": (r.correct()),
        "attempted": (r.ledger.attempted),
        "failed": (r.ledger.failed),
        "metrics": (Value::Object(metrics)),
    })
}

/// Prints the human-readable report of one workload.
pub fn print_report(mode: Mode, seed: u64, r: &WorkloadResult) {
    println!(
        "== {} · {} · seed {} · {} sample(s) ==",
        r.workload.name(),
        mode.label(),
        seed,
        r.samples
    );
    println!(
        "{:<22} {:<9} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "min", "max", "n"
    );
    for (name, unit, _) in END_TO_END {
        if let Some(v) = r.metrics.get(name) {
            let s = summary(v);
            println!(
                "{:<22} {:<9} {:>14.6} {:>14.6} {:>14.6} {:>4}",
                name,
                unit,
                s["median"].as_f64().unwrap_or(f64::NAN),
                s["min"].as_f64().unwrap_or(f64::NAN),
                s["max"].as_f64().unwrap_or(f64::NAN),
                v.len()
            );
        }
    }
    if let (Some(cfg), Some(run)) = (r.workload.fleet_config(seed), r.metrics.get("run_s")) {
        println!(
            "{:<22} {:<9} {:>14.0}   (vehicles x ticks / median run_s)",
            "vehicle_ticks_per_s",
            "1/s",
            (cfg.vehicles as u64 * cfg.ticks) as f64 / median(run)
        );
    }
    println!(
        "{:<22} {:<9} {:>14.6}   ({} of {} operations failed)",
        "error_rate",
        "fraction",
        r.ledger.error_rate(),
        r.ledger.failed,
        r.ledger.attempted
    );
    for f in &r.ledger.failures {
        println!("  failed: {f}");
    }
    match &r.digest {
        Some(d) if r.correct() => println!("digest {d} (every sample agrees)"),
        Some(d) => println!("digest {d} (sample 1; see failures)"),
        None => println!("digest - (no sample completed)"),
    }
    println!("note: n < 10 leaves no tail percentile with ten samples beyond it; medians only");
    if mode == Mode::Trace {
        print_setup_split(r);
        println!("{:<52} {:<6} {:>16}", "per-layer metric", "unit", "value");
        for (k, v) in &r.per_layer {
            println!("{:<52} {:<6} {:>16.6}", k, per_layer_unit(k), v);
        }
    }
    println!();
}

/// Shows how the self times of the fleet set-up's children add up to
/// the untraced sample's `setup_s`.
fn print_setup_split(r: &WorkloadResult) {
    let parts = [
        "adversary.calibrated_graph_s",
        "core.table_calibrate_s",
        "fleet.with_parts_s",
    ];
    if r.workload.fleet_config(0).is_none() {
        return;
    }
    let (Some(traced), Some(untraced), Some(values)) = (
        r.traced_setup_s,
        r.metrics.get("setup_s").map(|v| median(v)),
        parts
            .iter()
            .map(|p| r.per_layer.get(*p).copied())
            .collect::<Option<Vec<f64>>>(),
    ) else {
        return;
    };
    let sum: f64 = values.iter().sum();
    println!(
        "set-up split: {} = {:.4} s, {:.1}% of the traced sample's setup_s {:.4} s \
         (untraced setup_s {:.4} s)",
        parts
            .iter()
            .zip(&values)
            .map(|(p, v)| format!("{p} {v:.4}"))
            .collect::<Vec<_>>()
            .join(" + "),
        sum,
        100.0 * sum / traced,
        traced,
        untraced
    );
}
