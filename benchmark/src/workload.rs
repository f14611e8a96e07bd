//! The workloads, and what one sample of each runs inside its own
//! process.
//!
//! A sample builds the workload (its set-up), signals `ready`, runs it,
//! and reports run time, CPU time, peak RSS, a digest of every
//! operation's canonical output, and — when traced — its spans.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_bench::{registry, RunCtx};
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::StepOutcomeTable;
use autosec_crypto::util::to_hex;
use autosec_crypto::Sha256;
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine, FleetReport};
use autosec_runner::panic_message;
use autosec_runner::proc::probe_cpu_secs;
use autosec_sim::SimRng;
use serde_json::{json, Value};

use crate::trace::{Span, Tracer};

/// Monte-Carlo trials per graph edge and table cell in fleet set-up
/// (the `experiments fleet` default).
pub const CALIBRATION_TRIALS: usize = 12;

/// Trial-count multiplier of the suite workload.
pub const SUITE_TRIALS_SCALE: f64 = 0.1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The headline service run: 100k vehicles x 200 ticks, one shard,
    /// full posture, fixed campaign. Set-up (calibration) dominates.
    FleetService,
    /// 200k vehicles x 200 ticks, two shards, no posture, ten times the
    /// attack rate, generated campaigns: the tick loop and its serial
    /// response phase dominate, and set-up skips the SDV model.
    FleetBreachStorm,
    /// Every registered experiment at a tenth of its published trials.
    SuiteScaled,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetService,
        Workload::FleetBreachStorm,
        Workload::SuiteScaled,
    ];

    /// Stable name, as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetService => "fleet-service",
            Workload::FleetBreachStorm => "fleet-breach-storm",
            Workload::SuiteScaled => "suite-scaled",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fleet a sample runs, or `None` for the suite.
    pub fn fleet_config(self, seed: u64) -> Option<FleetConfig> {
        let base = FleetConfig {
            ticks: 200,
            seed,
            fidelity: Fidelity::Calibrated,
            faults_enabled: true,
            calibration_trials: CALIBRATION_TRIALS,
            defender: DefenderMode::Off,
            ..FleetConfig::default()
        };
        match self {
            Workload::FleetService => Some(FleetConfig {
                vehicles: 100_000,
                shards: 1,
                posture: DefensePosture::full(),
                campaign: CampaignMode::Fixed,
                attack_rate: 5e-4,
                ..base
            }),
            Workload::FleetBreachStorm => Some(FleetConfig {
                vehicles: 200_000,
                shards: 2,
                posture: DefensePosture::none(),
                campaign: CampaignMode::Generated { count: 16 },
                attack_rate: 5e-3,
                ..base
            }),
            Workload::SuiteScaled => None,
        }
    }

    /// The workload's parameters, as recorded in results files.
    pub fn params(self) -> Value {
        match self.fleet_config(0) {
            Some(cfg) => json!({
                "vehicles": cfg.vehicles,
                "ticks": cfg.ticks,
                "shards": cfg.shards,
                "posture": (cfg.posture_label()),
                "fidelity": (cfg.fidelity.label()),
                "campaign": (cfg.campaign.label()),
                "faults": cfg.faults_enabled,
                "attack_rate": cfg.attack_rate,
                "calibration_trials": cfg.calibration_trials,
            }),
            None => json!({
                "experiments": (registry().len()),
                "trials_scale": SUITE_TRIALS_SCALE,
                "jobs": 1u64,
            }),
        }
    }

    /// Operations one sample attempts: the fleet run, or each
    /// experiment.
    pub fn ops_per_sample(self) -> usize {
        match self {
            Workload::SuiteScaled => registry().len(),
            _ => 1,
        }
    }
}

/// One operation's outcome inside a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// `fleet`, or the experiment slug.
    pub name: String,
    /// SHA-256 of the operation's canonical output.
    pub digest: String,
    /// Why the operation failed (panic, empty table, broken invariant).
    pub failure: Option<String>,
}

/// Everything a sample process reports back.
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// Wall time of the run phase (after `ready`).
    pub run_s: f64,
    /// Process user + system time at the end of the sample.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) of the sample process.
    pub peak_rss_mb: f64,
    /// SHA-256 over the sample's whole canonical output.
    pub digest: String,
    /// Per-operation outcomes.
    pub ops: Vec<OpResult>,
    /// Fleet totals (`fleet.alerts`, ...); empty for the suite.
    pub counts: BTreeMap<String, u64>,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// Hex SHA-256 of `bytes`.
fn sha256_hex(bytes: &[u8]) -> String {
    to_hex(&Sha256::digest(bytes))
}

/// Digest of a fleet run's canonical artifact.
pub fn fleet_digest(report: &FleetReport) -> String {
    sha256_hex(report.canonical_json().to_string().as_bytes())
}

/// Builds the engine through the same three calls
/// [`FleetEngine::new`] makes, on the same substreams, each in its own
/// span — so a traced sample splits set-up by layer and still runs the
/// identical program.
///
/// # Panics
///
/// Panics for a live-fidelity or defender-enabled config, whose
/// construction takes other paths.
pub fn build_split(cfg: FleetConfig, tr: &mut Tracer) -> FleetEngine {
    assert!(
        cfg.fidelity != Fidelity::Live && !cfg.defender_active(),
        "the split construction covers calibrated fleets without a defender"
    );
    let root = SimRng::seed(cfg.seed);
    let graph = tr.span("adversary.calibrated_graph", |_| {
        calibrated_graph(
            &CalibrationConfig::new(cfg.calibration_trials, cfg.shards),
            &root.fork("fleet/calibration"),
        )
    });
    let table = tr.span("core.table_calibrate", |_| {
        StepOutcomeTable::calibrate(
            &[cfg.posture],
            cfg.calibration_trials,
            cfg.shards,
            &root.fork("fleet/table"),
        )
    });
    tr.span("fleet.with_parts", |_| {
        FleetEngine::with_parts(cfg, graph, Some(table))
    })
}

/// Runs one sample in this process. `ready` is called once set-up is
/// done; with `setup_only` the sample stops there and returns `None`.
pub fn run_sample(
    w: Workload,
    seed: u64,
    traced: bool,
    setup_only: bool,
    ready: impl FnOnce(),
) -> Option<SampleOutput> {
    let mut tr = if traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let (ops, counts, run_s) = match w.fleet_config(seed) {
        Some(cfg) => {
            let engine = if traced {
                tr.span("fleet.new", |tr| build_split(cfg, tr))
            } else {
                FleetEngine::new(cfg)
            };
            ready();
            if setup_only {
                return None;
            }
            let start = Instant::now();
            let report = tr.span("fleet.run", |_| engine.run());
            let run_s = start.elapsed().as_secs_f64();
            (
                vec![OpResult {
                    name: "fleet".to_owned(),
                    digest: fleet_digest(&report),
                    failure: fleet_invariant_failure(&report),
                }],
                fleet_counts(&report),
                run_s,
            )
        }
        None => {
            let reg = registry();
            let ctx = RunCtx::new(seed, 1).with_trials_scale(SUITE_TRIALS_SCALE);
            ready();
            if setup_only {
                return None;
            }
            let start = Instant::now();
            let ops = reg
                .iter()
                .map(|e| {
                    let out = tr.span(&format!("suite.{}", e.slug), |_| {
                        catch_unwind(AssertUnwindSafe(|| e.run(&ctx)))
                    });
                    let (json, failure) = match out {
                        Ok(t) if t.rows.is_empty() => (t.to_json(), Some("empty table".into())),
                        Ok(t) => (t.to_json(), None),
                        Err(p) => (Value::Null, Some(panic_message(p.as_ref()))),
                    };
                    OpResult {
                        name: e.slug.to_owned(),
                        digest: sha256_hex(json.to_string().as_bytes()),
                        failure,
                    }
                })
                .collect();
            (ops, BTreeMap::new(), start.elapsed().as_secs_f64())
        }
    };
    Some(SampleOutput {
        run_s,
        cpu_s: probe_cpu_secs(std::process::id()).expect("/proc/self/stat is readable"),
        peak_rss_mb: peak_rss_mib(),
        digest: sha256_hex(
            ops.iter()
                .map(|o: &OpResult| o.digest.as_str())
                .collect::<Vec<_>>()
                .join("\n")
                .as_bytes(),
        ),
        ops,
        counts,
        spans: tr.into_spans(),
    })
}

/// This process's peak resident set (`VmHWM`) in MiB, at kB
/// resolution: the runner's probe rounds up to whole MiB, which is a
/// tenth of a fleet sample's footprint.
fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// `None` when the run keeps the fleet invariants: every vehicle is
/// counted once and availability lies in [0, 1].
fn fleet_invariant_failure(report: &FleetReport) -> Option<String> {
    let census = report.final_snapshot().census;
    if census.total() != report.config.vehicles as u64 {
        return Some(format!(
            "census counts {} of {} vehicles",
            census.total(),
            report.config.vehicles
        ));
    }
    if !(0.0..=1.0).contains(&report.availability) {
        return Some(format!(
            "availability {} outside [0, 1]",
            report.availability
        ));
    }
    None
}

fn fleet_counts(report: &FleetReport) -> BTreeMap<String, u64> {
    let t = report.totals();
    [
        ("fleet.alerts", t.alerts),
        ("fleet.attacks", t.attacks_attempted),
        ("fleet.infections", t.infections),
        ("fleet.fault_injections", t.fault_injections),
        ("fleet.recoveries", t.recoveries),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

impl SampleOutput {
    /// The line a sample process prints for its parent.
    pub fn to_json(&self) -> Value {
        json!({
            "run_s": self.run_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "digest": (self.digest.clone()),
            "ops": (self.ops.iter().map(|o| json!({
                "name": (o.name.clone()),
                "digest": (o.digest.clone()),
                "failure": (o.failure.clone()),
            })).collect::<Vec<_>>()),
            "counts": (Value::Object(self.counts.iter().map(|(k, v)| (k.clone(), json!(*v))).collect())),
            "spans": (self.spans.iter().map(Span::to_json).collect::<Vec<_>>()),
        })
    }

    /// Inverse of [`SampleOutput::to_json`].
    pub fn from_json(v: &Value) -> Option<Self> {
        let ops = v
            .get("ops")?
            .as_array()?
            .iter()
            .map(|o| {
                Some(OpResult {
                    name: o.get("name")?.as_str()?.to_owned(),
                    digest: o.get("digest")?.as_str()?.to_owned(),
                    failure: o.get("failure")?.as_str().map(str::to_owned),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let counts = v
            .get("counts")?
            .as_object()?
            .iter()
            .map(|(k, c)| Some((k.clone(), c.as_u64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let spans = v
            .get("spans")?
            .as_array()?
            .iter()
            .map(Span::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            run_s: v.get("run_s")?.as_f64()?,
            cpu_s: v.get("cpu_s")?.as_f64()?,
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
            digest: v.get("digest")?.as_str()?.to_owned(),
            ops,
            counts,
            spans,
        })
    }
}
