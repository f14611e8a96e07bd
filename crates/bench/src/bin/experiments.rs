//! Experiment runner: regenerates every table/figure of the paper.
//!
//! ```sh
//! cargo run -p autosec-bench --bin experiments                 # everything
//! cargo run -p autosec-bench --bin experiments -- --list       # catalogue
//! cargo run -p autosec-bench --bin experiments -- E10          # one group
//! cargo run -p autosec-bench --bin experiments -- \
//!     --filter e2-lrp-rounds --jobs 4 --seed 7 --json          # one table,
//!                                                # four workers, artifacts
//! cargo run -p autosec-bench --bin experiments -- \
//!     --json --keep-going                        # degrade, don't abort
//! cargo run -p autosec-bench --bin experiments -- \
//!     --json --resume                            # finish a prior run
//! cargo run -p autosec-bench --bin experiments -- \
//!     fleet --vehicles 100000 --ticks 200 --shards 4 --json
//!                                                # live-fleet service mode
//! cargo run -p autosec-bench --bin experiments -- \
//!     generate --count 16 --max-len 6 --seed 7 --json
//!                                                # generative composer
//! ```
//!
//! Filters match an experiment's group id (`E10`) or slug
//! (`e10-cascade`) **exactly**, case-insensitively — `E1` never drags
//! in E10–E13 — a `tag:` prefix (`tag:parallel`) selects by registry
//! tag, a `stride:` prefix (`stride:spoofing`) selects by STRIDE
//! threat-class annotation, and `failed:DIR` re-selects the failures a
//! prior manifest recorded. Several filters may be given (positionally or via
//! repeated `--filter`); an experiment matched by more than one still
//! runs exactly once. With `--json`, per-experiment artifacts plus a
//! `manifest.json` land in `target/experiments/` (override with
//! `--out DIR`), rewritten after every experiment so even an
//! interrupted run leaves a resumable manifest. Tables are
//! bit-identical for any `--jobs` value, and `--trials-scale`
//! multiplies Monte-Carlo trial counts without touching per-trial
//! streams.
//!
//! Fault tolerance: each experiment runs under `catch_unwind` with a
//! soft deadline derived from its cost class (`--deadline-secs`
//! overrides). A panicking or overtime experiment normally aborts the
//! suite (exit 1, failure recorded in the manifest); with
//! `--keep-going` it is recorded and the suite continues — healthy
//! experiments produce bit-identical artifacts to a clean run.
//! `--resume` re-reads the prior manifest and re-runs only failures
//! and gaps for the same `(seed, trials-scale, filter set)`.
//!
//! Process isolation: `--isolate on` executes each entry in a spawned
//! child process (this binary re-invoked with the hidden
//! `--worker-one <slug>` mode), so a deadline SIGKILLs the child for
//! real and per-experiment budgets become enforceable —
//! `--rss-limit-mb` caps peak resident set, `--cpu-limit-secs` caps
//! CPU time (default: the cost-derived deadline × jobs). Violations
//! are recorded as `oom_killed` / `cpu_exceeded` manifest statuses.
//! `--isolate auto` (the default) switches isolation on exactly when
//! a budget flag is present. `--retries N` re-runs any failed entry up
//! to N extra times with exponential backoff jittered from the run's
//! own seeded substream — the schedule is deterministic and
//! jobs-invariant. Healthy artifacts are bit-identical between
//! `--isolate on` and `off`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_bench::{registry, ArtifactStore, RunCtx, RunManifest};
use autosec_core::campaign::DefensePosture;
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine};
use autosec_runner::{
    apply_worker_rlimits, panic_message, run_suite, silence_panics, worker_failure_path,
    ExperimentRecord, IsolateMode, Isolation, ResourceBudgets, ResumeState, RunStatus,
    SuiteOptions, WorkerSpec, DEFAULT_ARTIFACT_DIR,
};
use autosec_scengen::{evaluate_campaign, generate, CoverageMatrix, GenConfig};
use autosec_sim::{ArchLayer, SimRng, Stride};
use serde_json::{json, Value};

#[derive(Debug)]
struct Args {
    filters: Vec<String>,
    seed: u64,
    jobs: usize,
    trials_scale: f64,
    json: bool,
    canonical: bool,
    list: bool,
    keep_going: bool,
    deadline_secs: Option<u64>,
    resume: bool,
    out: String,
    isolate: IsolateMode,
    retries: u32,
    rss_limit_mb: Option<u64>,
    cpu_limit_secs: Option<u64>,
    /// Hidden worker mode: run exactly one experiment and hand the
    /// artifact back through `--out` (set by the supervising parent,
    /// never by hand).
    worker_one: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [FILTER...] [--filter F] [--seed N] [--jobs N] [--trials-scale F] [--json] [--canonical] [--keep-going] [--retries N] [--deadline-secs N] [--isolate on|off|auto] [--rss-limit-mb N] [--cpu-limit-secs N] [--resume] [--out DIR] [--list]
       experiments fleet [...]   (live-fleet service mode; see `fleet --help`)
       experiments generate [...] (generative scenario composer; see `generate --help`)

  FILTER        group id (e.g. E10) or slug (e.g. e10-cascade); exact,
                case-insensitive match. tag:<tag> (e.g. tag:parallel)
                selects every experiment carrying that tag;
                stride:<class> (e.g. stride:spoofing) selects by STRIDE
                threat-class annotation;
                failed:<dir-or-manifest> re-selects the failed /
                timed-out entries of a prior manifest. May be repeated;
                overlapping filters never run an experiment twice
  --seed N      master seed (default 42); every table is a pure function
                of it
  --jobs N      worker threads (default 1); output is identical for any N
  --trials-scale F
                multiply Monte-Carlo trial counts by F (default 1.0);
                a precision/runtime knob like --jobs, excluded from
                canonical artifacts
  --json        write per-experiment artifacts + manifest.json (the
                manifest is rewritten after every experiment, so an
                interrupted run stays resumable)
  --canonical   strip volatile keys (durations, jobs) from artifacts so
                runs with different --jobs diff byte-identical
  --keep-going  record a panicking or overtime experiment in the
                manifest and continue instead of aborting (exit 1 if
                anything failed)
  --deadline-secs N
                soft per-experiment deadline replacing the cost-derived
                defaults (cheap 30s / moderate 120s / heavy 600s)
  --isolate on|off|auto
                on: run each experiment in a supervised child process —
                a deadline SIGKILLs it for real and resource budgets are
                enforced. off: in-process threads (overtime workers are
                detached, flagged overtime_detached in the manifest).
                auto (default): on iff a budget flag is given
  --rss-limit-mb N
                kill a worker child whose peak resident set crosses N
                MiB (manifest status oom_killed); implies isolation
                under --isolate auto
  --cpu-limit-secs N
                kill a worker child whose CPU time crosses N seconds
                (manifest status cpu_exceeded); default under
                --isolate on: the cost-derived deadline x --jobs
  --retries N   re-run a failed/timed-out/killed experiment up to N
                extra times, with exponential backoff jittered from the
                run's seeded substream (deterministic, jobs-invariant);
                the manifest records the attempt count
  --resume      skip experiments whose artifact a prior manifest in the
                --out dir already covers for the same (seed,
                trials-scale, filter set); re-runs failures and gaps.
                Implies --json
  --out DIR     artifact directory (default {DEFAULT_ARTIFACT_DIR})
  --list        print the experiment catalogue and exit"
    );
    std::process::exit(2);
}

/// Parses the suite argument grammar (everything but the `fleet` and
/// `generate` subcommands); `Err` carries the exact message the CLI
/// prints before the usage text (unit-tested below).
fn parse_suite(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        filters: Vec::new(),
        seed: autosec_runner::DEFAULT_SEED,
        jobs: 1,
        trials_scale: 1.0,
        json: false,
        canonical: false,
        list: false,
        keep_going: false,
        deadline_secs: None,
        resume: false,
        out: DEFAULT_ARTIFACT_DIR.to_owned(),
        isolate: IsolateMode::Auto,
        retries: 0,
        rss_limit_mb: None,
        cpu_limit_secs: None,
        worker_one: None,
    };
    const POSITIVE: &str = "a positive integer";
    const UNSIGNED: &str = "an unsigned integer";
    /// The value after flag `name`, parsed and accepted by `ok`, or the
    /// message the CLI prints.
    fn value<T: std::str::FromStr>(
        it: &mut std::slice::Iter<'_, String>,
        name: &str,
        ok: fn(&T) -> bool,
        expected: &str,
    ) -> Result<T, String> {
        let v = it
            .next()
            .ok_or_else(|| format!("missing value for {name}"))?;
        v.parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| format!("invalid {name} {v:?}: expected {expected}"))
    }
    fn any<T>(_: &T) -> bool {
        true
    }
    fn positive<T: Default + PartialOrd>(n: &T) -> bool {
        *n > T::default()
    }

    let it = &mut raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--filter" | "-f" => args.filters.push(value(it, "--filter", any, "")?),
            "--seed" | "-s" => args.seed = value(it, "--seed", any, UNSIGNED)?,
            "--jobs" | "-j" => args.jobs = value(it, "--jobs", positive, POSITIVE)?,
            "--trials-scale" | "-t" => {
                let ok = |s: &f64| s.is_finite() && *s > 0.0;
                args.trials_scale = value(it, "--trials-scale", ok, "a positive number")?;
            }
            "--deadline-secs" | "-d" => {
                args.deadline_secs = Some(value(it, "--deadline-secs", positive, POSITIVE)?);
            }
            "--isolate" => {
                let v: String = value(it, "--isolate", any, "")?;
                args.isolate = IsolateMode::parse(&v)
                    .ok_or_else(|| format!("invalid --isolate {v:?}: expected on, off or auto"))?;
            }
            "--retries" => args.retries = value(it, "--retries", any, UNSIGNED)?,
            "--rss-limit-mb" => {
                args.rss_limit_mb = Some(value(it, "--rss-limit-mb", positive, POSITIVE)?);
            }
            "--cpu-limit-secs" => {
                args.cpu_limit_secs = Some(value(it, "--cpu-limit-secs", positive, POSITIVE)?);
            }
            "--worker-one" => args.worker_one = Some(value(it, "--worker-one", any, "")?),
            "--json" => args.json = true,
            "--canonical" => args.canonical = true,
            "--keep-going" | "-k" => args.keep_going = true,
            "--resume" | "-r" => {
                args.resume = true;
                args.json = true;
            }
            "--list" | "-l" => args.list = true,
            "--out" | "-o" => args.out = value(it, "--out", any, "")?,
            "--help" | "-h" => return Err("help".to_owned()),
            // Positional filter(s), compatible with the old runner.
            other if !other.starts_with('-') => args.filters.push(other.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn fleet_usage() -> ! {
    eprintln!(
        "usage: experiments fleet [--vehicles N] [--ticks N] [--shards N] [--seed N]
                          [--snapshot-every N] [--posture full|none|depth:K]
                          [--fidelity live|calibrated|mixed:K]
                          [--campaign fixed|generated:N]
                          [--attack-rate F] [--no-faults]
                          [--defender off|static|closed-loop]
                          [--defender-budget F] [--json] [--canonical]
                          [--out DIR]

  Runs the live-fleet service mode: N per-vehicle state machines under
  continuous attack, fault and defense pressure for the given number of
  ticks. --fidelity picks the attack-resolution tier: 'calibrated'
  (default) resolves attacks against an outcome table calibrated from
  the live scenario models, 'live' replays every model end to end, and
  'mixed:K' (K >= 1) runs calibrated state with ~every Kth resolution
  shadowed by a live replay feeding a drift statistic.

  --campaign picks where direct attack pressure comes from: 'fixed'
  (default) replays the paper's step catalog, 'generated:N' (N >= 1)
  composes a pool of N capability-consistent multi-step campaigns from
  the calibrated attack graph (seeded by --seed) and replays those.
  Generated runs stay bit-identical across --shards and --fidelity.

  --defender arms the fleet-wide defense policy: 'static' spends
  --defender-budget up front hardening layers, 'closed-loop' holds it
  for a between-tick rule policy reading the alert tallies and census.
  A zero budget is the null defender, bit-identical to 'off'.

  --shards defaults to the available parallelism (capped by the
  vehicle count); pass it explicitly to override. On a single-core
  machine extra shards cost thread overhead instead of buying
  wall-clock time (see benchmark/README.md) — results are bit-identical
  for any --shards value either way; --json writes the canonical-keyed
  fleet.json artifact (with --canonical the volatile throughput keys
  are stripped so artifacts from different shard counts diff
  byte-identical)."
    );
    std::process::exit(2);
}

/// Parsed `fleet` subcommand arguments.
#[derive(Debug)]
struct FleetArgs {
    cfg: FleetConfig,
    json: bool,
    canonical: bool,
    /// Whether `--shards` was given explicitly (otherwise the caller
    /// defaults it to the available parallelism).
    shards_given: bool,
    out: String,
}

/// Parses the `fleet` argument grammar. Every rejection is a
/// `Result::Err` with the exact message the CLI prints — each parse
/// path is unit-tested below without spawning a process.
fn parse_fleet(args: &[String]) -> Result<FleetArgs, String> {
    let mut cfg = FleetConfig {
        vehicles: 10_000,
        ticks: 200,
        snapshot_every: 50,
        ..FleetConfig::default()
    };
    let mut json = false;
    let mut canonical = false;
    let mut shards_given = false;
    let mut out = DEFAULT_ARTIFACT_DIR.to_owned();

    fn parsed<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("invalid {name} {v:?}"))
    }

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--vehicles" | "-n" => cfg.vehicles = parsed("--vehicles", &value("--vehicles")?)?,
            "--ticks" => cfg.ticks = parsed("--ticks", &value("--ticks")?)?,
            "--shards" => {
                let v = value("--shards")?;
                cfg.shards = parsed::<usize>("--shards", &v)
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        format!("invalid --shards {v:?}: expected a positive integer")
                    })?;
                shards_given = true;
            }
            "--seed" | "-s" => cfg.seed = parsed("--seed", &value("--seed")?)?,
            "--snapshot-every" => {
                cfg.snapshot_every = parsed("--snapshot-every", &value("--snapshot-every")?)?;
            }
            "--attack-rate" => {
                let v = value("--attack-rate")?;
                cfg.attack_rate = parsed::<f64>("--attack-rate", &v)
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| {
                        format!("invalid --attack-rate {v:?}: expected a finite nonnegative rate")
                    })?;
            }
            "--posture" => {
                let v = value("--posture")?;
                cfg.posture = match v.as_str() {
                    "full" => DefensePosture::full(),
                    "none" => DefensePosture::none(),
                    other => {
                        let k: usize = other
                            .strip_prefix("depth:")
                            .and_then(|k| k.parse().ok())
                            .ok_or_else(|| {
                                format!("invalid --posture {v:?}: expected full, none or depth:K")
                            })?;
                        if k > 6 {
                            return Err(format!(
                                "invalid --posture {v:?}: the architecture has 6 layers (K <= 6)"
                            ));
                        }
                        DefensePosture::depth(k)
                    }
                };
            }
            "--fidelity" => {
                let v = value("--fidelity")?;
                cfg.fidelity = Fidelity::parse(&v).ok_or_else(|| {
                    format!(
                        "invalid --fidelity {v:?}: expected live, calibrated or mixed:K (K >= 1)"
                    )
                })?;
            }
            "--campaign" => {
                let v = value("--campaign")?;
                cfg.campaign = CampaignMode::parse(&v).ok_or_else(|| {
                    format!("invalid --campaign {v:?}: expected fixed or generated:N (N >= 1)")
                })?;
            }
            "--defender" => {
                let v = value("--defender")?;
                cfg.defender = DefenderMode::parse(&v).ok_or_else(|| {
                    format!("invalid --defender {v:?}: expected off, static or closed-loop")
                })?;
            }
            "--defender-budget" => {
                let v = value("--defender-budget")?;
                cfg.defender_budget = parsed::<f64>("--defender-budget", &v)
                    .ok()
                    .filter(|b| b.is_finite() && *b >= 0.0)
                    .ok_or_else(|| {
                        format!(
                            "invalid --defender-budget {v:?}: expected a finite nonnegative budget"
                        )
                    })?;
            }
            "--no-faults" => cfg.faults_enabled = false,
            "--json" => json = true,
            "--canonical" => canonical = true,
            "--out" | "-o" => out = value("--out")?,
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown fleet argument {other:?}")),
        }
    }
    if cfg.vehicles == 0 || cfg.ticks == 0 {
        return Err("--vehicles and --ticks must be positive".to_owned());
    }
    Ok(FleetArgs {
        cfg,
        json,
        canonical,
        shards_given,
        out,
    })
}

/// The `fleet` subcommand: one live-fleet run with a human summary
/// and an optional `fleet.json` artifact.
fn fleet_main(args: &[String]) -> ExitCode {
    let FleetArgs {
        mut cfg,
        json,
        canonical,
        shards_given,
        out,
    } = match parse_fleet(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if msg != "help" {
                eprintln!("{msg}");
            }
            fleet_usage();
        }
    };
    if !shards_given {
        // Default: one shard per available core, capped by fleet size.
        // An explicit --shards overrides (still capped at runtime).
        cfg.shards = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(cfg.vehicles);
    }

    eprintln!(
        "fleet: {} vehicles x {} ticks, {} shard(s), posture {}, fidelity {}, campaign {}, seed {}{}",
        cfg.vehicles,
        cfg.ticks,
        cfg.shards,
        cfg.posture_label(),
        cfg.fidelity.label(),
        cfg.campaign.label(),
        cfg.seed,
        if cfg.defender_active() {
            format!(
                ", defender {} (budget {})",
                cfg.defender.label(),
                cfg.defender_budget
            )
        } else {
            String::new()
        }
    );
    let report = FleetEngine::new(cfg).run();
    let census = &report.final_snapshot().census;
    let totals = report.totals();
    println!(
        "fleet availability {:.4}  mttr {:.1} ms  throughput {:.0} vehicle-ticks/s",
        report.availability,
        report.mttr_ms(),
        report.throughput()
    );
    println!(
        "final census: {} healthy / {} degraded / {} compromised / {} isolated / {} lost",
        census.healthy, census.degraded, census.compromised, census.isolated, census.lost
    );
    println!(
        "totals: {} attacks ({} succeeded), {} infections, {} fault injections, {} alerts, {} recoveries, {} backend breaches",
        totals.attacks_attempted,
        totals.attacks_succeeded,
        totals.infections,
        totals.fault_injections,
        totals.alerts,
        totals.recoveries,
        totals.backend_breaches
    );
    if report.drift.probes > 0 {
        println!(
            "drift: {} live probes, agreement {:.4}, success gap {:+.4}",
            report.drift.probes,
            report.drift.agreement_rate(),
            report.drift.success_gap()
        );
    }
    if let Some(d) = &report.defender {
        let dj = d.to_json();
        println!(
            "defender: {} action(s), spent {}/{}, hardened [{}], monitor boost {:.2}",
            dj["actions"],
            dj["spent"],
            dj["budget"],
            dj["hardened"]
                .as_array()
                .map(|a| a
                    .iter()
                    .filter_map(|l| l.as_str())
                    .collect::<Vec<_>>()
                    .join(", "))
                .unwrap_or_default(),
            dj["monitor_boost"].as_f64().unwrap_or(0.0)
        );
    }

    if json {
        let store = match ArtifactStore::create(&out) {
            Ok(s) if canonical => s.canonical(),
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot create artifact dir {out:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match store.write_json("fleet", &report.to_json()) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("fleet artifact write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn generate_usage() -> ! {
    eprintln!(
        "usage: experiments generate [--count N] [--max-len N] [--seed N] [--jobs N]
                            [--trials N] [--layer L] [--stride-class S]
                            [--json] [--canonical] [--out DIR]

  Composes capability-consistent multi-step attack campaigns from the
  calibrated attack graph and replays each under the empty and full
  defense postures, then rolls the pool up into the STRIDE x layer
  coverage matrix (verdicts: covered / GAP / n/a).

  --count N        target number of distinct campaigns (default 16)
  --max-len N      maximum steps per campaign (default 6)
  --seed N         generator + calibration seed (default 42); the
                   output is a pure function of it
  --jobs N         worker threads for calibration and replay
                   (default 1); output is identical for any N
  --trials N       Monte-Carlo replays per campaign x posture
                   (default 200)
  --layer L        keep only campaigns touching this layer: physical,
                   network, software/platform, data, system-of-systems
                   or collaboration
  --stride-class S keep only campaigns touching this STRIDE class:
                   spoofing, tampering, repudiation, info-disclosure,
                   denial-of-service or elevation-of-privilege
                   (mnemonics s/t/r/i/d/e accepted)
  --json           write the scengen.json artifact
  --canonical      strip volatile keys (jobs) so runs with different
                   --jobs diff byte-identical
  --out DIR        artifact directory (default {DEFAULT_ARTIFACT_DIR})"
    );
    std::process::exit(2);
}

/// Parsed `generate` subcommand arguments.
#[derive(Debug)]
struct GenerateArgs {
    cfg: GenConfig,
    trials: usize,
    jobs: usize,
    json: bool,
    canonical: bool,
    out: String,
}

/// Parses an [`ArchLayer`] CLI label (the `Display` strings, plus a
/// few forgiving aliases).
fn parse_layer(s: &str) -> Option<ArchLayer> {
    match s.to_lowercase().as_str() {
        "physical" | "phy" => Some(ArchLayer::Physical),
        "network" | "net" | "ivn" => Some(ArchLayer::Network),
        "software/platform" | "software-platform" | "platform" | "sdv" => {
            Some(ArchLayer::SoftwarePlatform)
        }
        "data" => Some(ArchLayer::Data),
        "system-of-systems" | "sos" => Some(ArchLayer::SystemOfSystems),
        "collaboration" | "collab" => Some(ArchLayer::Collaboration),
        _ => None,
    }
}

/// Parses the `generate` argument grammar; `Err` carries the exact
/// message the CLI prints (unit-tested below).
fn parse_generate(args: &[String]) -> Result<GenerateArgs, String> {
    let mut cfg = GenConfig::new(16, 6, autosec_runner::DEFAULT_SEED);
    let mut trials = 200usize;
    let mut jobs = 1usize;
    let mut json = false;
    let mut canonical = false;
    let mut out = DEFAULT_ARTIFACT_DIR.to_owned();

    fn parsed<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("invalid {name} {v:?}"))
    }

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--count" | "-c" => cfg.count = parsed("--count", &value("--count")?)?,
            "--max-len" => cfg.max_len = parsed("--max-len", &value("--max-len")?)?,
            "--seed" | "-s" => cfg.seed = parsed("--seed", &value("--seed")?)?,
            "--jobs" | "-j" => jobs = parsed("--jobs", &value("--jobs")?)?,
            "--trials" => trials = parsed("--trials", &value("--trials")?)?,
            "--layer" => {
                let v = value("--layer")?;
                cfg.layer = Some(parse_layer(&v).ok_or_else(|| {
                    format!(
                        "invalid --layer {v:?}: expected physical, network, software/platform, data, system-of-systems or collaboration"
                    )
                })?);
            }
            "--stride-class" => {
                let v = value("--stride-class")?;
                cfg.stride = Some(Stride::parse(&v).ok_or_else(|| {
                    format!(
                        "invalid --stride-class {v:?}: expected a STRIDE class label (e.g. spoofing, denial-of-service) or mnemonic s/t/r/i/d/e"
                    )
                })?);
            }
            "--json" => json = true,
            "--canonical" => canonical = true,
            "--out" | "-o" => out = value("--out")?,
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown generate argument {other:?}")),
        }
    }
    if cfg.count == 0 || cfg.max_len == 0 || trials == 0 || jobs == 0 {
        return Err("--count, --max-len, --trials and --jobs must be positive".to_owned());
    }
    Ok(GenerateArgs {
        cfg,
        trials,
        jobs,
        json,
        canonical,
        out,
    })
}

/// The `generate` subcommand: compose, replay, and report coverage.
fn generate_main(args: &[String]) -> ExitCode {
    let GenerateArgs {
        cfg,
        trials,
        jobs,
        json: write_json,
        canonical,
        out,
    } = match parse_generate(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if msg != "help" {
                eprintln!("{msg}");
            }
            generate_usage();
        }
    };

    // Same calibration machinery and trial count as the fleet service
    // mode — generated campaigns replay the measured graph, never a
    // hand-typed table.
    let calib = CalibrationConfig::new(12, jobs);
    let graph = calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("scengen/calibration"));
    let pool = generate(&graph, &cfg);
    eprintln!(
        "generate: {} campaign(s) (requested {}), max-len {}, seed {}{}{}",
        pool.len(),
        cfg.count,
        cfg.max_len,
        cfg.seed,
        cfg.layer
            .map(|l| format!(", layer {l}"))
            .unwrap_or_default(),
        cfg.stride
            .map(|s| format!(", stride {s}"))
            .unwrap_or_default(),
    );
    if pool.is_empty() {
        eprintln!(
            "no campaign satisfied the acceptance filters; try a larger --count or --max-len"
        );
        return ExitCode::FAILURE;
    }

    let none = DefensePosture::none();
    let full = DefensePosture::full();
    let mut campaigns = Vec::with_capacity(pool.len());
    for campaign in &pool {
        let base = SimRng::seed(cfg.seed).fork(&format!("scengen/eval/{}", campaign.id));
        let undefended = evaluate_campaign(&graph, campaign, &none, &base, trials, jobs);
        let defended = evaluate_campaign(&graph, campaign, &full, &base, trials, jobs);
        let names = campaign.names(&graph);
        println!(
            "{}  len {}  breach {:.3} -> {:.3}  detect {:.3}  [{}]",
            campaign.id,
            campaign.edges.len(),
            undefended.breach,
            defended.breach,
            defended.detect,
            names.join(" -> "),
        );
        campaigns.push(json!({
            "id": campaign.id.clone(),
            "steps": names,
            "layers": campaign.edges.iter()
                .map(|&i| graph.edges()[i].layer.to_string()).collect::<Vec<_>>(),
            "strides": campaign.edges.iter()
                .map(|&i| graph.edges()[i].stride.label()).collect::<Vec<_>>(),
            "breach_undefended": undefended.breach,
            "breach_defended": defended.breach,
            "detect_defended": defended.detect,
        }));
    }

    let matrix = CoverageMatrix::build(&graph, &pool);
    println!(
        "coverage: {}/{} modeled STRIDE x layer cells ({:.0}%), {} GAP, {} unmodeled",
        matrix.covered(),
        matrix.modeled(),
        matrix.coverage() * 100.0,
        matrix.gaps(),
        matrix.cells.len() - matrix.modeled(),
    );
    for cell in matrix.cells.iter().filter(|c| c.pool_edges > 0) {
        println!(
            "  {:<24} {:<18} edges {}  hits {}  {}",
            cell.stride.label(),
            cell.layer.to_string(),
            cell.pool_edges,
            cell.campaign_hits,
            cell.verdict.label(),
        );
    }

    if write_json {
        let artifact: Value = json!({
            "config": {
                "count": cfg.count,
                "max_len": cfg.max_len,
                "seed": cfg.seed,
                "layer": cfg.layer.map(|l| l.to_string()),
                "stride": cfg.stride.map(|s| s.label()),
                "trials": trials,
            },
            "jobs": jobs,
            "campaigns": campaigns,
            "coverage": {
                "covered": matrix.covered(),
                "modeled": matrix.modeled(),
                "gaps": matrix.gaps(),
                "fraction": matrix.coverage(),
                "cells": matrix.cells.iter().map(|c| json!({
                    "stride": c.stride.label(),
                    "layer": c.layer.to_string(),
                    "edges": c.pool_edges,
                    "campaign_hits": c.campaign_hits,
                    "undefended_success": c.undefended_success,
                    "defended_success": c.defended_success,
                    "defended_detect": c.defended_detect,
                    "verdict": c.verdict.label(),
                })).collect::<Vec<_>>(),
            },
        });
        let store = match ArtifactStore::create(&out) {
            Ok(s) if canonical => s.canonical(),
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot create artifact dir {out:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match store.write_json("scengen", &artifact) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("scengen artifact write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The hidden `--worker-one <slug>` mode: run exactly one experiment
/// in-process and hand the result back through the `--out` handoff
/// directory. Exit 0 + `<slug>.json` on success; exit 101 +
/// `<slug>.panic.txt` carrying the original panic message on panic.
/// The supervising parent polls budgets and classifies kills — this
/// child only installs the rlimit backstops and computes.
fn worker_main(slug: &str, args: &Args) -> ExitCode {
    apply_worker_rlimits(ResourceBudgets {
        rss_limit_mb: args.rss_limit_mb,
        cpu_limit_secs: args.cpu_limit_secs,
    });
    let reg = registry();
    let selected = reg.select(slug);
    let Some(exp) = selected.first() else {
        eprintln!("worker: unknown experiment slug {slug:?}");
        return ExitCode::FAILURE;
    };
    let ctx = RunCtx::new(args.seed, args.jobs).with_trials_scale(args.trials_scale);
    let store = match ArtifactStore::create(&args.out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: cannot create handoff dir {:?}: {e}", args.out);
            return ExitCode::FAILURE;
        }
    };
    // The parent reports the panic through the manifest; a default-hook
    // stderr dump would interleave with the parent's own output.
    let _quiet = silence_panics();
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| exp.run(&ctx))) {
        Ok(table) => {
            let record = ExperimentRecord::ok(exp.slug, exp.id, start.elapsed(), table);
            match store.write_record(&record, ctx.seed, ctx.jobs, ctx.trials_scale) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker: artifact write failed for {}: {e}", exp.slug);
                    ExitCode::FAILURE
                }
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let _ = std::fs::write(
                worker_failure_path(Path::new(&args.out), exp.slug),
                &message,
            );
            ExitCode::from(101)
        }
    }
}

fn main() -> ExitCode {
    // The `fleet` and `generate` subcommands have their own argument
    // grammars.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("fleet") {
        return fleet_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("generate") {
        return generate_main(&raw[1..]);
    }

    let args = match parse_suite(&raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if msg != "help" {
                eprintln!("{msg}");
            }
            usage();
        }
    };
    if let Some(slug) = args.worker_one.clone() {
        return worker_main(&slug, &args);
    }
    let reg = registry();

    if args.list {
        println!(
            "{:<22} {:<6} {:<9} {:<9} {:<34} {:<22} title",
            "slug", "id", "cost", "deadline", "tags", "stride"
        );
        for e in reg.iter() {
            let deadline = args
                .deadline_secs
                .map(Duration::from_secs)
                .unwrap_or_else(|| e.cost.deadline());
            let stride = if e.strides.is_empty() {
                "-".to_owned()
            } else {
                e.strides.join(",")
            };
            println!(
                "{:<22} {:<6} {:<9} {:<9} {:<34} {:<22} {}",
                e.slug,
                e.id,
                e.cost.to_string(),
                format!("{}s", deadline.as_secs()),
                e.tags.join(","),
                stride,
                e.title
            );
        }
        return ExitCode::SUCCESS;
    }

    let selected = if args.filters.is_empty() {
        reg.all()
    } else {
        reg.select_many(&args.filters)
    };
    if selected.is_empty() {
        eprintln!(
            "no experiment matched {:?}; available ids: {}\n(or pick a slug from --list)",
            args.filters.join(","),
            reg.group_ids().join(" ")
        );
        return ExitCode::FAILURE;
    }

    let ctx = RunCtx::new(args.seed, args.jobs).with_trials_scale(args.trials_scale);
    let store = if args.json {
        match ArtifactStore::create(&args.out) {
            Ok(s) if args.canonical => Some(s.canonical()),
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot create artifact dir {:?}: {e}", args.out);
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // Resume: reuse completed artifacts from the prior manifest when
    // the run parameters line up.
    let mut skip = std::collections::BTreeSet::new();
    if args.resume {
        match ResumeState::load(&args.out) {
            Some(state) if state.compatible_with(ctx.seed, ctx.trials_scale, &args.filters) => {
                skip = state.reusable(std::path::Path::new(&args.out));
                eprintln!(
                    "resume: reusing {} artifact(s), re-running {} failure(s) and any gaps",
                    skip.len(),
                    state.failed.len()
                );
            }
            Some(state) => {
                eprintln!(
                    "resume: prior manifest (seed {}, trials-scale {}, filter {:?}) does not match this run; re-running everything",
                    state.seed,
                    state.trials_scale,
                    state.filter.as_deref().unwrap_or("none")
                );
            }
            None => {
                eprintln!(
                    "resume: no usable manifest in {:?}; re-running everything",
                    args.out
                );
            }
        }
    }

    // Isolation: auto resolves to child processes exactly when a
    // budget was requested (budgets are unenforceable in-process).
    let budgets = ResourceBudgets {
        rss_limit_mb: args.rss_limit_mb,
        cpu_limit_secs: args.cpu_limit_secs,
    };
    let isolate_on = match args.isolate {
        IsolateMode::On => true,
        IsolateMode::Off => false,
        IsolateMode::Auto => budgets.any(),
    };
    let handoff_root = Path::new(&args.out).join(".workers");
    let isolation = if isolate_on {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("--isolate on: cannot locate own binary: {e}");
                return ExitCode::FAILURE;
            }
        };
        Some(Isolation {
            spec: WorkerSpec {
                exe,
                base_args: vec![
                    "--seed".into(),
                    ctx.seed.to_string(),
                    "--jobs".into(),
                    ctx.jobs.to_string(),
                    "--trials-scale".into(),
                    ctx.trials_scale.to_string(),
                ],
            },
            budgets,
            handoff_root: handoff_root.clone(),
        })
    } else {
        if budgets.any() {
            eprintln!("note: resource budgets need a child process; ignored under --isolate off");
        }
        None
    };

    let opts = SuiteOptions {
        keep_going: args.keep_going,
        deadline_override: args.deadline_secs.map(Duration::from_secs),
        skip,
        retries: args.retries,
        isolation,
    };

    // The manifest grows record by record and is rewritten after every
    // experiment, so a killed run still leaves a resumable trail.
    let mut manifest = RunManifest {
        seed: ctx.seed,
        jobs: ctx.jobs,
        trials_scale: ctx.trials_scale,
        filter: if args.filters.is_empty() {
            None
        } else {
            Some(args.filters.join(","))
        },
        records: Vec::new(),
    };

    let report = run_suite(&selected, &ctx, &opts, |record| {
        match &record.status {
            RunStatus::Ok => {
                let table = record.table.as_ref().expect("ok record has a table");
                println!("{table}");
                if let Some(store) = &store {
                    if let Err(e) = store.write_record(record, ctx.seed, ctx.jobs, ctx.trials_scale)
                    {
                        eprintln!("artifact write failed for {}: {e}", record.slug);
                    }
                }
            }
            RunStatus::Failed { message } => {
                eprintln!(
                    "FAILED {} after {:.1} ms: {message}",
                    record.slug,
                    record.duration.as_secs_f64() * 1e3
                );
            }
            RunStatus::TimedOut { deadline, detached } => {
                eprintln!(
                    "TIMED OUT {} after {:.1} s (deadline {} s); {}",
                    record.slug,
                    record.duration.as_secs_f64(),
                    deadline.as_secs(),
                    if *detached {
                        "worker detached (still running — use --isolate on for real kills)"
                    } else {
                        "worker killed"
                    }
                );
            }
            RunStatus::OomKilled {
                peak_rss_mb,
                limit_mb,
            } => {
                eprintln!(
                    "OOM-KILLED {} after {:.1} s (peak rss {} MiB, limit {} MiB)",
                    record.slug,
                    record.duration.as_secs_f64(),
                    peak_rss_mb,
                    limit_mb
                );
            }
            RunStatus::CpuExceeded {
                cpu_secs,
                limit_secs,
            } => {
                eprintln!(
                    "CPU-EXCEEDED {} after {:.1} s ({:.1} cpu-s, limit {} s)",
                    record.slug,
                    record.duration.as_secs_f64(),
                    cpu_secs,
                    limit_secs
                );
            }
            RunStatus::Skipped => {
                eprintln!("skipped {} (artifact reused from prior run)", record.slug);
            }
        }
        if let Some(store) = &store {
            manifest.records.push(record.clone());
            if let Err(e) = store.write_manifest(&manifest) {
                eprintln!("manifest write failed: {e}");
            }
        }
    });

    // The per-slug handoff dirs are removed as each verdict lands;
    // dropping the (now empty) root keeps isolate-on artifact trees
    // diffable against isolate-off ones.
    let _ = std::fs::remove_dir(&handoff_root);

    if let Some(store) = &store {
        eprintln!(
            "wrote {} artifact(s) + {}",
            report
                .records
                .iter()
                .filter(|r| r.status == RunStatus::Ok)
                .count(),
            store.dir().join("manifest.json").display()
        );
    }

    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!(
            "{} experiment(s) did not complete: {}{}",
            failures.len(),
            failures
                .iter()
                .map(|r| r.slug.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            if report.aborted {
                " (suite aborted; use --keep-going to degrade instead)"
            } else {
                ""
            }
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(args: &[&str]) -> Result<FleetArgs, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_fleet(&owned)
    }

    #[test]
    fn fleet_defaults_parse() {
        let a = fleet(&[]).expect("empty args are the defaults");
        assert_eq!(a.cfg.vehicles, 10_000);
        assert_eq!(a.cfg.ticks, 200);
        assert!(!a.shards_given);
        assert_eq!(a.cfg.defender, DefenderMode::Off);
    }

    #[test]
    fn fleet_attack_rate_rejects_nan_negative_and_garbage() {
        for bad in ["NaN", "nan", "-0.5", "inf", "rate"] {
            let err = fleet(&["--attack-rate", bad]).unwrap_err();
            assert!(err.contains("--attack-rate"), "{bad}: {err}");
            assert!(err.contains("finite nonnegative"), "{bad}: {err}");
        }
        assert_eq!(fleet(&["--attack-rate", "0"]).unwrap().cfg.attack_rate, 0.0);
        let ok = fleet(&["--attack-rate", "2.5e-3"]).unwrap();
        assert!((ok.cfg.attack_rate - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn fleet_shards_must_be_positive() {
        for bad in ["0", "-1", "many"] {
            assert_eq!(
                fleet(&["--shards", bad]).unwrap_err(),
                format!("invalid --shards {bad:?}: expected a positive integer")
            );
        }
        let ok = fleet(&["--shards", "3"]).unwrap();
        assert_eq!(ok.cfg.shards, 3);
        assert!(ok.shards_given);
    }

    #[test]
    fn fleet_fidelity_rejects_zero_period() {
        let err = fleet(&["--fidelity", "mixed:0"]).unwrap_err();
        assert!(err.contains("mixed:K (K >= 1)"), "{err}");
        let err = fleet(&["--fidelity", "tables"]).unwrap_err();
        assert!(err.contains("--fidelity"), "{err}");
        let ok = fleet(&["--fidelity", "mixed:16"]).unwrap();
        assert_eq!(ok.cfg.fidelity, Fidelity::Mixed { every: 16 });
    }

    #[test]
    fn fleet_posture_depth_rejects_beyond_six_layers() {
        let err = fleet(&["--posture", "depth:7"]).unwrap_err();
        assert!(err.contains("K <= 6"), "{err}");
        let err = fleet(&["--posture", "deep:2"]).unwrap_err();
        assert!(err.contains("full, none or depth:K"), "{err}");
        let ok = fleet(&["--posture", "depth:6"]).unwrap();
        assert_eq!(ok.cfg.posture, DefensePosture::full());
    }

    #[test]
    fn fleet_defender_flags_parse_and_validate() {
        let ok = fleet(&["--defender", "closed-loop", "--defender-budget", "4"]).unwrap();
        assert_eq!(ok.cfg.defender, DefenderMode::ClosedLoop);
        assert_eq!(ok.cfg.defender_budget, 4.0);
        assert!(ok.cfg.defender_active());

        let err = fleet(&["--defender", "adaptive"]).unwrap_err();
        assert!(err.contains("off, static or closed-loop"), "{err}");
        for bad in ["NaN", "-1", "inf"] {
            let err = fleet(&["--defender-budget", bad]).unwrap_err();
            assert!(err.contains("--defender-budget"), "{bad}: {err}");
        }
        // Zero budget parses fine — it is the null defender.
        let ok = fleet(&["--defender", "static", "--defender-budget", "0"]).unwrap();
        assert!(!ok.cfg.defender_active());
    }

    #[test]
    fn fleet_campaign_flag_parses_and_validates() {
        let ok = fleet(&["--campaign", "generated:12"]).unwrap();
        assert_eq!(ok.cfg.campaign, CampaignMode::Generated { count: 12 });
        let ok = fleet(&["--campaign", "fixed"]).unwrap();
        assert_eq!(ok.cfg.campaign, CampaignMode::Fixed);
        for bad in ["generated:0", "generated", "scripted"] {
            let err = fleet(&["--campaign", bad]).unwrap_err();
            assert!(err.contains("fixed or generated:N"), "{bad}: {err}");
        }
    }

    fn gen(args: &[&str]) -> Result<GenerateArgs, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_generate(&owned)
    }

    #[test]
    fn generate_defaults_parse() {
        let a = gen(&[]).expect("empty args are the defaults");
        assert_eq!(a.cfg.count, 16);
        assert_eq!(a.cfg.max_len, 6);
        assert_eq!(a.cfg.seed, autosec_runner::DEFAULT_SEED);
        assert_eq!(a.trials, 200);
        assert_eq!(a.jobs, 1);
        assert!(a.cfg.layer.is_none() && a.cfg.stride.is_none());
        assert!(!a.json && !a.canonical);
    }

    #[test]
    fn generate_filters_parse() {
        let a = gen(&["--layer", "sos", "--stride-class", "dos"]).unwrap();
        assert_eq!(a.cfg.layer, Some(ArchLayer::SystemOfSystems));
        assert_eq!(a.cfg.stride, Some(Stride::DenialOfService));
        let a = gen(&["--layer", "software/platform", "--stride-class", "e"]).unwrap();
        assert_eq!(a.cfg.layer, Some(ArchLayer::SoftwarePlatform));
        assert_eq!(a.cfg.stride, Some(Stride::ElevationOfPrivilege));

        let err = gen(&["--layer", "cloud"]).unwrap_err();
        assert!(err.contains("--layer"), "{err}");
        let err = gen(&["--stride-class", "phishing"]).unwrap_err();
        assert!(err.contains("--stride-class"), "{err}");
    }

    #[test]
    fn generate_rejects_zero_sizes_and_unknown_flags() {
        for bad in [
            &["--count", "0"][..],
            &["--max-len", "0"],
            &["--trials", "0"],
            &["--jobs", "0"],
        ] {
            let err = gen(bad).unwrap_err();
            assert!(err.contains("must be positive"), "{bad:?}: {err}");
        }
        assert_eq!(gen(&["--count"]).unwrap_err(), "missing value for --count");
        assert!(gen(&["--warp"]).unwrap_err().contains("unknown generate"));
    }

    #[test]
    fn layer_labels_round_trip_through_parse_layer() {
        for layer in ArchLayer::ALL {
            assert_eq!(parse_layer(&layer.to_string()), Some(layer));
        }
        assert_eq!(parse_layer("SOS"), Some(ArchLayer::SystemOfSystems));
        assert_eq!(parse_layer("nope"), None);
    }

    #[test]
    fn fleet_rejects_missing_values_and_unknown_flags() {
        assert_eq!(
            fleet(&["--vehicles"]).unwrap_err(),
            "missing value for --vehicles"
        );
        assert!(fleet(&["--warp"])
            .unwrap_err()
            .contains("unknown fleet argument"));
        assert_eq!(
            fleet(&["--vehicles", "0"]).unwrap_err(),
            "--vehicles and --ticks must be positive"
        );
        assert!(fleet(&["--ticks", "-3"]).unwrap_err().contains("--ticks"));
    }

    fn suite(args: &[&str]) -> Result<Args, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_suite(&owned)
    }

    #[test]
    fn suite_defaults_and_positional_filters_parse() {
        let a = suite(&["E10", "--filter", "tag:fleet", "-j", "2", "-d", "5"]).unwrap();
        assert_eq!(a.filters, ["E10", "tag:fleet"]);
        assert_eq!(a.seed, autosec_runner::DEFAULT_SEED);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.deadline_secs, Some(5));
        assert!(
            suite(&["--resume"]).unwrap().json,
            "--resume implies --json"
        );
        assert_eq!(suite(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn suite_rejects_one_malformed_value_per_flag() {
        for (flag, bad, reason) in [
            ("--seed", "abc", "expected an unsigned integer"),
            ("--jobs", "0", "expected a positive integer"),
            ("--jobs", "two", "expected a positive integer"),
            ("--trials-scale", "0", "expected a positive number"),
            ("--trials-scale", "NaN", "expected a positive number"),
            ("--deadline-secs", "0", "expected a positive integer"),
            ("--deadline-secs", "-1", "expected a positive integer"),
            ("--isolate", "maybe", "expected on, off or auto"),
            ("--retries", "-1", "expected an unsigned integer"),
            ("--rss-limit-mb", "0", "expected a positive integer"),
            ("--cpu-limit-secs", "0", "expected a positive integer"),
        ] {
            let err = suite(&[flag, bad]).unwrap_err();
            assert_eq!(err, format!("invalid {flag} {bad:?}: {reason}"));
        }
        let takes_value = "--filter --seed --jobs --trials-scale --deadline-secs --isolate \
                           --retries --rss-limit-mb --cpu-limit-secs --worker-one --out";
        for flag in takes_value.split_whitespace() {
            assert_eq!(
                suite(&[flag]).unwrap_err(),
                format!("missing value for {flag}")
            );
        }
        assert_eq!(
            suite(&["--warp"]).unwrap_err(),
            "unknown argument \"--warp\""
        );
    }
}
