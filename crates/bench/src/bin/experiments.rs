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
//! Tables are bit-identical for any `--jobs`. Each experiment runs under
//! `catch_unwind` with a soft deadline from its cost class, and the
//! manifest is rewritten after every experiment, so `--resume` can finish
//! an interrupted run.
//!
//! The suite, `fleet` and `generate` each have one flag table (`SUITE`,
//! `FLEET`, `GENERATE`) holding every flag's names, help text and where
//! its value lands. One loop parses all three, and `--help` prints the
//! usage rendered from the table, so every flag is documented there. A
//! bad command line exits 2 with a one-line reason and the usage.

use std::process::ExitCode;
use std::time::Duration;

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_bench::{registry, ArtifactStore, RunCtx, RunManifest};
use autosec_core::campaign::DefensePosture;
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine};
use autosec_runner::{
    run_suite, NoRun, ResumeState, RunStatus, SuiteOptions, DEFAULT_ARTIFACT_DIR,
};
use autosec_scengen::{evaluate_campaign, generate, CoverageMatrix, GenConfig};
use autosec_sim::{ArchLayer, SimRng, Stride};
use serde_json::{json, Value};

#[derive(Debug, Default)]
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
}

/// Parsed `fleet` subcommand arguments.
#[derive(Debug, Default)]
struct FleetArgs {
    cfg: FleetConfig,
    json: bool,
    canonical: bool,
    /// Whether `--shards` was given explicitly (otherwise the caller
    /// defaults it to the available parallelism).
    shards_given: bool,
    out: String,
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

/// Stores a flag's value in its grammar's arguments; `Err` names what
/// the value should have been.
type Land<A> = fn(&mut A, &str) -> Result<(), &'static str>;

/// What a flag takes from the command line.
enum Takes<A> {
    /// No value: the flag itself is the setting.
    Switch(fn(&mut A)),
    /// The next argument, shown in the usage text as the placeholder.
    Value(&'static str, Land<A>),
    /// Nothing: the flag asks for the usage text.
    Help,
}

/// One command-line flag.
struct Flag<A> {
    /// The long name, then the short alias if there is one.
    names: &'static [&'static str],
    /// The usage entry, laid out as printed.
    help: &'static str,
    takes: Takes<A>,
}

/// The flags several grammars share, declared once; each grammar says
/// where the value lands.
impl<A> Flag<A> {
    const HELP: Self = Flag {
        names: &["--help", "-h"],
        help: "print this usage text and exit",
        takes: Takes::Help,
    };

    const fn seed(land: Land<A>) -> Self {
        Flag {
            names: &["--seed", "-s"],
            help: "master seed (default 42); output is a pure function of it",
            takes: Takes::Value("N", land),
        }
    }

    const fn jobs(land: Land<A>) -> Self {
        Flag {
            names: &["--jobs", "-j"],
            help: "worker threads, at most 1024 (default 1); output is
                   identical for any N",
            takes: Takes::Value("N", land),
        }
    }

    const fn json(set: fn(&mut A)) -> Self {
        Flag {
            names: &["--json"],
            help: "write JSON artifacts into the --out directory",
            takes: Takes::Switch(set),
        }
    }

    const fn canonical(set: fn(&mut A)) -> Self {
        Flag {
            names: &["--canonical"],
            help: "strip volatile keys (durations, jobs, throughput) so runs
                   with different --jobs or --shards diff byte-identical.
                   Implies --json",
            takes: Takes::Switch(set),
        }
    }

    const fn out(land: Land<A>) -> Self {
        Flag {
            names: &["--out", "-o"],
            help: "artifact directory (default target/experiments)",
            takes: Takes::Value("DIR", land),
        }
    }
}

/// One argument grammar: the suite's, `fleet`'s or `generate`'s.
struct Grammar<A: 'static> {
    /// The subcommand and a space; empty for the suite.
    command: &'static str,
    /// The arguments before any flag is applied (the defaults).
    init: fn() -> A,
    /// Where bare arguments land (the suite's filters); a grammar
    /// without this rejects them.
    positional: Option<Land<A>>,
    flags: &'static [Flag<A>],
    /// A rule across flags, checked once every flag is read; `Err`
    /// carries the whole reason.
    check: fn(&A) -> Result<(), &'static str>,
    /// Prose printed after the flag entries.
    trailer: &'static str,
}

/// Stores a value a reader below accepted, or passes on what it expected.
fn set<T>(slot: &mut T, value: Result<T, &'static str>) -> Result<(), &'static str> {
    *slot = value?;
    Ok(())
}

fn unsigned<T: std::str::FromStr>(v: &str) -> Result<T, &'static str> {
    v.parse().map_err(|_| "an unsigned integer")
}

fn positive<T: std::str::FromStr + Default + PartialOrd>(v: &str) -> Result<T, &'static str> {
    let n = v.parse().ok().filter(|n| *n > T::default());
    n.ok_or("a positive integer")
}

/// The most worker threads `--jobs` or `--shards` may ask for: each
/// `par_trials` call and each fleet tick starts up to that many.
const MAX_WORKERS: usize = 1024;

/// The largest `fleet --vehicles`. The fleet keeps 60 bytes of columns
/// per vehicle (a 40-byte RNG, health, incident tick, status, layer,
/// flag and strikes), so ten million vehicles hold 600 MB. Vehicle ids
/// are `u32`, so no bound may pass `u32::MAX`.
const MAX_VEHICLES: usize = 10_000_000;
const _: () = assert!(MAX_VEHICLES <= u32::MAX as usize);

/// The largest `fleet --ticks`. At `--snapshot-every 1` the run keeps
/// one snapshot per tick (about 190 bytes each), and `--json` renders
/// them all as one JSON tree, about 5 KB per snapshot, before writing
/// it: 20 000 ticks peak near 100 MB, 100 000 near 0.5 GB.
const MAX_TICKS: usize = 100_000;

/// The largest `generate --count` and `fleet --campaign generated:N`,
/// which composes its pool the same way. The default graph holds only
/// 13 714 distinct walks of up to six steps, so a larger request mostly
/// spends its 64 attempts per campaign on repeats: on a 2-vCPU Xeon
/// 4096 campaigns compose in about 0.02 s, and 16384 requests take
/// 1.1 s to keep all 13 714 (a fleet asking for 100 000 spent 6.4 s).
/// `generate` then replays every kept campaign `--trials` times under
/// two postures.
const MAX_CAMPAIGNS: usize = 4096;

/// The largest `generate --trials`: `par_trials` keeps one result per
/// trial, and a million replays of 16 campaigns x 2 postures take about
/// 4 s on a 2-vCPU Xeon.
const MAX_TRIALS: usize = 1_000_000;

/// The largest `--trials-scale`: it keeps the registry's largest
/// published count (E11's 20 000 rounds) at [`MAX_TRIALS`].
const MAX_TRIALS_SCALE: f64 = 50.0;

/// A positive integer no larger than `max`; `expected` names the range.
fn up_to(v: &str, max: usize, expected: &'static str) -> Result<usize, &'static str> {
    positive(v).and_then(|n| (n <= max).then_some(n).ok_or(expected))
}

/// A worker count: a positive integer no larger than [`MAX_WORKERS`].
fn workers(v: &str) -> Result<usize, &'static str> {
    up_to(v, MAX_WORKERS, "a positive integer up to 1024")
}

/// A finite number that `ok` accepts.
fn finite(v: &str, ok: fn(f64) -> bool, expected: &'static str) -> Result<f64, &'static str> {
    let x = v.parse().ok().filter(|x: &f64| x.is_finite() && ok(*x));
    x.ok_or(expected)
}

/// `full`, `none`, or `depth:K` for the lowest K of the six layers.
fn posture(v: &str) -> Result<DefensePosture, &'static str> {
    match v {
        "full" => Ok(DefensePosture::full()),
        "none" => Ok(DefensePosture::none()),
        _ => v
            .strip_prefix("depth:")
            .and_then(|k| k.parse().ok())
            .filter(|&k| k <= ArchLayer::ALL.len())
            .map(DefensePosture::depth)
            .ok_or("full, none or depth:K (K <= 6)"),
    }
}

/// A `--filter` value, or a bare argument of the suite.
fn push_filter(args: &mut Args, filter: &str) -> Result<(), &'static str> {
    args.filters.push(filter.to_owned());
    Ok(())
}

const SUITE: Grammar<Args> = Grammar {
    command: "",
    init: || Args {
        seed: autosec_runner::DEFAULT_SEED,
        jobs: 1,
        trials_scale: 1.0,
        out: DEFAULT_ARTIFACT_DIR.to_owned(),
        ..Args::default()
    },
    positional: Some(push_filter),
    flags: &[
        Flag {
            names: &["--filter", "-f"],
            help: "an experiment selector, also given bare: a group id (e.g.
                   E10) or slug (e.g. e10-cascade), matched exactly and
                   case-insensitively. tag:<tag> (e.g. tag:parallel) selects
                   every experiment carrying that tag; stride:<class> (e.g.
                   stride:spoofing) selects by STRIDE threat-class annotation;
                   failed:<dir-or-manifest> re-selects the failed / timed-out
                   entries of a prior manifest (an unreadable manifest exits
                   2). May be repeated; overlapping filters never run an
                   experiment twice",
            takes: Takes::Value("F", push_filter),
        },
        Flag::seed(|a, v| set(&mut a.seed, unsigned(v))),
        Flag::jobs(|a, v| set(&mut a.jobs, workers(v))),
        Flag {
            names: &["--trials-scale", "-t"],
            help: "multiply Monte-Carlo trial counts by F, at most 50 (default
                   1.0); a precision/runtime knob like --jobs, excluded from
                   canonical artifacts",
            takes: Takes::Value("F", |a, v| {
                let scale = finite(v, |s| s > 0.0, "a positive number").and_then(|s| {
                    let expected = "a positive number up to 50";
                    (s <= MAX_TRIALS_SCALE).then_some(s).ok_or(expected)
                });
                set(&mut a.trials_scale, scale)
            }),
        },
        Flag::json(|a| a.json = true),
        Flag::canonical(|a| (a.canonical, a.json) = (true, true)),
        Flag {
            names: &["--keep-going", "-k"],
            help: "record a panicking or overtime experiment in the manifest
                   and continue instead of aborting (exit 1 if anything failed)",
            takes: Takes::Switch(|a| a.keep_going = true),
        },
        Flag {
            names: &["--deadline-secs", "-d"],
            help: "soft per-experiment deadline replacing the cost-derived
                   defaults (cheap 30s / moderate 120s / heavy 600s)",
            takes: Takes::Value("N", |a, v| set(&mut a.deadline_secs, positive(v).map(Some))),
        },
        Flag {
            names: &["--resume", "-r"],
            help: "skip experiments whose artifact a prior manifest in the
                   --out dir already covers for the same (seed, trials-scale,
                   filter set); re-runs failures and gaps. Implies --json",
            takes: Takes::Switch(|a| (a.resume, a.json) = (true, true)),
        },
        Flag::out(|a, v| set(&mut a.out, Ok(v.into()))),
        Flag {
            names: &["--list", "-l"],
            help: "print the experiment catalogue and exit",
            takes: Takes::Switch(|a| a.list = true),
        },
        Flag::HELP,
    ],
    check: |_| Ok(()),
    trailer: "Subcommands, each with its own --help:
  experiments fleet [FLAG...]      live-fleet service mode
  experiments generate [FLAG...]   generative scenario composer",
};

const FLEET: Grammar<FleetArgs> = Grammar {
    command: "fleet ",
    init: || FleetArgs {
        cfg: FleetConfig {
            vehicles: 10_000,
            ticks: 200,
            snapshot_every: 50,
            ..FleetConfig::default()
        },
        out: DEFAULT_ARTIFACT_DIR.to_owned(),
        ..FleetArgs::default()
    },
    positional: None,
    flags: &[
        Flag {
            names: &["--vehicles", "-n"],
            help: "fleet size, at most 10000000 (default 10000)",
            takes: Takes::Value("N", |a, v| {
                let expected = "a positive integer up to 10000000";
                set(&mut a.cfg.vehicles, up_to(v, MAX_VEHICLES, expected))
            }),
        },
        Flag {
            names: &["--ticks"],
            help: "ticks to run, at most 100000 (default 200)",
            takes: Takes::Value("N", |a, v| {
                let ticks = up_to(v, MAX_TICKS, "a positive integer up to 100000");
                set(&mut a.cfg.ticks, ticks.map(|n| n as u64))
            }),
        },
        Flag {
            names: &["--shards"],
            help: "worker shards, at most 1024 (default: the available
                   parallelism, capped by the vehicle count); results are
                   bit-identical for any N",
            takes: Takes::Value("N", |a, v| {
                a.shards_given = true;
                set(&mut a.cfg.shards, workers(v))
            }),
        },
        Flag::seed(|a, v| set(&mut a.cfg.seed, unsigned(v))),
        Flag {
            names: &["--snapshot-every"],
            help: "ticks between census snapshots (default 50)",
            takes: Takes::Value("N", |a, v| set(&mut a.cfg.snapshot_every, unsigned(v))),
        },
        Flag {
            names: &["--posture"],
            help: "the defended layers: full (default), none, or the lowest K",
            takes: Takes::Value("full|none|depth:K", |a, v| {
                set(&mut a.cfg.posture, posture(v))
            }),
        },
        Flag {
            names: &["--fidelity"],
            help: "attack-resolution tier (default calibrated; see below)",
            takes: Takes::Value("live|calibrated", |a, v| {
                let expected = "live or calibrated";
                set(&mut a.cfg.fidelity, Fidelity::parse(v).ok_or(expected))
            }),
        },
        Flag {
            names: &["--campaign"],
            help: "where attack pressure comes from (default fixed; see below)",
            takes: Takes::Value("fixed|generated:N", |a, v| {
                let expected = "fixed or generated:N (1 <= N <= 4096)";
                let campaign = CampaignMode::parse(v).filter(|c| match c {
                    CampaignMode::Generated { count } => *count <= MAX_CAMPAIGNS,
                    CampaignMode::Fixed => true,
                });
                set(&mut a.cfg.campaign, campaign.ok_or(expected))
            }),
        },
        Flag {
            names: &["--attack-rate"],
            help: "per-vehicle per-tick attack probability in [0, 1] (default
                   0.0005)",
            takes: Takes::Value("F", |a, v| {
                let rate = finite(v, |r| (0.0..=1.0).contains(&r), "a probability in [0, 1]");
                set(&mut a.cfg.attack_rate, rate)
            }),
        },
        Flag {
            names: &["--no-faults"],
            help: "switch fault injection off",
            takes: Takes::Switch(|a| a.cfg.faults_enabled = false),
        },
        Flag {
            names: &["--defender"],
            help: "fleet-wide defense policy (default off; see below)",
            takes: Takes::Value("off|static|closed-loop", |a, v| {
                let expected = "off, static or closed-loop";
                set(&mut a.cfg.defender, DefenderMode::parse(v).ok_or(expected))
            }),
        },
        Flag {
            names: &["--defender-budget"],
            help: "the defender's action budget (default 0)",
            takes: Takes::Value("F", |a, v| {
                let budget = finite(v, |b| b >= 0.0, "a finite nonnegative budget");
                set(&mut a.cfg.defender_budget, budget)
            }),
        },
        Flag::json(|a| a.json = true),
        Flag::canonical(|a| (a.canonical, a.json) = (true, true)),
        Flag::out(|a, v| set(&mut a.out, Ok(v.into()))),
        Flag::HELP,
    ],
    check: |a| match (a.cfg.campaign, a.cfg.fidelity) {
        (CampaignMode::Generated { .. }, Fidelity::Live) => {
            Err("--fidelity applies to fixed campaigns only")
        }
        _ => Ok(()),
    },
    trailer: "  Runs the live-fleet service mode: N per-vehicle state machines under
  continuous attack, fault and defense pressure for the given number of
  ticks. --fidelity picks the attack-resolution tier: 'calibrated'
  (default) resolves attacks against an outcome table calibrated from
  the live scenario models, and 'live' replays every model end to end.

  --campaign picks where direct attack pressure comes from: 'fixed'
  (default) replays the paper's step catalog, 'generated:N'
  (1 <= N <= 4096, as for generate --count) composes a pool of N
  capability-consistent multi-step campaigns from the calibrated attack
  graph (seeded by --seed) and replays those. --fidelity applies to
  fixed campaigns only: a generated run resolves every attack by walking
  its pool, so it refuses --fidelity live. Generated runs stay
  bit-identical across --shards.

  --defender arms the fleet-wide defense policy: 'static' spends
  --defender-budget up front hardening layers, 'closed-loop' holds it
  for a between-tick rule policy reading the alert tallies and census.
  A zero budget is the null defender, bit-identical to 'off'.

  On a single-core machine extra shards cost thread overhead instead of
  buying wall-clock time (see benchmark/README.md). --json (or
  --canonical) writes the canonical-keyed fleet.json artifact.",
};

const GENERATE: Grammar<GenerateArgs> = Grammar {
    command: "generate ",
    init: || GenerateArgs {
        cfg: GenConfig::new(16, 6, autosec_runner::DEFAULT_SEED),
        trials: 200,
        jobs: 1,
        json: false,
        canonical: false,
        out: DEFAULT_ARTIFACT_DIR.to_owned(),
    },
    positional: None,
    flags: &[
        Flag {
            names: &["--count", "-c"],
            help: "target number of distinct campaigns, at most 4096 (default
                   16)",
            takes: Takes::Value("N", |a, v| {
                let expected = "a positive integer up to 4096";
                set(&mut a.cfg.count, up_to(v, MAX_CAMPAIGNS, expected))
            }),
        },
        Flag {
            names: &["--max-len"],
            help: "maximum steps per campaign (default 6)",
            takes: Takes::Value("N", |a, v| set(&mut a.cfg.max_len, positive(v))),
        },
        Flag::seed(|a, v| set(&mut a.cfg.seed, unsigned(v))),
        Flag::jobs(|a, v| set(&mut a.jobs, workers(v))),
        Flag {
            names: &["--trials"],
            help: "Monte-Carlo replays per campaign x posture, at most 1000000
                   (default 200)",
            takes: Takes::Value("N", |a, v| {
                let expected = "a positive integer up to 1000000";
                set(&mut a.trials, up_to(v, MAX_TRIALS, expected))
            }),
        },
        Flag {
            names: &["--layer"],
            help: "keep only campaigns touching this layer: physical, network,
                   software/platform, data, system-of-systems or collaboration",
            takes: Takes::Value("L", |a, v| {
                let expected = "physical, network, software/platform, data, \
                                system-of-systems or collaboration";
                set(
                    &mut a.cfg.layer,
                    ArchLayer::parse(v).map(Some).ok_or(expected),
                )
            }),
        },
        Flag {
            names: &["--stride-class"],
            help: "keep only campaigns touching this STRIDE class: spoofing,
                   tampering, repudiation, info-disclosure, denial-of-service
                   or elevation-of-privilege (mnemonics s/t/r/i/d/e accepted)",
            takes: Takes::Value("S", |a, v| {
                let expected = "a STRIDE class label (e.g. spoofing, denial-of-service) \
                                or mnemonic s/t/r/i/d/e";
                set(
                    &mut a.cfg.stride,
                    Stride::parse(v).map(Some).ok_or(expected),
                )
            }),
        },
        Flag::json(|a| a.json = true),
        Flag::canonical(|a| (a.canonical, a.json) = (true, true)),
        Flag::out(|a, v| set(&mut a.out, Ok(v.into()))),
        Flag::HELP,
    ],
    check: |_| Ok(()),
    trailer: "  Composes capability-consistent multi-step attack campaigns from the
  calibrated attack graph and replays each under the empty and full
  defense postures, then rolls the pool up into the STRIDE x layer
  coverage matrix (verdicts: covered / GAP / n/a); --json writes the
  scengen.json artifact.",
};

/// Parses `raw` by `grammar`: `Ok(None)` when `--help` asks for the
/// usage text, `Err` with the one-line reason the CLI prints before
/// it. Every rejection reads `missing value for X`, `invalid X "v":
/// expected ...` or `unknown [fleet |generate ]argument "x"`.
fn parse<A>(grammar: &Grammar<A>, raw: &[String]) -> Result<Option<A>, String> {
    let mut args = (grammar.init)();
    let mut raw = raw.iter().map(String::as_str);
    while let Some(arg) = raw.next() {
        let Some(flag) = grammar.flags.iter().find(|f| f.names.contains(&arg)) else {
            match grammar.positional {
                Some(land) if !arg.starts_with('-') => land(&mut args, arg)?,
                _ => return Err(format!("unknown {}argument {arg:?}", grammar.command)),
            }
            continue;
        };
        let name = flag.names[0];
        match flag.takes {
            Takes::Switch(set) => set(&mut args),
            Takes::Value(_, land) => {
                let v = raw
                    .next()
                    .ok_or_else(|| format!("missing value for {name}"))?;
                land(&mut args, v).map_err(|e| format!("invalid {name} {v:?}: expected {e}"))?;
            }
            Takes::Help => return Ok(None),
        }
    }
    (grammar.check)(&args)?;
    Ok(Some(args))
}

/// The usage text, rendered from the grammar: a synopsis, one entry
/// per flag, then the trailer.
fn usage<A>(grammar: &Grammar<A>) -> String {
    let filters = grammar.positional.map_or("", |_| "[FILTER...] ");
    let mut text = format!(
        "usage: experiments {}{filters}[FLAG...]\n\n",
        grammar.command
    );
    for flag in grammar.flags {
        let names: Vec<&str> = flag.names.iter().rev().copied().collect();
        let mut lead = format!("  {}", names.join(", "));
        if let Takes::Value(placeholder, _) = flag.takes {
            lead = format!("{lead} {placeholder}");
        }
        let lead = match lead.len() < 17 {
            true => format!("{lead:18}"),
            false => format!("{lead}\n{:18}", ""),
        };
        let help: Vec<&str> = flag.help.lines().map(str::trim).collect();
        text += &format!("{lead}{}\n", help.join(&format!("\n{:18}", "")));
    }
    text + "\n" + grammar.trailer
}

/// The parsed arguments; otherwise the reason (unless `--help` asked)
/// and the usage text go to stderr and the process exits 2.
fn parse_or_exit<A>(grammar: &Grammar<A>, raw: &[String]) -> A {
    match parse(grammar, raw) {
        Ok(Some(args)) => return args,
        Ok(None) => {}
        Err(reason) => eprintln!("{reason}"),
    }
    eprintln!("{}", usage(grammar));
    std::process::exit(2);
}

/// The artifact store at `out`, canonical if asked; `None` once the
/// failure is reported.
fn open_store(out: &str, canonical: bool) -> Option<ArtifactStore> {
    let store = ArtifactStore::create(out)
        .inspect_err(|e| eprintln!("cannot create artifact dir {out:?}: {e}"))
        .ok()?;
    Some(if canonical { store.canonical() } else { store })
}

/// The `fleet` subcommand: one live-fleet run with a human summary
/// and an optional `fleet.json` artifact.
fn fleet_main(args: FleetArgs) -> ExitCode {
    let mut cfg = args.cfg;
    if !args.shards_given {
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

    if args.json {
        return write_artifact(&args.out, args.canonical, "fleet", &report.to_json());
    }
    ExitCode::SUCCESS
}

/// Writes the one `<stem>.json` artifact of the `fleet` or `generate`
/// subcommand.
fn write_artifact(out: &str, canonical: bool, stem: &str, artifact: &Value) -> ExitCode {
    let Some(store) = open_store(out, canonical) else {
        return ExitCode::FAILURE;
    };
    match store.write_json(stem, artifact) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("{stem} artifact write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `generate` subcommand: compose, replay, and report coverage.
fn generate_main(args: GenerateArgs) -> ExitCode {
    let (cfg, trials, jobs) = (&args.cfg, args.trials, args.jobs);

    // Same calibration machinery and trial count as the fleet service
    // mode — generated campaigns replay the measured graph, never a
    // hand-typed table.
    let calib = CalibrationConfig::new(12, jobs);
    let graph = calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("scengen/calibration"));
    let pool = generate(&graph, cfg);
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

    if args.json {
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
        return write_artifact(&args.out, args.canonical, "scengen", &artifact);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The `fleet` and `generate` subcommands have their own argument
    // grammars.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("fleet") => return fleet_main(parse_or_exit(&FLEET, &raw[1..])),
        Some("generate") => return generate_main(parse_or_exit(&GENERATE, &raw[1..])),
        _ => {}
    }
    let args = parse_or_exit(&SUITE, &raw);
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

    let selected = match reg.resolve(&args.filters) {
        _ if args.filters.is_empty() => reg.all(),
        Ok(selected) => selected,
        Err(NoRun::BadManifest { filter, manifest }) => {
            eprintln!(
                "invalid --filter {filter:?}: expected a readable run manifest at {manifest:?}"
            );
            eprintln!("{}", usage(&SUITE));
            return ExitCode::from(2);
        }
        Err(NoRun::NoFailures(manifest)) => {
            eprintln!(
                "nothing to re-run: {} records no failures",
                manifest.display()
            );
            return ExitCode::SUCCESS;
        }
        Err(NoRun::NoMatch) => {
            eprintln!(
                "no experiment matched {:?}; available ids: {}\n(or pick a slug from --list)",
                args.filters.join(","),
                reg.group_ids().join(" ")
            );
            return ExitCode::FAILURE;
        }
    };

    let ctx = RunCtx::new(args.seed, args.jobs).with_trials_scale(args.trials_scale);
    let store = match args.json.then(|| open_store(&args.out, args.canonical)) {
        Some(None) => return ExitCode::FAILURE,
        store => store.flatten(),
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

    let opts = SuiteOptions {
        keep_going: args.keep_going,
        deadline_override: args.deadline_secs.map(Duration::from_secs),
        skip,
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
                        "worker detached (still running)"
                    } else {
                        "worker finished late"
                    }
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
        parse(&FLEET, &owned).map(|a| a.expect("no --help given"))
    }

    #[test]
    fn fleet_defaults_parse() {
        let a = fleet(&[]).expect("empty args are the defaults");
        assert_eq!(a.cfg.vehicles, 10_000);
        assert_eq!(a.cfg.ticks, 200);
        assert!(!a.shards_given);
        assert_eq!(a.cfg.defender, DefenderMode::Off);
        assert!(!a.json && !a.canonical);
        let a = fleet(&["--canonical"]).unwrap();
        assert!(a.json && a.canonical, "--canonical implies --json");
    }

    #[test]
    fn fleet_attack_rate_rejects_nan_negative_and_garbage() {
        for bad in ["NaN", "nan", "-0.5", "inf", "rate", "1.0000001", "1e308"] {
            let err = fleet(&["--attack-rate", bad]).unwrap_err();
            assert!(err.contains("--attack-rate"), "{bad}: {err}");
            assert!(err.contains("a probability in [0, 1]"), "{bad}: {err}");
        }
        assert_eq!(fleet(&["--attack-rate", "0"]).unwrap().cfg.attack_rate, 0.0);
        assert_eq!(fleet(&["--attack-rate", "1"]).unwrap().cfg.attack_rate, 1.0);
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
        let most = MAX_WORKERS.to_string();
        assert_eq!(fleet(&["--shards", &most]).unwrap().cfg.shards, MAX_WORKERS);
        let over = (MAX_WORKERS + 1).to_string();
        assert_eq!(
            fleet(&["--shards", &over]).unwrap_err(),
            format!("invalid --shards {over:?}: expected a positive integer up to {MAX_WORKERS}")
        );
    }

    #[test]
    fn size_bounds_accept_their_maximum() {
        let most = MAX_VEHICLES.to_string();
        assert_eq!(
            fleet(&["--vehicles", &most]).unwrap().cfg.vehicles,
            MAX_VEHICLES
        );
        let ticks = fleet(&["--ticks", "100000"]).unwrap().cfg.ticks;
        assert_eq!(ticks, MAX_TICKS as u64);
        let a = gen(&["--count", "4096", "--trials", "1000000"]).unwrap();
        assert_eq!((a.cfg.count, a.trials), (MAX_CAMPAIGNS, MAX_TRIALS));
        let a = fleet(&["--campaign", "generated:4096"]).unwrap();
        let count = MAX_CAMPAIGNS;
        assert_eq!(a.cfg.campaign, CampaignMode::Generated { count });
        assert_eq!(suite(&["-t", "50"]).unwrap().trials_scale, MAX_TRIALS_SCALE);
    }

    #[test]
    fn fleet_fidelity_rejects_zero_period() {
        for bad in ["mixed:0", "mixed:4", "tables"] {
            assert_eq!(
                fleet(&["--fidelity", bad]).unwrap_err(),
                format!("invalid --fidelity {bad:?}: expected live or calibrated")
            );
        }
        let ok = fleet(&["--fidelity", "live"]).unwrap();
        assert_eq!(ok.cfg.fidelity, Fidelity::Live);
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
        let ok = fleet(&["--campaign", "generated:12", "--fidelity", "calibrated"]).unwrap();
        assert_eq!(ok.cfg.fidelity, Fidelity::Calibrated);
        for args in [
            ["--campaign", "generated:12", "--fidelity", "live"],
            ["--fidelity", "live", "--campaign", "generated:12"],
        ] {
            let err = fleet(&args).unwrap_err();
            assert_eq!(err, "--fidelity applies to fixed campaigns only");
        }
        let ok = fleet(&["--campaign", "fixed"]).unwrap();
        assert_eq!(ok.cfg.campaign, CampaignMode::Fixed);
        for bad in ["generated:0", "generated:4097", "generated", "scripted"] {
            let err = fleet(&["--campaign", bad]).unwrap_err();
            assert!(
                err.contains("fixed or generated:N (1 <= N <= 4096)"),
                "{bad}: {err}"
            );
        }
    }

    fn gen(args: &[&str]) -> Result<GenerateArgs, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse(&GENERATE, &owned).map(|a| a.expect("no --help given"))
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
        let a = gen(&["--canonical"]).unwrap();
        assert!(a.json && a.canonical, "--canonical implies --json");
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
            assert_eq!(
                gen(bad).unwrap_err(),
                format!("invalid {} \"0\": expected a positive integer", bad[0])
            );
        }
        assert_eq!(gen(&["--count"]).unwrap_err(), "missing value for --count");
        assert!(gen(&["--warp"]).unwrap_err().contains("unknown generate"));
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
            "invalid --vehicles \"0\": expected a positive integer"
        );
        assert!(fleet(&["--ticks", "-3"]).unwrap_err().contains("--ticks"));
    }

    #[test]
    fn usage_lists_every_flag() {
        fn check<A>(g: &Grammar<A>) {
            let text = usage(g);
            for flag in g.flags {
                let mut entries = text.lines().map(|l| l.split_whitespace().take(2));
                let listed =
                    entries.any(|mut w| w.any(|w| w.trim_end_matches(',') == flag.names[0]));
                assert!(listed, "{}", flag.names[0]);
            }
            assert!(text.contains(DEFAULT_ARTIFACT_DIR), "{text}");
            assert!(text.lines().all(|l| l.chars().count() <= 78), "{text}");
        }
        check(&SUITE);
        check(&FLEET);
        check(&GENERATE);
    }

    /// A `--help` request reads as `Err("help")` here, so tests can
    /// compare it like a rejection.
    fn suite(args: &[&str]) -> Result<Args, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse(&SUITE, &owned)?.ok_or_else(|| "help".to_owned())
    }

    /// The reason `grammar` ("" for the suite, `fleet`, `generate`)
    /// rejects `args` with.
    fn reject(grammar: &str, args: &[&str]) -> String {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        match grammar {
            "fleet" => parse(&FLEET, &owned).map(drop),
            "generate" => parse(&GENERATE, &owned).map(drop),
            _ => parse(&SUITE, &owned).map(drop),
        }
        .expect_err("rejected")
    }

    /// The names of every value-taking flag, with its grammar.
    fn value_flags() -> Vec<(&'static str, &'static [&'static str])> {
        fn of<A>(
            grammar: &'static str,
            g: &Grammar<A>,
        ) -> Vec<(&'static str, &'static [&'static str])> {
            let takes_value = |f: &&Flag<A>| matches!(f.takes, Takes::Value(..));
            g.flags
                .iter()
                .filter(takes_value)
                .map(|f| (grammar, f.names))
                .collect()
        }
        [
            of("", &SUITE),
            of("fleet", &FLEET),
            of("generate", &GENERATE),
        ]
        .concat()
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
        let a = suite(&["--canonical"]).unwrap();
        assert!(a.json && a.canonical, "--canonical implies --json");
        assert_eq!(suite(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn suite_rejects_one_malformed_value_per_flag() {
        // All three grammars: ("" is the suite).
        const POSITIVE: &str = "expected a positive integer";
        const UNSIGNED: &str = "expected an unsigned integer";
        const WORKERS: &str = "expected a positive integer up to 1024";
        let malformed = [
            ("", "--seed", "abc", UNSIGNED),
            ("", "--jobs", "0", POSITIVE),
            ("", "--jobs", "two", POSITIVE),
            ("", "--jobs", "1025", WORKERS),
            ("", "--trials-scale", "0", "expected a positive number"),
            ("", "--trials-scale", "NaN", "expected a positive number"),
            (
                "",
                "--trials-scale",
                "1e30",
                "expected a positive number up to 50",
            ),
            ("", "--deadline-secs", "0", POSITIVE),
            ("", "--deadline-secs", "-1", POSITIVE),
            ("fleet", "--vehicles", "x", POSITIVE),
            (
                "fleet",
                "--vehicles",
                "100000000000",
                "expected a positive integer up to 10000000",
            ),
            ("fleet", "--ticks", "-3", POSITIVE),
            ("fleet", "--ticks", "0", POSITIVE),
            (
                "fleet",
                "--ticks",
                "100000000000",
                "expected a positive integer up to 100000",
            ),
            ("fleet", "--shards", "0", POSITIVE),
            ("fleet", "--shards", "1025", WORKERS),
            ("fleet", "--seed", "abc", UNSIGNED),
            ("fleet", "--snapshot-every", "-1", UNSIGNED),
            (
                "fleet",
                "--posture",
                "depth:7",
                "expected full, none or depth:K (K <= 6)",
            ),
            (
                "fleet",
                "--fidelity",
                "mixed:4",
                "expected live or calibrated",
            ),
            (
                "fleet",
                "--campaign",
                "generated:0",
                "expected fixed or generated:N (1 <= N <= 4096)",
            ),
            (
                "fleet",
                "--attack-rate",
                "-1",
                "expected a probability in [0, 1]",
            ),
            (
                "fleet",
                "--attack-rate",
                "1e308",
                "expected a probability in [0, 1]",
            ),
            (
                "fleet",
                "--defender",
                "sideways",
                "expected off, static or closed-loop",
            ),
            (
                "fleet",
                "--defender-budget",
                "inf",
                "expected a finite nonnegative budget",
            ),
            ("generate", "--count", "x", POSITIVE),
            (
                "generate",
                "--count",
                "1000000000000",
                "expected a positive integer up to 4096",
            ),
            ("generate", "--max-len", "-1", POSITIVE),
            ("generate", "--seed", "abc", UNSIGNED),
            ("generate", "--jobs", "two", POSITIVE),
            ("generate", "--jobs", "0", POSITIVE),
            ("generate", "--jobs", "1025", WORKERS),
            ("generate", "--trials", "1.5", POSITIVE),
            (
                "generate",
                "--trials",
                "1000000000000",
                "expected a positive integer up to 1000000",
            ),
            (
                "generate",
                "--layer",
                "cloud",
                "expected physical, network, software/platform, data, system-of-systems or \
                 collaboration",
            ),
            (
                "generate",
                "--stride-class",
                "phishing",
                "expected a STRIDE class label (e.g. spoofing, denial-of-service) or mnemonic \
                 s/t/r/i/d/e",
            ),
        ];
        for (grammar, flag, bad, reason) in malformed {
            let err = reject(grammar, &[flag, bad]);
            assert_eq!(err, format!("invalid {flag} {bad:?}: {reason}"));
        }
        // Every value flag of the tables: a missing value under each of
        // its names, and a malformed-value row unless any text is valid.
        let free_text = ["--filter", "--out"];
        for (grammar, names) in value_flags() {
            for name in names {
                assert_eq!(
                    reject(grammar, &[name]),
                    format!("missing value for {}", names[0])
                );
            }
            let flag = names[0];
            assert!(
                free_text.contains(&flag)
                    || malformed.iter().any(|r| (r.0, r.1) == (grammar, flag)),
                "{grammar} {flag} has no malformed-value row"
            );
        }
        assert_eq!(
            suite(&["--warp"]).unwrap_err(),
            "unknown argument \"--warp\""
        );
    }
}
