//! The `benchmark` command line.
//!
//! ```text
//! benchmark run   [--workload W]... [--seed N] [--seconds S] [--out FILE]
//! benchmark trace [--workload W]... [--seed N] [--out FILE]
//! benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! With exactly one workload, the last line of standard output is a
//! JSON summary: `correct`, `attempted`, `failed` and `metrics`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use autosec_benchmark::compare::{compare, rules};
use autosec_benchmark::measure::{run_pass, trace_pass};
use autosec_benchmark::report::{
    print_report, results_json, summary_line, trace_json, write_json, Mode,
};
use autosec_benchmark::workload::{run_sample, Workload};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;
const OUT_DIR: &str = "target/benchmark";

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("benchmark: {msg}");
    }
    eprintln!(
        "usage: benchmark run   [--workload W]... [--seed N] [--seconds S] [--out FILE]\n\
         \x20      benchmark trace [--workload W]... [--seed N] [--out FILE]\n\
         \x20      benchmark compare A.json B.json [--benchmark BENCHMARK.json]\n\
         \x20      benchmark --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Flags shared by every form.
#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
    traced: bool,
    setup_only: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                f.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                f.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v:?}"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                });
            }
            "--out" => f.out = Some(value()?.into()),
            "--benchmark" => f.benchmark = Some(value()?.into()),
            "--traced" => f.traced = true,
            "--setup-only" => f.setup_only = true,
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s => f.positional.push(s.to_owned()),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    // The chaos probe adds a hidden experiment to the registry, which
    // would change the suite workload under the same name.
    if std::env::var_os("AUTOSEC_CHAOS").is_some() {
        eprintln!(
            "benchmark: refusing to run with AUTOSEC_CHAOS set (it adds x0-chaos to the suite)"
        );
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "sample")) => (c, &raw[1..]),
        _ => ("", &raw[..]),
    };
    let flags = match parse(rest) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    match command {
        "compare" => compare_main(&flags),
        "sample" => sample_main(&flags),
        _ if !flags.positional.is_empty() => {
            usage(&format!("unexpected argument {:?}", flags.positional[0]))
        }
        "run" if flags.trace == Some(true) => usage("`run` takes no --trace 1"),
        "run" => measure_main(Mode::Run, &flags),
        "trace" => measure_main(Mode::Trace, &flags),
        _ if flags.trace == Some(true) => measure_main(Mode::Trace, &flags),
        _ => measure_main(Mode::Run, &flags),
    }
}

/// The `run` and `trace` passes.
fn measure_main(mode: Mode, flags: &Flags) -> ExitCode {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let workloads = if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    };
    let mut results = Vec::new();
    for w in &workloads {
        let r = match mode {
            Mode::Run => run_pass(*w, seed, seconds),
            Mode::Trace => trace_pass(*w, seed),
        };
        match r {
            Ok(r) => {
                print_report(mode, seed, &r);
                results.push(r);
            }
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let stem = match workloads.as_slice() {
        [one] => one.name(),
        _ => "all",
    };
    let out = flags.out.clone().unwrap_or_else(|| {
        PathBuf::from(OUT_DIR).join(format!("{}-{stem}-seed{seed}.json", mode.label()))
    });
    let mut written = write_json(&out, &results_json(mode, seed, seconds, &results));
    if mode == Mode::Trace && written.is_ok() {
        written = write_json(
            &PathBuf::from(OUT_DIR).join("trace.json"),
            &trace_json(seed, &results),
        );
    }
    if let Err(e) = written {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    println!("results: {}", out.display());
    if let [one] = results.as_slice() {
        println!("{}", summary_line(mode, one));
    }
    ExitCode::SUCCESS
}

/// One sample, in the fresh process the parent spawned for it.
fn sample_main(flags: &Flags) -> ExitCode {
    let ([w], Some(seed)) = (flags.workloads.as_slice(), flags.seed) else {
        return usage("sample needs one --workload and a --seed");
    };
    let ready = || {
        let mut out = std::io::stdout().lock();
        writeln!(out, "ready")
            .and_then(|()| out.flush())
            .expect("parent reads stdout");
    };
    if let Some(report) = run_sample(*w, seed, flags.traced, flags.setup_only, ready) {
        println!("{}", report.to_json());
    }
    ExitCode::SUCCESS
}

fn compare_main(flags: &Flags) -> ExitCode {
    let [a, b] = flags.positional.as_slice() else {
        return usage("compare needs two results files");
    };
    let load = |p: &str| -> Result<serde_json::Value, String> {
        let s = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&s).map_err(|e| format!("parsing {p}: {e}"))
    };
    let bench = flags
        .benchmark
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let loaded = (|| {
        let rules = rules(&load(&bench.to_string_lossy())?)
            .ok_or_else(|| format!("{} has no end_to_end list", bench.display()))?;
        Ok::<_, String>((rules, load(a)?, load(b)?))
    })();
    let (rules, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (lines, pass) = compare(&rules, &a, &b);
    for l in lines {
        println!("{l}");
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
