//! E18/E26: harness resilience — the runner's own fault tolerance
//! measured as experiments.
//!
//! The other experiments assume the harness survives their workloads;
//! E18 turns that assumption into a table. It runs a real Monte-Carlo
//! estimate (mean breach depth through a layered defense, the same
//! quantity behind the defense-in-depth curve of E1) while injecting
//! trial-level panics at swept rates, and shows the quarantine-aware
//! accumulator ([`RunningStats`] over the surviving trials) converging
//! to the clean estimate as long as coverage stays non-trivial.
//!
//! Determinism structure: chaos decisions and trial computation draw
//! from **independent** streams. All rates share one `mc` stream, so a
//! surviving trial `i` computes exactly the value the clean run
//! computes for trial `i`; the per-rate `chaos/<rate>` stream only
//! picks which trials die. Survivors are therefore an unbiased sample
//! of the clean trial population, which is why the estimate converges
//! instead of drifting.
//!
//! E26 extends the same claim to the process-isolated runner: units
//! stand in for supervised worker children, a seeded kill stream
//! decides which attempts die (and whether by OOM or CPU ceiling), and
//! each killed unit gets up to [`E26_RERUNS`] more attempts, as a user
//! re-running `--filter failed:<manifest>` would give it. Units that
//! converge within that budget contribute exactly their clean trial
//! values, so the survivor estimate tracks the clean one while the
//! kill bookkeeping stays byte-identical for every `--jobs` value.
//!
//! The module also hosts the hidden `x0-chaos` probe: an experiment
//! registered only when `AUTOSEC_CHAOS` is set, which panics, sleeps,
//! leaks memory, busy-loops, or succeeds on demand. CI uses it to
//! drive a real suite through `--keep-going`, `--resume`, and the
//! process-isolation budgets without polluting the normal registry.

use autosec_runner::{par_trials, try_par_trials, RunCtx, TrialOutcome};
use autosec_sim::{RunningStats, SimRng};

use crate::Table;

/// Monte-Carlo trials per chaos rate. High enough that a 50% survivor
/// population still estimates the mean within a few percent.
pub const TRIALS: usize = 600;

/// Injected per-trial panic probabilities swept by E18. Rate 0.0 is
/// the clean control every other row is compared against.
pub const CHAOS_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.25, 0.50];

/// Success probability of penetrating one more defense layer, and the
/// layer budget. Mean depth ≈ p/(1-p) truncated at the budget.
const LAYER_PENETRATION: f64 = 0.55;
const LAYER_BUDGET: usize = 12;

/// One clean trial: how many defense layers an attacker penetrates
/// before detection.
fn breach_depth(rng: &mut SimRng) -> f64 {
    let mut depth = 0usize;
    while depth < LAYER_BUDGET && rng.chance(LAYER_PENETRATION) {
        depth += 1;
    }
    depth as f64
}

/// Quarantine-aware estimate at one chaos rate: [`RunningStats`] over
/// the surviving trials plus the coverage fraction.
///
/// The trial stream is `mc` (shared across rates); the chaos stream is
/// derived from `chaos` per trial index, so killing a trial never
/// perturbs what any other trial computes.
pub fn chaos_point(
    jobs: usize,
    trials: usize,
    mc: &SimRng,
    chaos: &SimRng,
    rate: f64,
) -> (RunningStats, f64) {
    let outcomes = try_par_trials(jobs, trials, mc, move |i, mut rng| {
        if chaos.fork_idx(i as u64).chance(rate) {
            panic!("injected chaos at trial {i}");
        }
        breach_depth(&mut rng)
    });
    let mut stats = RunningStats::new();
    for outcome in &outcomes {
        if let TrialOutcome::Ok(v) = outcome {
            stats.push(*v);
        }
    }
    let coverage = stats.count() as f64 / trials as f64;
    (stats, coverage)
}

/// E18 table: survivor-population estimates under swept panic rates.
///
/// Columns: injected rate, surviving/total trials, coverage, survivor
/// mean breach depth, and its absolute bias against the rate-0 clean
/// estimate. Bit-identical for every `jobs` value — including which
/// trials get quarantined.
pub fn e18_harness_resilience_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E18",
        "§VIII — harness resilience: estimates from quarantined Monte-Carlo sweeps",
        &[
            "panic rate",
            "survivors",
            "coverage",
            "mean depth",
            "bias vs clean",
        ],
    );
    let base = ctx.rng("e18-harness-resilience");
    let mc = base.fork("mc");
    let trials = ctx.trials(TRIALS);
    let mut clean_mean = 0.0;
    for rate in CHAOS_RATES {
        let chaos = base.fork(&format!("chaos/{rate:.2}"));
        let (stats, coverage) = chaos_point(ctx.jobs, trials, &mc, &chaos, rate);
        if rate == 0.0 {
            clean_mean = stats.mean();
        }
        t.push_row(vec![
            format!("{rate:.2}"),
            format!("{}/{trials}", stats.count()),
            format!("{:.1}%", coverage * 100.0),
            format!("{:.3}", stats.mean()),
            format!("{:.3}", (stats.mean() - clean_mean).abs()),
        ]);
    }
    t
}

/// Simulated worker units per E26 kill rate. Each stands in for one
/// supervised child process in the isolated suite runner.
pub const E26_UNITS: usize = 48;

/// Monte-Carlo trials each converged unit contributes to the survivor
/// estimate.
pub const E26_TRIALS_PER_UNIT: usize = 12;

/// Re-runs a killed unit gets, mirroring up to three
/// `--filter failed:<manifest>` passes over a real suite run.
pub const E26_RERUNS: u32 = 3;

/// Per-attempt kill probabilities swept by E26. Rate 0.0 is the clean
/// control every other row is compared against.
pub const E26_KILL_RATES: [f64; 5] = [0.0, 0.10, 0.20, 0.35, 0.50];

/// One simulated supervised unit: up to `1 + E26_RERUNS` attempts,
/// each killed with probability `rate`; a killed attempt dies by OOM
/// or CPU ceiling on a fair coin from the same stream.
///
/// Returns `(attempts used, converged, oom kills, cpu kills)`. Pure
/// function of `(chaos stream, unit, rate)` — the supervision loop is
/// serial bookkeeping, so it can never depend on `jobs`.
fn supervise_unit(chaos: &SimRng, unit: usize, rate: f64) -> (u32, bool, u32, u32) {
    let unit_stream = chaos.fork_idx(unit as u64);
    let (mut oom, mut cpu) = (0u32, 0u32);
    for attempt in 0..=E26_RERUNS {
        let mut attempt_stream = unit_stream.fork_idx(u64::from(attempt));
        if !attempt_stream.chance(rate) {
            return (attempt + 1, true, oom, cpu);
        }
        if attempt_stream.chance(0.5) {
            oom += 1;
        } else {
            cpu += 1;
        }
    }
    (E26_RERUNS + 1, false, oom, cpu)
}

/// E26 table: survivor convergence under injected worker kills with a
/// budget of [`E26_RERUNS`] re-runs per unit.
///
/// Columns per kill rate: units converged within the re-run budget,
/// total attempts spent, kill counts by cause (OOM / CPU), trial
/// coverage, survivor mean breach depth, and its absolute bias against
/// the rate-0 clean estimate.
///
/// Determinism structure mirrors E18: all rates share one `mc` trial
/// stream (parallel via [`par_trials`]), while the per-rate
/// `kills/<rate>` stream only decides which attempts die. A unit that
/// converges contributes exactly the clean values for its trial span.
pub fn e26_isolation_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E26",
        "§VIII — harness isolation: survivor convergence under injected kills",
        &[
            "kill rate",
            "converged",
            "attempts",
            "oom/cpu kills",
            "coverage",
            "mean depth",
            "bias vs clean",
        ],
    );
    let base = ctx.rng("e26-isolation");
    let mc = base.fork("mc");
    let units = ctx.trials(E26_UNITS);
    let total = units * E26_TRIALS_PER_UNIT;
    let clean: Vec<f64> = par_trials(ctx.jobs, total, &mc, |_i, mut rng| breach_depth(&mut rng));
    let mut clean_mean = 0.0;
    for rate in E26_KILL_RATES {
        let chaos = base.fork(&format!("kills/{rate:.2}"));
        let mut stats = RunningStats::new();
        let (mut converged, mut attempts_total) = (0usize, 0u32);
        let (mut oom_total, mut cpu_total) = (0u32, 0u32);
        for unit in 0..units {
            let (attempts, ok, oom, cpu) = supervise_unit(&chaos, unit, rate);
            attempts_total += attempts;
            oom_total += oom;
            cpu_total += cpu;
            if ok {
                converged += 1;
                for v in &clean[unit * E26_TRIALS_PER_UNIT..(unit + 1) * E26_TRIALS_PER_UNIT] {
                    stats.push(*v);
                }
            }
        }
        if rate == 0.0 {
            clean_mean = stats.mean();
        }
        t.push_row(vec![
            format!("{rate:.2}"),
            format!("{converged}/{units}"),
            format!("{attempts_total}"),
            format!("{oom_total}/{cpu_total}"),
            format!("{:.1}%", stats.count() as f64 / total as f64 * 100.0),
            format!("{:.3}", stats.mean()),
            format!("{:.3}", (stats.mean() - clean_mean).abs()),
        ]);
    }
    t
}

/// Sleeps `total` in slices of at most 100 ms, and ends the process
/// once its parent has changed: a worker whose supervisor was killed
/// mid-run is reparented, and must not sleep out the rest of `total`.
/// A supervisor killed before the sleep began has already handed its
/// worker to another parent, so on Linux a worker whose parent runs
/// another executable ends at once.
fn chaos_sleep(total: std::time::Duration) {
    #[cfg(unix)]
    let parent = std::os::unix::process::parent_id();
    #[cfg(target_os = "linux")]
    {
        let exe = |pid: u32| std::fs::read_link(format!("/proc/{pid}/exe")).ok();
        let worker = std::env::args().any(|a| a == "--worker-one");
        if worker && exe(parent) != exe(std::process::id()) {
            std::process::exit(1);
        }
    }
    let end = std::time::Instant::now() + total;
    loop {
        let left = end.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return;
        }
        #[cfg(unix)]
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
        std::thread::sleep(left.min(std::time::Duration::from_millis(100)));
    }
}

/// The hidden chaos probe (id `X0`, slug `x0-chaos`), registered only
/// when `AUTOSEC_CHAOS` is set:
///
/// - `panic` — panics with a fixed message;
/// - `sleep:<ms>` — sleeps that long, then succeeds (deadline fodder);
///   a process whose parent dies mid-sleep exits instead;
/// - `alloc:<mb>` — leaks that many MiB of touched pages, then idles
///   (RSS-budget fodder: under `--rss-limit-mb` below the target the
///   supervisor kills it mid-leak);
/// - `spin:<secs>` — busy-loops that long (CPU-budget fodder: burns
///   CPU-seconds at wall rate so a `--cpu-limit-secs` ceiling fires);
/// - anything else — succeeds immediately.
///
/// CI sets `AUTOSEC_CHAOS=panic` to verify `--keep-going` records the
/// failure while healthy artifacts stay bit-identical, then flips it to
/// `ok` and `--resume`s the run to completion. The isolation job uses
/// `sleep:`/`alloc:`/`spin:` to land `timed_out`/`oom_killed`/
/// `cpu_exceeded` for real.
pub fn x0_chaos_table(_ctx: &RunCtx) -> Table {
    let mode = std::env::var("AUTOSEC_CHAOS").unwrap_or_default();
    if mode == "panic" {
        panic!("chaos probe: injected panic (AUTOSEC_CHAOS=panic)");
    }
    if let Some(ms) = mode.strip_prefix("sleep:") {
        chaos_sleep(std::time::Duration::from_millis(ms.parse().unwrap_or(0)));
    }
    if let Some(mb) = mode.strip_prefix("alloc:") {
        let mb: usize = mb.parse().unwrap_or(0);
        let mut hoard: Vec<Vec<u8>> = Vec::new();
        for _ in 0..mb {
            // Touch a byte per page so the MiB lands in RSS, not just
            // in the virtual address space.
            let mut block = vec![0u8; 1024 * 1024];
            for i in (0..block.len()).step_by(4096) {
                block[i] = 1;
            }
            hoard.push(block);
        }
        std::hint::black_box(&hoard);
        // Hold the leak briefly so a supervisor whose poll interval
        // straddled the last allocation still observes the peak.
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
    if let Some(secs) = mode.strip_prefix("spin:") {
        let secs: u64 = secs.parse().unwrap_or(0);
        let end = std::time::Instant::now() + std::time::Duration::from_secs(secs);
        let mut x = 1u64;
        while std::time::Instant::now() < end {
            for _ in 0..100_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
        }
        std::hint::black_box(x);
    }
    let mut t = Table::new("X0", "chaos probe", &["mode", "outcome"]);
    t.push_row(vec![mode, "survived".to_owned()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RunCtx {
        RunCtx::new(42, 1).with_trials_scale(0.25)
    }

    #[test]
    fn tables_are_jobs_invariant() {
        let serial = e18_harness_resilience_table(&ctx());
        let parallel = e18_harness_resilience_table(&RunCtx::new(42, 4).with_trials_scale(0.25));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn clean_row_has_full_coverage_and_zero_bias() {
        let t = e18_harness_resilience_table(&ctx());
        assert_eq!(t.rows[0][0], "0.00");
        assert_eq!(t.rows[0][2], "100.0%");
        assert_eq!(t.rows[0][4], "0.000");
    }

    #[test]
    fn coverage_tracks_the_injected_rate() {
        let base = SimRng::seed(42);
        let mc = base.fork("mc");
        let mut prev = f64::INFINITY;
        for rate in [0.0, 0.25, 0.50] {
            let chaos = base.fork(&format!("chaos/{rate:.2}"));
            let (_, coverage) = chaos_point(1, 400, &mc, &chaos, rate);
            assert!(
                (coverage - (1.0 - rate)).abs() < 0.08,
                "rate {rate}: coverage {coverage}"
            );
            assert!(coverage < prev + 1e-9, "coverage must not grow with rate");
            prev = coverage;
        }
    }

    #[test]
    fn survivor_estimate_converges_to_the_clean_one() {
        // The headline claim: quarantining half the trials moves the
        // estimate by sampling noise, not by bias.
        let base = SimRng::seed(42);
        let mc = base.fork("mc");
        let clean = chaos_point(1, 600, &mc, &base.fork("chaos/0.00"), 0.0).0;
        let noisy = chaos_point(1, 600, &mc, &base.fork("chaos/0.50"), 0.5).0;
        assert!(noisy.count() > 200, "survivor population too small");
        assert!(
            (noisy.mean() - clean.mean()).abs() < 0.15,
            "clean {} vs survivors {}",
            clean.mean(),
            noisy.mean()
        );
    }

    #[test]
    fn survivors_compute_exactly_the_clean_values() {
        // Stream independence, stated sharply: every surviving trial's
        // value equals the clean run's value at the same index.
        let base = SimRng::seed(7);
        let mc = base.fork("mc");
        let clean: Vec<f64> = (0..64).map(|i| breach_depth(&mut mc.fork_idx(i))).collect();
        let chaos = base.fork("chaos/0.25");
        let outcomes = try_par_trials(1, 64, &mc, |i, mut rng| {
            if chaos.fork_idx(i as u64).chance(0.25) {
                panic!("die");
            }
            breach_depth(&mut rng)
        });
        for (i, outcome) in outcomes.iter().enumerate() {
            if let TrialOutcome::Ok(v) = outcome {
                assert_eq!(*v, clean[i], "trial {i} diverged from the clean run");
            }
        }
    }

    #[test]
    fn e26_is_jobs_invariant() {
        // The acceptance bar: the kill bookkeeping must be
        // byte-identical across --jobs values, not just the survivor
        // estimates.
        let serial = e26_isolation_table(&ctx());
        let parallel = e26_isolation_table(&RunCtx::new(42, 4).with_trials_scale(0.25));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn e26_clean_row_converges_everything() {
        let t = e26_isolation_table(&ctx());
        let units = RunCtx::default().with_trials_scale(0.25).trials(E26_UNITS);
        assert_eq!(t.rows[0][1], format!("{units}/{units}"));
        assert_eq!(t.rows[0][4], "100.0%");
        assert_eq!(t.rows[0][6], "0.000");
    }

    #[test]
    fn e26_survivors_converge_under_heavy_kills() {
        // Even at a 50% per-attempt kill rate, the re-run budget keeps
        // most units alive and the survivor mean near the clean one.
        let t = e26_isolation_table(&RunCtx::new(42, 1));
        let last = t.rows.last().expect("rows");
        let bias: f64 = last[6].parse().expect("bias cell");
        assert!(bias < 0.3, "survivor bias too large: {bias}");
        let converged: usize = last[1].split('/').next().unwrap().parse().unwrap();
        assert!(
            converged * 100 >= E26_UNITS * 80,
            "re-run budget should rescue most units: {converged}/{E26_UNITS}"
        );
    }

    #[test]
    fn e26_coverage_shrinks_with_the_kill_rate() {
        let t = e26_isolation_table(&ctx());
        let pct = |row: &Vec<String>| -> f64 { row[4].trim_end_matches('%').parse().unwrap() };
        let mut prev = f64::INFINITY;
        for row in &t.rows {
            let c = pct(row);
            assert!(c <= prev + 1e-9, "coverage must not grow with rate");
            prev = c;
        }
    }

    #[test]
    fn supervise_unit_is_deterministic_and_counts_attempts() {
        let chaos = SimRng::seed(9).fork("kills/0.50");
        for unit in 0..32 {
            let a = supervise_unit(&chaos, unit, 0.5);
            let b = supervise_unit(&chaos, unit, 0.5);
            assert_eq!(a, b, "unit {unit}");
            let (attempts, ok, oom, cpu) = a;
            assert!((1..=E26_RERUNS + 1).contains(&attempts));
            // Every non-final attempt died exactly once, by one cause.
            let kills = oom + cpu;
            assert_eq!(kills, if ok { attempts - 1 } else { attempts });
        }
    }

    #[test]
    fn chaos_probe_succeeds_without_the_env_var() {
        // Tests must not set AUTOSEC_CHAOS (process-global); the
        // default path is the only one exercised here. CI drives the
        // panic/sleep modes through the binary.
        if std::env::var("AUTOSEC_CHAOS").is_err() {
            let t = x0_chaos_table(&ctx());
            assert_eq!(t.rows[0][1], "survived");
        }
    }
}
