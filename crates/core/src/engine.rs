//! Two-tier scenario execution: live steps and calibrated outcome
//! tables behind one [`ScenarioEngine`] interface.
//!
//! Everything below the campaign executes *live* models — a
//! [`ScenarioStep`] replays PKES ranging exchanges, CAN arbitration,
//! SDV reconfiguration races end to end, which costs milliseconds per
//! execution. That fidelity is the right default for experiments that
//! study one attack, but population-scale simulation (the live fleet)
//! cannot pay replay prices on its hot path. The layered-abstraction
//! answer: *measure* each step's outcome distribution against the live
//! model once, then resolve attacks at table-lookup prices.
//!
//! - [`measure_step`] is the shared calibration primitive: it runs one
//!   step `trials` times under a posture through
//!   [`par_trials`] and distills an
//!   [`OutcomeStats`]. The adversary crate's edge calibration and the
//!   outcome tables here both ride on it, so every probability in the
//!   workspace traces back to the same machinery (and is bit-identical
//!   for any job count at a fixed seed). A step whose outcome under a
//!   posture its structure fixes declares it ([`ScenarioStep::exact`]),
//!   and `measure_step` returns the declared rates without replaying;
//!   [`replay_step`] always executes the model, and the tests here
//!   check every declaration against it.
//! - [`ScenarioEngine`] abstracts "resolve attack step `idx` under this
//!   posture, drawing from this RNG".
//! - [`LiveScenarioEngine`] is tier one: the registry steps executed
//!   end to end (exact, slow).
//! - [`StepOutcomeTable`] is tier two: per step × calibrated-posture
//!   success/alert probabilities; resolving draws two Bernoulli
//!   variates (approximate in distribution, ~10⁵× faster).
//!
//! The table is calibrated over an explicit posture ladder (by default
//! the bottom-up depth sweep, [`StepOutcomeTable::calibrate_depths`]).
//! Lookups for a posture outside the ladder fall back by the step's own
//! layer toggle — exact for the registry steps, each of which consults
//! only its own layer's defense — choosing the deepest calibrated
//! posture that agrees on that toggle.

use autosec_runner::par_trials;
use autosec_sim::{ArchLayer, SimRng};

use crate::campaign::DefensePosture;
use crate::scenario::{scenario_registry, PostureCtx, ScenarioStep, StepOutcome};

/// Measured success/alert rates of one scenario step under one posture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeStats {
    /// Fraction of trials in which the attacker reached their goal.
    pub success: f64,
    /// Fraction of trials in which an alert was raised.
    pub detect: f64,
}

/// Measures one step's outcome distribution under `posture`: the
/// step's exact outcome when it declares one
/// ([`ScenarioStep::exact`]), otherwise [`replay_step`].
///
/// A declaration replaces only this calibration: it yields the rates a
/// replay of `trials` executions gives, bit for bit (the same
/// `count / trials` with `count` all or none), and skipping a trial
/// moves no other stream, since trial `i` draws only from its own fork
/// of the borrowed `base`. Whatever must execute the model — a live
/// resolve, a campaign run, or a check of a declaration — calls the
/// step or [`replay_step`] instead.
///
/// Deterministic in `(base, trials)`; `jobs` only changes wall-clock
/// time. This is the primitive the adversary's attack-graph edge
/// calibration and the [`StepOutcomeTable`] share.
pub fn measure_step(
    step: &dyn ScenarioStep,
    posture: &DefensePosture,
    base: &SimRng,
    trials: usize,
    jobs: usize,
) -> OutcomeStats {
    match step.exact(&PostureCtx::new(posture)) {
        Some((succeeded, detected)) => {
            let all = |hit: bool| if hit { trials } else { 0 };
            OutcomeStats::from_counts(all(succeeded), all(detected), trials)
        }
        None => replay_step(step, posture, base, trials, jobs),
    }
}

/// Replays one step under `posture`: `trials` independent executions
/// of the live model, trial `i` on
/// `base.fork_idx(i).fork(step.rng_label())`.
///
/// Deterministic in `(base, trials)`; `jobs` only changes wall-clock
/// time.
pub fn replay_step(
    step: &dyn ScenarioStep,
    posture: &DefensePosture,
    base: &SimRng,
    trials: usize,
    jobs: usize,
) -> OutcomeStats {
    let outcomes = par_trials(jobs, trials, base, |_, rng| {
        let ctx = PostureCtx::new(posture);
        let mut stream = rng.fork(step.rng_label());
        let out = step.execute(&ctx, &mut stream);
        (out.succeeded, out.detected)
    });
    OutcomeStats::from_counts(
        outcomes.iter().filter(|o| o.0).count(),
        outcomes.iter().filter(|o| o.1).count(),
        trials,
    )
}

impl OutcomeStats {
    /// The rates of `succeeded` and `detected` hits in `trials`
    /// executions: the one division both [`measure_step`] paths share.
    ///
    /// Never inlined, so `0 / 0` at `trials == 0` is divided at run
    /// time on both paths: folded into a constant, it gives a NaN of
    /// the other sign.
    #[inline(never)]
    fn from_counts(succeeded: usize, detected: usize, trials: usize) -> Self {
        let n = trials as f64;
        Self {
            success: succeeded as f64 / n,
            detect: detected as f64 / n,
        }
    }
}

/// One resolver over the campaign's attack steps.
///
/// Implementations agree on the step index space (the registry order of
/// [`scenario_registry`]) and on the contract that `resolve` draws all
/// of its randomness from the `rng` it is handed — so two engines can
/// be swapped under a caller without perturbing any other stream.
pub trait ScenarioEngine: Send + Sync {
    /// Number of attack steps this engine resolves.
    fn step_count(&self) -> usize;

    /// Name of step `idx`.
    fn step_name(&self, idx: usize) -> &'static str;

    /// Layer step `idx` attacks.
    fn step_layer(&self, idx: usize) -> ArchLayer;

    /// Resolves one execution of step `idx` under `ctx`, drawing from
    /// `rng`.
    fn resolve(&self, idx: usize, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome;
}

/// Tier one: the registry steps executed live, end to end.
pub struct LiveScenarioEngine {
    steps: Vec<Box<dyn ScenarioStep>>,
}

impl LiveScenarioEngine {
    /// The engine over [`scenario_registry`].
    pub fn from_registry() -> Self {
        Self {
            steps: scenario_registry(),
        }
    }

    /// The underlying steps.
    pub fn steps(&self) -> &[Box<dyn ScenarioStep>] {
        &self.steps
    }
}

impl Default for LiveScenarioEngine {
    fn default() -> Self {
        Self::from_registry()
    }
}

impl ScenarioEngine for LiveScenarioEngine {
    fn step_count(&self) -> usize {
        self.steps.len()
    }
    fn step_name(&self, idx: usize) -> &'static str {
        self.steps[idx].name()
    }
    fn step_layer(&self, idx: usize) -> ArchLayer {
        self.steps[idx].layer()
    }
    fn resolve(&self, idx: usize, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        self.steps[idx].execute(ctx, rng)
    }
}

/// One step's row of a [`StepOutcomeTable`].
#[derive(Debug, Clone)]
pub struct TableStep {
    /// Step name (registry identity).
    pub name: &'static str,
    /// Layer the step attacks.
    pub layer: ArchLayer,
    /// Measured stats per calibrated posture, in
    /// [`StepOutcomeTable::postures`] order.
    pub by_posture: Vec<OutcomeStats>,
}

/// Tier two: calibrated per step × posture outcome probabilities.
///
/// Built by running every registry step through [`measure_step`] under
/// every posture of a ladder — nothing in the table is a hand-typed
/// constant. Resolving a step draws exactly two Bernoulli variates
/// (success, then alert) from the caller's RNG.
#[derive(Debug, Clone)]
pub struct StepOutcomeTable {
    postures: Vec<DefensePosture>,
    steps: Vec<TableStep>,
    trials: usize,
}

impl StepOutcomeTable {
    /// Calibrates the registry steps under each posture of `postures`:
    /// step `s` × posture `p` measures on the substream
    /// `base.fork("table/{step}/p{p}")`.
    ///
    /// Deterministic in `(base, trials, postures)`; `jobs` only changes
    /// wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `postures` is empty or `trials` is zero.
    pub fn calibrate(
        postures: &[DefensePosture],
        trials: usize,
        jobs: usize,
        base: &SimRng,
    ) -> Self {
        assert!(!postures.is_empty(), "table needs at least one posture");
        assert!(trials > 0, "table needs at least one trial per cell");
        let steps = scenario_registry()
            .iter()
            .map(|step| TableStep {
                name: step.name(),
                layer: step.layer(),
                by_posture: postures
                    .iter()
                    .enumerate()
                    .map(|(pi, posture)| {
                        measure_step(
                            step.as_ref(),
                            posture,
                            &base.fork(&format!("table/{}/p{pi}", step.name())),
                            trials,
                            jobs,
                        )
                    })
                    .collect(),
            })
            .collect();
        Self {
            postures: postures.to_vec(),
            steps,
            trials,
        }
    }

    /// Calibrates over the bottom-up depth ladder
    /// [`DefensePosture::depth`]`(0..=6)` — one table serving every
    /// posture of a defense-in-depth sweep.
    pub fn calibrate_depths(trials: usize, jobs: usize, base: &SimRng) -> Self {
        let ladder: Vec<DefensePosture> = (0..=ArchLayer::ALL.len())
            .map(DefensePosture::depth)
            .collect();
        Self::calibrate(&ladder, trials, jobs, base)
    }

    /// The calibrated posture ladder, in column order.
    pub fn postures(&self) -> &[DefensePosture] {
        &self.postures
    }

    /// The per-step rows, in registry order.
    pub fn steps(&self) -> &[TableStep] {
        &self.steps
    }

    /// Monte-Carlo trials behind each cell.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The stats governing step `idx` under `posture`.
    ///
    /// An exact ladder match wins; otherwise the lookup falls back by
    /// the step's own layer toggle (see the module docs), preferring
    /// the deepest calibrated posture that agrees on it.
    ///
    /// # Panics
    ///
    /// Panics if no calibrated posture agrees with `posture` on the
    /// step's layer (never happens for a ladder containing both
    /// [`DefensePosture::none`] and [`DefensePosture::full`]).
    pub fn stats_for(&self, idx: usize, posture: &DefensePosture) -> OutcomeStats {
        let row = &self.steps[idx];
        if let Some(pi) = self.postures.iter().position(|p| p == posture) {
            return row.by_posture[pi];
        }
        let want = posture.enabled(row.layer);
        let pi = self
            .postures
            .iter()
            .rposition(|p| p.enabled(row.layer) == want)
            .unwrap_or_else(|| {
                panic!(
                    "no calibrated posture covers {} with layer {} {}",
                    row.name,
                    row.layer,
                    if want { "defended" } else { "undefended" }
                )
            });
        row.by_posture[pi]
    }

    /// Whether [`Self::stats_for`] can resolve every step under
    /// `posture` without panicking — i.e. for each step some calibrated
    /// posture agrees on that step's own layer toggle. A runtime
    /// defender that mutates the posture mid-run checks this before
    /// committing to a hardening action.
    pub fn covers(&self, posture: &DefensePosture) -> bool {
        self.steps.iter().all(|row| {
            let want = posture.enabled(row.layer);
            self.postures.iter().any(|p| p.enabled(row.layer) == want)
        })
    }
}

impl ScenarioEngine for StepOutcomeTable {
    fn step_count(&self) -> usize {
        self.steps.len()
    }
    fn step_name(&self, idx: usize) -> &'static str {
        self.steps[idx].name
    }
    fn step_layer(&self, idx: usize) -> ArchLayer {
        self.steps[idx].layer
    }
    /// Two Bernoulli draws against the calibrated cell: success, then
    /// alert. Active fault effects in `ctx` do not modulate a table
    /// lookup (they do modulate live execution). E21 compares the
    /// table with the live models fault-free only, so that gap is not
    /// measured.
    fn resolve(&self, idx: usize, ctx: &PostureCtx<'_>, rng: &mut SimRng) -> StepOutcome {
        let stats = self.stats_for(idx, ctx.posture);
        let succeeded = rng.chance(stats.success);
        let detected = rng.chance(stats.detect);
        StepOutcome {
            succeeded,
            prevented: detected && !succeeded,
            detected,
            detail: "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    const TRIALS: usize = 16;

    fn depth_table(jobs: usize) -> StepOutcomeTable {
        // jobs must not change the table (asserted below), so serial
        // calls share one cached calibration.
        static SERIAL: OnceLock<StepOutcomeTable> = OnceLock::new();
        let build = || {
            StepOutcomeTable::calibrate_depths(TRIALS, jobs, &SimRng::seed(11).fork("engine-test"))
        };
        if jobs == 1 {
            SERIAL.get_or_init(build).clone()
        } else {
            build()
        }
    }

    #[test]
    fn live_engine_mirrors_the_registry() {
        let live = LiveScenarioEngine::from_registry();
        let reg = scenario_registry();
        assert_eq!(live.step_count(), reg.len());
        for (i, step) in reg.iter().enumerate() {
            assert_eq!(live.step_name(i), step.name());
            assert_eq!(live.step_layer(i), step.layer());
        }
    }

    #[test]
    fn measure_step_is_jobs_invariant() {
        let step = scenario_registry().remove(0);
        let base = SimRng::seed(3).fork("measure");
        let full = DefensePosture::full();
        let a = measure_step(step.as_ref(), &full, &base, 40, 1);
        let b = measure_step(step.as_ref(), &full, &base, 40, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn exact_outcomes_match_a_replay() {
        let mut postures = vec![DefensePosture::none(), DefensePosture::full()];
        postures.extend((0..=ArchLayer::ALL.len()).map(DefensePosture::depth));
        let bits = |s: OutcomeStats| (s.success.to_bits(), s.detect.to_bits());
        let mut declared = 0;
        for step in scenario_registry() {
            for posture in &postures {
                let Some((succeeded, detected)) = step.exact(&PostureCtx::new(posture)) else {
                    continue;
                };
                declared += 1;
                let rate = |hit: bool| if hit { 1.0 } else { 0.0 };
                let cell = format!("{} under {posture:?}", step.name());
                for seed in [1, 2, 3, 7, 11, 42] {
                    let base = SimRng::seed(seed).fork("exact");
                    let replay = replay_step(step.as_ref(), posture, &base, 12, 1);
                    assert_eq!(
                        (replay.success, replay.detect),
                        (rate(succeeded), rate(detected)),
                        "{cell}, seed {seed}: declaration differs from the replay"
                    );
                    for trials in [0, 1, 12] {
                        assert_eq!(
                            bits(measure_step(step.as_ref(), posture, &base, trials, 1)),
                            bits(replay_step(step.as_ref(), posture, &base, trials, 1)),
                            "{cell}, seed {seed}, {trials} trials"
                        );
                    }
                }
            }
        }
        // Masquerade, flood, rogue placement and the kill chain declare
        // every posture.
        assert!(declared >= 4 * postures.len(), "{declared} declared cells");
    }

    #[test]
    fn table_is_deterministic_across_jobs() {
        let a = depth_table(1);
        let b = depth_table(3);
        assert_eq!(a.postures(), b.postures());
        for (ra, rb) in a.steps().iter().zip(b.steps()) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.by_posture, rb.by_posture, "{}", ra.name);
        }
    }

    #[test]
    fn success_is_monotone_in_posture_depth() {
        // Each step's success may only fall (weakly) as layers turn on
        // bottom-up: the defended side of its own layer never exceeds
        // the undefended side, and other layers leave it untouched.
        let t = depth_table(1);
        for row in t.steps() {
            let undefended = row.by_posture[0].success;
            let defended = row.by_posture.last().unwrap().success;
            assert!(
                defended <= undefended + 1e-12,
                "{}: full-depth success {} > undefended {}",
                row.name,
                defended,
                undefended
            );
        }
    }

    #[test]
    fn lookup_prefers_exact_posture_then_layer_toggle() {
        let t = depth_table(1);
        // Exact: depth 3 is in the ladder.
        let d3 = DefensePosture::depth(3);
        let pi = t.postures().iter().position(|p| *p == d3).unwrap();
        for (i, row) in t.steps().iter().enumerate() {
            assert_eq!(t.stats_for(i, &d3), row.by_posture[pi], "{}", row.name);
        }
        // Off-ladder: a single defended layer resolves by that step's
        // own toggle — defended steps read a defended column, others
        // the undefended extreme consistent with their layer.
        for (i, row) in t.steps().iter().enumerate() {
            let only = DefensePosture::only(row.layer);
            let got = t.stats_for(i, &only);
            let deepest = row.by_posture.last().unwrap();
            assert_eq!(got, *deepest, "{} defended lookup", row.name);
        }
    }

    #[test]
    fn never_calibrated_postures_resolve_by_layer_toggle() {
        // A two-posture {none, full} table queried with all 62 mixed
        // postures it never saw: every lookup must land on the column
        // that agrees with the step's own layer toggle — generated
        // campaigns walk arbitrary postures, so this fallback is their
        // hot path.
        let t = StepOutcomeTable::calibrate(
            &[DefensePosture::none(), DefensePosture::full()],
            4,
            1,
            &SimRng::seed(21).fork("fallback"),
        );
        for bits in 1..63u8 {
            let mut p = DefensePosture::none();
            for (i, layer) in ArchLayer::ALL.iter().enumerate() {
                p.set(*layer, bits & (1 << i) != 0);
            }
            assert!(t.covers(&p), "bits {bits:#b}");
            for (i, row) in t.steps().iter().enumerate() {
                let want = if p.enabled(row.layer) { 1 } else { 0 };
                assert_eq!(
                    t.stats_for(i, &p),
                    row.by_posture[want],
                    "{} under bits {bits:#b}",
                    row.name
                );
            }
        }
    }

    #[test]
    fn fallback_prefers_the_deepest_agreeing_posture() {
        // Ladder {none, depth(2), full}: an off-ladder posture that
        // defends a step's layer must read the *deepest* agreeing
        // column (rposition), not the first one.
        let ladder = [
            DefensePosture::none(),
            DefensePosture::depth(2),
            DefensePosture::full(),
        ];
        let t = StepOutcomeTable::calibrate(&ladder, 4, 1, &SimRng::seed(22).fork("deepest"));
        for (i, row) in t.steps().iter().enumerate() {
            // Defended toggle: full() is always the deepest agreement.
            let only = DefensePosture::only(row.layer);
            assert_eq!(t.stats_for(i, &only), row.by_posture[2], "{}", row.name);
            // Undefended toggle: depth(2) outranks none() whenever it
            // leaves this layer off.
            let mut all_but = DefensePosture::full();
            all_but.set(row.layer, false);
            let expect = if ladder[1].enabled(row.layer) { 0 } else { 1 };
            assert_eq!(
                t.stats_for(i, &all_but),
                row.by_posture[expect],
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn depth_ladder_covers_any_posture() {
        let t = depth_table(1);
        // The ladder spans none..full, so both toggle values exist for
        // every layer — arbitrary postures all resolve.
        for bits in 0..64u8 {
            let mut p = DefensePosture::none();
            for (i, layer) in ArchLayer::ALL.iter().enumerate() {
                p.set(*layer, bits & (1 << i) != 0);
            }
            assert!(t.covers(&p), "bits {bits:#b}");
        }
        // A single-posture calibration covers only layer-compatible
        // postures.
        let single = StepOutcomeTable::calibrate(
            &[DefensePosture::none()],
            1,
            1,
            &SimRng::seed(3).fork("cover"),
        );
        assert!(single.covers(&DefensePosture::none()));
        assert!(!single.covers(&DefensePosture::full()));
    }

    #[test]
    fn table_resolution_matches_the_cell_in_distribution() {
        let t = StepOutcomeTable::calibrate(
            &[DefensePosture::none()],
            60,
            2,
            &SimRng::seed(5).fork("engine-dist"),
        );
        let posture = DefensePosture::none();
        let ctx = PostureCtx::new(&posture);
        let mut rng = SimRng::seed(9).fork("engine-dist-draws");
        let n = 4_000;
        for (i, row) in t.steps().iter().enumerate() {
            let hits = (0..n)
                .filter(|_| t.resolve(i, &ctx, &mut rng).succeeded)
                .count();
            let rate = hits as f64 / n as f64;
            assert!(
                (rate - row.by_posture[0].success).abs() < 0.05,
                "{}: resolved {} vs cell {}",
                row.name,
                rate,
                row.by_posture[0].success
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one posture")]
    fn empty_posture_ladder_is_rejected() {
        let _ = StepOutcomeTable::calibrate(&[], 4, 1, &SimRng::seed(1));
    }
}
