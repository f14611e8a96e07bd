//! # autosec-scengen
//!
//! Generative scenario composition over the calibrated attack graph.
//!
//! The paper's campaign is a fixed catalog: nine hand-picked steps in
//! one order. This crate turns the catalog into a *measured surface*:
//! a seeded, deterministic generator composes multi-step attack
//! campaigns by walking the 15-capability attack graph
//! ([`AttackGraph`]), constrained to be **capability-consistent** —
//! every step's precondition capability is reachable from the grants of
//! the steps before it, starting from [`CapabilitySet::start`]. Each
//! edge carries an [`ArchLayer`] and a [`Stride`] class, so the
//! generated set rolls up into a STRIDE×layer [`CoverageMatrix`]
//! reporting which threat-class/layer cells have at least one
//! executable composed scenario (and at which calibrated success and
//! detection rates), with uncovered-but-modeled cells listed as `GAP`.
//!
//! Replaying a generated campaign under a posture
//! ([`GeneratedCampaign::walk`], averaged over trials by
//! [`evaluate_campaign`]) uses common random numbers: every step
//! always consumes exactly two Bernoulli draws (success, then alert),
//! whether or not its precondition is held, so a trial's breach
//! indicator is *exactly* weakly decreasing along the nested
//! bottom-up posture ladder ([`DefensePosture::depth`]) — the clamped
//! calibration guarantees each edge's effective success probability
//! only falls as layers turn on, and identical draws then make the
//! owned-capability set shrink monotonically. The E24 experiment and
//! the property tests below pin this without any tolerance.
//!
//! Generation itself is single-stream (attempt `a` walks on
//! `seed → "scengen/generate" → fork_idx(a)`) and therefore trivially
//! independent of `--jobs`; only the Monte-Carlo evaluation
//! parallelizes, through [`par_trials`], which is jobs-invariant by
//! construction.

use std::collections::HashSet;

use autosec_adversary::graph::{AttackGraph, Capability, CapabilitySet};
use autosec_core::campaign::DefensePosture;
use autosec_runner::par_trials;
use autosec_sim::{ArchLayer, SimRng, Stride};
use rand::RngCore as _;

/// How a generation run is sized and filtered.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Target number of distinct campaigns.
    pub count: usize,
    /// Maximum steps per campaign.
    pub max_len: usize,
    /// Generator seed (fully determines the output set).
    pub seed: u64,
    /// Keep only campaigns touching this layer, when set.
    pub layer: Option<ArchLayer>,
    /// Keep only campaigns touching this STRIDE class, when set.
    pub stride: Option<Stride>,
}

impl GenConfig {
    /// A config with no acceptance filters.
    pub fn new(count: usize, max_len: usize, seed: u64) -> Self {
        Self {
            count,
            max_len: max_len.max(1),
            seed,
            layer: None,
            stride: None,
        }
    }
}

/// One generated campaign: an ordered, capability-consistent walk over
/// the attack graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedCampaign {
    /// Stable identifier within the generated set (`gen-<n>`).
    pub id: String,
    /// Edge indices into the source graph's `edges()`, in execution
    /// order. Every step's `from` is granted by the steps before it
    /// (or is the start capability) and its `to` is fresh.
    pub edges: Vec<usize>,
}

impl GeneratedCampaign {
    /// The edge names, in execution order.
    pub fn names<'g>(&self, graph: &'g AttackGraph) -> Vec<&'g str> {
        self.edges.iter().map(|&i| graph.edges()[i].name).collect()
    }

    /// The capability the campaign ultimately targets (the final
    /// step's grant).
    pub fn goal(&self, graph: &AttackGraph) -> Capability {
        let last = *self.edges.last().expect("campaigns are non-empty");
        graph.edges()[last].to
    }

    /// Whether any step attacks `layer`.
    pub fn touches_layer(&self, graph: &AttackGraph, layer: ArchLayer) -> bool {
        self.edges.iter().any(|&i| graph.edges()[i].layer == layer)
    }

    /// Whether any step realises `stride`.
    pub fn touches_stride(&self, graph: &AttackGraph, stride: Stride) -> bool {
        self.edges
            .iter()
            .any(|&i| graph.edges()[i].stride == stride)
    }

    /// Replays the campaign once under `posture`, drawing from `rng`.
    ///
    /// Every step consumes exactly two Bernoulli draws (success, then
    /// alert) whether or not its precondition is held — the CRN
    /// discipline that makes the breach indicator exactly monotone
    /// across nested postures (see the crate docs) and the draw count
    /// posture-independent. A step only *grants* its capability when
    /// its precondition is owned and the success draw hits, and only
    /// *alerts* — calling `on_alert` with the step's layer — when it
    /// was actually attempted. The campaign breaches when it ends
    /// holding [`goal`](Self::goal).
    pub fn walk(
        &self,
        graph: &AttackGraph,
        posture: &DefensePosture,
        rng: &mut SimRng,
        mut on_alert: impl FnMut(ArchLayer),
    ) -> WalkOutcome {
        let mut owned = CapabilitySet::start();
        let mut alerted = false;
        for &ei in &self.edges {
            let edge = &graph.edges()[ei];
            let p = edge.prob(posture);
            let attempted = owned.contains(edge.from);
            let succeeded = rng.chance(p.success);
            let detected = rng.chance(p.detect);
            if attempted && succeeded {
                owned.insert(edge.to);
            }
            if attempted && detected {
                alerted = true;
                on_alert(edge.layer);
            }
        }
        WalkOutcome {
            breached: owned.contains(self.goal(graph)),
            alerted,
        }
    }
}

/// The result of one [`GeneratedCampaign::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// The walk ended holding the campaign's goal capability.
    pub breached: bool,
    /// At least one attempted step raised an alert.
    pub alerted: bool,
}

/// How many walk attempts the generator spends per requested campaign
/// before giving up (tight filters can starve acceptance).
const ATTEMPTS_PER_CAMPAIGN: usize = 64;

/// Generates up to `cfg.count` distinct capability-consistent
/// campaigns from `graph`.
///
/// Attempt `a` performs one random walk on the substream
/// `SimRng::seed(cfg.seed).fork("scengen/generate").fork_idx(a)`: from
/// the owned-capability frontier (initially [`CapabilitySet::start`]),
/// repeatedly pick uniformly among *eligible* edges — precondition
/// owned, grant not yet owned — claim the grant, and stop at
/// [`AttackGraph::GOAL`], a dead end, or `cfg.max_len`. Walks failing
/// an acceptance filter and exact duplicates are discarded. The output
/// set is a pure function of `(graph topology, cfg)` — independent of
/// job counts and wall clock.
pub fn generate(graph: &AttackGraph, cfg: &GenConfig) -> Vec<GeneratedCampaign> {
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    generate_distinct(graph, cfg, |edges| seen.insert(edges.to_vec()))
}

/// [`generate`], keeping a walk only if `first_sight` says it has not
/// been kept before (and records it).
fn generate_distinct(
    graph: &AttackGraph,
    cfg: &GenConfig,
    mut first_sight: impl FnMut(&[usize]) -> bool,
) -> Vec<GeneratedCampaign> {
    let base = SimRng::seed(cfg.seed).fork("scengen/generate");
    let mut out: Vec<GeneratedCampaign> = Vec::new();
    let cap = cfg.count.saturating_mul(ATTEMPTS_PER_CAMPAIGN).max(1);
    for attempt in 0..cap {
        if out.len() >= cfg.count {
            break;
        }
        let mut rng = base.fork_idx(attempt as u64);
        let mut owned = CapabilitySet::start();
        let mut walk: Vec<usize> = Vec::new();
        while walk.len() < cfg.max_len && !owned.contains(AttackGraph::GOAL) {
            let eligible: Vec<usize> = graph
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| owned.contains(e.from) && !owned.contains(e.to))
                .map(|(i, _)| i)
                .collect();
            if eligible.is_empty() {
                break;
            }
            let pick = eligible[(rng.next_u64() % eligible.len() as u64) as usize];
            owned.insert(graph.edges()[pick].to);
            walk.push(pick);
        }
        if walk.is_empty() {
            continue;
        }
        let candidate = GeneratedCampaign {
            id: format!("gen-{:04}", out.len()),
            edges: walk,
        };
        if let Some(layer) = cfg.layer {
            if !candidate.touches_layer(graph, layer) {
                continue;
            }
        }
        if let Some(stride) = cfg.stride {
            if !candidate.touches_stride(graph, stride) {
                continue;
            }
        }
        if first_sight(&candidate.edges) {
            out.push(candidate);
        }
    }
    out
}

/// Monte-Carlo estimate of one campaign's outcome under one posture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Fraction of trials in which the final step's capability was
    /// reached (the campaign "breached").
    pub breach: f64,
    /// Fraction of trials in which at least one *attempted* step
    /// raised an alert.
    pub detect: f64,
}

/// Replays `campaign` `trials` times under `posture`, trial `i` walking
/// ([`GeneratedCampaign::walk`]) on `base.fork_idx(i)`.
///
/// Deterministic in `(graph, campaign, posture, base, trials)`; `jobs`
/// only changes wall-clock time.
pub fn evaluate_campaign(
    graph: &AttackGraph,
    campaign: &GeneratedCampaign,
    posture: &DefensePosture,
    base: &SimRng,
    trials: usize,
    jobs: usize,
) -> CampaignStats {
    let outcomes = par_trials(jobs, trials, base, |_, mut rng| {
        campaign.walk(graph, posture, &mut rng, |_| {})
    });
    let n = trials.max(1) as f64;
    CampaignStats {
        breach: outcomes.iter().filter(|o| o.breached).count() as f64 / n,
        detect: outcomes.iter().filter(|o| o.alerted).count() as f64 / n,
    }
}

/// The verdict of one STRIDE×layer cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// At least one generated campaign exercises the cell.
    Covered,
    /// The graph models the cell but no generated campaign hit it.
    Gap,
    /// No graph edge realises this threat class at this layer — the
    /// cell is outside the modeled surface (itself a finding: e.g. the
    /// workbench models no repudiation attack anywhere).
    Unmodeled,
}

impl CellVerdict {
    /// The grep-able artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            CellVerdict::Covered => "covered",
            CellVerdict::Gap => "GAP",
            CellVerdict::Unmodeled => "n/a",
        }
    }
}

/// One cell of the STRIDE×layer coverage matrix.
#[derive(Debug, Clone)]
pub struct CoverageCell {
    /// The threat class (row).
    pub stride: Stride,
    /// The architectural layer (column).
    pub layer: ArchLayer,
    /// Graph edges realising this class at this layer.
    pub pool_edges: usize,
    /// Generated campaigns containing at least one such edge.
    pub campaign_hits: usize,
    /// Mean calibrated undefended success rate over the cell's edges
    /// (0.0 when unmodeled).
    pub undefended_success: f64,
    /// Mean calibrated defended success rate over the cell's edges.
    pub defended_success: f64,
    /// Mean calibrated defended detection rate over the cell's edges.
    pub defended_detect: f64,
    /// The cell's verdict.
    pub verdict: CellVerdict,
}

/// The full STRIDE×layer coverage matrix (6×6 = 36 cells, STRIDE-major
/// in [`Stride::ALL`] × [`ArchLayer::ALL`] order).
#[derive(Debug, Clone)]
pub struct CoverageMatrix {
    /// All 36 cells.
    pub cells: Vec<CoverageCell>,
}

impl CoverageMatrix {
    /// Builds the matrix for `campaigns` generated from `graph`. The
    /// per-cell calibrated rates are means over the cell's edges of
    /// the graph's measured probability points — the same shared
    /// calibration machinery ([`measure_step`]-based) behind the fleet
    /// outcome tables, never a hand-typed constant.
    ///
    /// [`measure_step`]: autosec_core::engine::measure_step
    pub fn build(graph: &AttackGraph, campaigns: &[GeneratedCampaign]) -> Self {
        let cells = Stride::ALL
            .iter()
            .flat_map(|&stride| ArchLayer::ALL.iter().map(move |&layer| (stride, layer)))
            .map(|(stride, layer)| {
                let pool: Vec<_> = graph
                    .edges()
                    .iter()
                    .filter(|e| e.stride == stride && e.layer == layer)
                    .collect();
                let hits = campaigns
                    .iter()
                    .filter(|c| {
                        c.edges.iter().any(|&i| {
                            let e = &graph.edges()[i];
                            e.stride == stride && e.layer == layer
                        })
                    })
                    .count();
                let n = pool.len() as f64;
                let mean = |f: fn(&&&autosec_adversary::graph::AttackEdge) -> f64| {
                    if pool.is_empty() {
                        0.0
                    } else {
                        pool.iter().map(|e| f(&e)).sum::<f64>() / n
                    }
                };
                let verdict = if hits > 0 {
                    CellVerdict::Covered
                } else if pool.is_empty() {
                    CellVerdict::Unmodeled
                } else {
                    CellVerdict::Gap
                };
                CoverageCell {
                    stride,
                    layer,
                    pool_edges: pool.len(),
                    campaign_hits: hits,
                    undefended_success: mean(|e| e.undefended.success),
                    defended_success: mean(|e| e.defended.success),
                    defended_detect: mean(|e| e.defended.detect),
                    verdict,
                }
            })
            .collect();
        Self { cells }
    }

    /// Cells the graph models (at least one edge).
    pub fn modeled(&self) -> usize {
        self.cells.iter().filter(|c| c.pool_edges > 0).count()
    }

    /// Modeled cells exercised by at least one campaign.
    pub fn covered(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::Covered)
            .count()
    }

    /// Modeled-but-unexercised cells.
    pub fn gaps(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::Gap)
            .count()
    }

    /// Covered fraction of the modeled surface (1.0 for an empty
    /// model, vacuously).
    pub fn coverage(&self) -> f64 {
        let m = self.modeled();
        if m == 0 {
            1.0
        } else {
            self.covered() as f64 / m as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_adversary::calibrate::{calibrated_graph, CalibrationConfig};
    use std::sync::OnceLock;

    fn shared_graph() -> &'static AttackGraph {
        static GRAPH: OnceLock<AttackGraph> = OnceLock::new();
        GRAPH.get_or_init(|| calibrated_graph(&CalibrationConfig::new(12, 2), &SimRng::seed(5)))
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let g = shared_graph();
        let cfg = GenConfig::new(12, 6, 42);
        let a = generate(g, &cfg);
        let b = generate(g, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let c = generate(g, &GenConfig::new(12, 6, 43));
        assert_ne!(a, c, "different seeds should compose different sets");
    }

    #[test]
    fn every_generated_campaign_is_capability_consistent() {
        let g = shared_graph();
        for seed in [11, 42, 1234] {
            for campaign in generate(g, &GenConfig::new(16, 6, seed)) {
                let mut owned = CapabilitySet::start();
                for &ei in &campaign.edges {
                    let e = &g.edges()[ei];
                    assert!(
                        owned.contains(e.from),
                        "{}: step {} requires unheld {}",
                        campaign.id,
                        e.name,
                        e.from
                    );
                    assert!(
                        !owned.contains(e.to),
                        "{}: step {} re-grants {}",
                        campaign.id,
                        e.name,
                        e.to
                    );
                    owned.insert(e.to);
                }
            }
        }
    }

    #[test]
    fn campaigns_are_distinct_and_bounded() {
        let g = shared_graph();
        let cfg = GenConfig::new(24, 4, 7);
        let set = generate(g, &cfg);
        for c in &set {
            assert!(!c.edges.is_empty() && c.edges.len() <= 4, "{}", c.id);
        }
        let mut walks: Vec<_> = set.iter().map(|c| c.edges.clone()).collect();
        walks.sort();
        walks.dedup();
        assert_eq!(walks.len(), set.len(), "duplicate walks survived");
    }

    #[test]
    fn set_dedup_keeps_the_vec_scan_pool() {
        // The pool and its order match a dedup that scans every kept
        // walk, with and without an acceptance filter.
        let g = shared_graph();
        for seed in [1, 7, 42] {
            for count in [1, 16, 256] {
                for layer in [None, Some(ArchLayer::Network)] {
                    let cfg = GenConfig {
                        layer,
                        ..GenConfig::new(count, 6, seed)
                    };
                    let mut kept: Vec<Vec<usize>> = Vec::new();
                    let want = generate_distinct(g, &cfg, |edges| {
                        let new = !kept.iter().any(|k| k == edges);
                        if new {
                            kept.push(edges.to_vec());
                        }
                        new
                    });
                    assert_eq!(generate(g, &cfg), want, "seed {seed}, count {count}");
                }
            }
        }
    }

    #[test]
    fn acceptance_filters_hold() {
        let g = shared_graph();
        let mut cfg = GenConfig::new(8, 6, 42);
        cfg.layer = Some(ArchLayer::Network);
        let by_layer = generate(g, &cfg);
        assert!(!by_layer.is_empty());
        for c in &by_layer {
            assert!(c.touches_layer(g, ArchLayer::Network), "{}", c.id);
        }
        let mut cfg = GenConfig::new(8, 6, 42);
        cfg.stride = Some(Stride::Spoofing);
        let by_stride = generate(g, &cfg);
        assert!(!by_stride.is_empty());
        for c in &by_stride {
            assert!(c.touches_stride(g, Stride::Spoofing), "{}", c.id);
        }
    }

    #[test]
    fn evaluation_is_jobs_invariant() {
        let g = shared_graph();
        let set = generate(g, &GenConfig::new(4, 6, 42));
        let base = SimRng::seed(9).fork("eval");
        let posture = DefensePosture::depth(3);
        for c in &set {
            let a = evaluate_campaign(g, c, &posture, &base, 50, 1);
            let b = evaluate_campaign(g, c, &posture, &base, 50, 4);
            assert_eq!(a, b, "{}", c.id);
        }
    }

    #[test]
    fn breach_is_monotone_in_posture_depth() {
        // The CRN property over >= 3 seeds: per campaign, the breach
        // rate never rises as layers turn on bottom-up. Exact
        // comparison — no tolerance — because the per-trial indicator
        // itself is monotone under common random numbers.
        let g = shared_graph();
        for seed in [11, 42, 1234] {
            let set = generate(g, &GenConfig::new(8, 6, seed));
            assert!(!set.is_empty());
            let base = SimRng::seed(seed).fork("mono");
            for c in &set {
                let mut prev = f64::INFINITY;
                for depth in 0..=ArchLayer::ALL.len() {
                    let posture = DefensePosture::depth(depth);
                    let s = evaluate_campaign(g, c, &posture, &base, 60, 2);
                    assert!(
                        s.breach <= prev,
                        "{} seed {} depth {}: breach {} > previous {}",
                        c.id,
                        seed,
                        depth,
                        s.breach,
                        prev
                    );
                    prev = s.breach;
                }
            }
        }
    }

    #[test]
    fn walk_draws_are_posture_independent() {
        // The draw discipline both drivers rely on (E24/E25 replay and
        // the fleet's generated-pool vehicles): a walk leaves its rng in
        // the same state under every posture, and reports an alert
        // exactly when `on_alert` fired.
        let g = shared_graph();
        let set = generate(g, &GenConfig::new(16, 6, 42));
        assert!(!set.is_empty());
        for (ci, c) in set.iter().enumerate() {
            for trial in 0..20 {
                let rng = SimRng::seed(3).fork_idx(ci as u64).fork_idx(trial);
                let mut after = Vec::new();
                for depth in 0..=ArchLayer::ALL.len() {
                    let mut r = rng.clone();
                    let mut fired = 0usize;
                    let out = c.walk(g, &DefensePosture::depth(depth), &mut r, |layer| {
                        assert!(c.touches_layer(g, layer), "{}: alien layer {layer:?}", c.id);
                        fired += 1;
                    });
                    assert_eq!(out.alerted, fired > 0, "{} depth {depth}", c.id);
                    after.push(r.next_u64());
                }
                assert!(
                    after.windows(2).all(|w| w[0] == w[1]),
                    "{} trial {trial}: draw count depends on the posture",
                    c.id
                );
            }
        }
    }

    #[test]
    fn coverage_matrix_reports_the_modeled_surface() {
        let g = shared_graph();
        let set = generate(g, &GenConfig::new(64, 6, 42));
        let m = CoverageMatrix::build(g, &set);
        assert_eq!(m.cells.len(), 36);
        assert!(m.modeled() > 0);
        assert!(
            m.coverage() >= 0.8,
            "covered {}/{} modeled cells",
            m.covered(),
            m.modeled()
        );
        // The workbench models no repudiation attack: that whole row
        // must be explicitly n/a, not silently absent.
        for cell in m.cells.iter().filter(|c| c.stride == Stride::Repudiation) {
            assert_eq!(cell.verdict, CellVerdict::Unmodeled);
        }
        for cell in &m.cells {
            match cell.verdict {
                CellVerdict::Covered => assert!(cell.campaign_hits > 0 && cell.pool_edges > 0),
                CellVerdict::Gap => assert!(cell.campaign_hits == 0 && cell.pool_edges > 0),
                CellVerdict::Unmodeled => {
                    assert_eq!(cell.pool_edges, 0);
                    assert_eq!(cell.undefended_success, 0.0);
                }
            }
        }
    }
}
