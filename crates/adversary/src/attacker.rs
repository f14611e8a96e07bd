//! Attack execution: the adaptive planner-driven attacker and the
//! static replay attacker, plus the defender-side runtime knobs.
//!
//! Both attackers walk the same calibrated [`AttackGraph`] under the
//! same [`DefensePosture`] and step budget; the difference is
//! intelligence. The **replay** attacker fires the campaign's fixed
//! order (the repo's pre-existing behaviour: eight scenario attacks,
//! then the kill chain, then cascades) without reacting to anything.
//! The **adaptive** attacker calls [`best_path`](crate::best_path)
//! before every step and re-plans whenever a step fails, is detected,
//! or its tooling gets isolated by the response engine.
//!
//! Defender runtime knobs (beyond the per-layer posture):
//!
//! * **Active response** — every alert is fed to
//!   [`ResponseEngine::handle`]; an action at least as severe as
//!   [`ResponseAction::IsolateNode`] *burns* the triggering edge (the
//!   foothold/tool it used is gone for the rest of the run).
//! * **Alert correlation** — once two or more alerts have fired, the
//!   SOC is watching: every later step's success probability is halved
//!   ([`CORRELATED_PENALTY`]).

use autosec_core::campaign::DefensePosture;
use autosec_ids::response::{ResponseAction, ResponseEngine};
use autosec_ids::Alert;
use autosec_sim::{ArchLayer, SimDuration, SimRng, SimTime};

use crate::graph::{AttackGraph, CapabilitySet, EdgeSet};
use crate::planner::{best_path_weighted, PlannedPath};

/// Success multiplier applied after alert correlation kicks in.
pub const CORRELATED_PENALTY: f64 = 0.5;

/// Alerts needed before correlation counts as an incident.
pub const CORRELATION_THRESHOLD: usize = 2;

/// How one attack run is parameterized.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Maximum attack steps (edge attempts).
    pub budget: usize,
    /// Defender feeds alerts to the response engine (edge burning).
    pub active_response: bool,
    /// Defender correlates alerts across layers (success penalty).
    pub alert_correlation: bool,
    /// Exponent on path stealth in the planning objective
    /// (`success × stealth^stealth_weight`). `1.0` is the classic
    /// silent-compromise attacker and reproduces pre-knob numbers
    /// bit-identically; lower weights trade stealth for speed, and
    /// `0.0` ignores detection pressure entirely.
    pub stealth_weight: f64,
    /// Extra detect probability added to every attempted edge by the
    /// defender's monitoring spend. The planner does not see this —
    /// monitoring is the defender's private sensor budget.
    pub monitor_boost: f64,
}

impl AttackConfig {
    /// A budgeted attacker against a defender without runtime response.
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            active_response: false,
            alert_correlation: false,
            stealth_weight: 1.0,
            monitor_boost: 0.0,
        }
    }
}

/// Outcome of one Monte-Carlo attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackRun {
    /// Did the attacker reach [`AttackGraph::GOAL`]?
    pub reached_goal: bool,
    /// Edge attempts consumed.
    pub steps_attempted: usize,
    /// Alerts raised against the attacker.
    pub alerts: usize,
    /// Edges burned by the active response.
    pub burned_edges: usize,
}

/// What happened on one attempted attack step — the feedback surface
/// an external defender (the `autosec-autodefense` duel loop) observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Edge index attempted.
    pub edge: usize,
    /// Architecture layer of the attempted edge.
    pub layer: ArchLayer,
    /// Did the capability transfer?
    pub succeeded: bool,
    /// Did a detector fire? Undetected steps are invisible to any
    /// runtime defender.
    pub detected: bool,
    /// Did the attacker's own active-response model burn the edge?
    pub burned: bool,
}

/// Mid-run attacker state, steppable from the outside.
///
/// [`adaptive_trial`] and [`replay_trial`] are thin loops over this
/// type; a self-play driver can instead interleave its own defender
/// turns between [`AttackerState::attempt`] calls — hardening the
/// posture, banning edges ([`AttackerState::ban_edge`], the credential
/// rotation / isolation surface), or raising
/// [`AttackConfig::monitor_boost`] — without perturbing the RNG
/// stream: an attempt always draws exactly two `chance` samples.
pub struct AttackerState {
    owned: CapabilitySet,
    banned: EdgeSet,
    engine: ResponseEngine,
    alerts: usize,
    steps: usize,
    burned: usize,
}

impl AttackerState {
    /// A fresh run: external foothold only, nothing banned.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            owned: CapabilitySet::start(),
            banned: EdgeSet::empty(),
            engine: ResponseEngine::new(),
            alerts: 0,
            steps: 0,
            burned: 0,
        }
    }

    /// Capabilities currently held.
    pub fn owned(&self) -> CapabilitySet {
        self.owned
    }

    /// Edges banned so far (burned by response or rotated away).
    pub fn banned(&self) -> EdgeSet {
        self.banned
    }

    /// Alerts raised against this run so far.
    pub fn alerts(&self) -> usize {
        self.alerts
    }

    /// Edge attempts consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether [`AttackGraph::GOAL`] has been reached.
    pub fn reached_goal(&self) -> bool {
        self.owned.contains(AttackGraph::GOAL)
    }

    /// Bans edge `idx` for the rest of the run — the defender-facing
    /// burn surface (credential rotation retires the tool; isolation
    /// retires the foothold). Returns whether the ban was new.
    pub fn ban_edge(&mut self, idx: usize) -> bool {
        if self.banned.contains(idx) {
            return false;
        }
        self.banned.insert(idx);
        self.burned += 1;
        true
    }

    /// The attacker's next plan under current holdings, bans and
    /// remaining budget. `None` means it walks away.
    pub fn plan(
        &self,
        graph: &AttackGraph,
        posture: &DefensePosture,
        cfg: &AttackConfig,
    ) -> Option<PlannedPath> {
        best_path_weighted(
            graph,
            posture,
            cfg.budget.saturating_sub(self.steps),
            &self.owned,
            &self.banned,
            cfg.stealth_weight,
        )
    }

    /// Attempts edge `idx`, drawing success and detection in a fixed
    /// order so trial streams stay aligned across attacker variants.
    pub fn attempt(
        &mut self,
        graph: &AttackGraph,
        posture: &DefensePosture,
        cfg: &AttackConfig,
        idx: usize,
        rng: &mut SimRng,
    ) -> StepReport {
        let edge = &graph.edges()[idx];
        let p = edge.prob(posture);
        let mut success_p = p.success;
        if cfg.alert_correlation && self.alerts >= CORRELATION_THRESHOLD {
            success_p *= CORRELATED_PENALTY;
        }
        let succeeded = rng.chance(success_p);
        let detected = rng.chance((p.detect + cfg.monitor_boost).min(1.0));
        self.steps += 1;
        let mut burned = false;
        if detected {
            self.alerts += 1;
            if cfg.active_response {
                let alert = Alert {
                    detector: detector_for(edge.layer),
                    subject: idx as u32,
                    at: SimTime::ZERO + SimDuration::from_ms(self.steps as u64 * 10),
                    detail: edge.name.to_string(),
                };
                let response = self.engine.handle(&alert);
                if response.action.cost() >= ResponseAction::IsolateNode.cost()
                    && !self.banned.contains(idx)
                {
                    self.banned.insert(idx);
                    self.burned += 1;
                    burned = true;
                }
            }
        }
        if succeeded {
            self.owned.insert(edge.to);
        }
        StepReport {
            edge: idx,
            layer: edge.layer,
            succeeded,
            detected,
            burned,
        }
    }

    /// Closes the run into its summary outcome.
    pub fn finish(self) -> AttackRun {
        AttackRun {
            reached_goal: self.owned.contains(AttackGraph::GOAL),
            steps_attempted: self.steps,
            alerts: self.alerts,
            burned_edges: self.burned,
        }
    }
}

/// Which IDS detector covers attacks at a layer — drives the response
/// engine's playbook choice (and thereby which detections burn edges).
pub fn detector_for(layer: ArchLayer) -> &'static str {
    match layer {
        // UWB ranging integrity alarms look like timing/interval
        // anomalies: rekey-class response, no isolation.
        ArchLayer::Physical => "interval",
        // Analog fingerprinting points at a specific node: isolate it.
        ArchLayer::Network => "fingerprint",
        // Zero-trust placement rejections are specification violations.
        ArchLayer::SoftwarePlatform => "specification",
        // Backend rate/exfiltration anomalies are frequency alarms.
        ArchLayer::Data => "frequency",
        // SoS and V2X misbehaviour reports only notify the SOC today.
        ArchLayer::SystemOfSystems => "sos-monitor",
        ArchLayer::Collaboration => "misbehavior",
    }
}

/// One adaptive attack: plan, attempt the first planned step, re-plan.
///
/// Draws exactly two `chance` samples per attempted step, so the run is
/// a pure function of `(graph, posture, cfg, rng stream)`.
pub fn adaptive_trial(
    graph: &AttackGraph,
    posture: &DefensePosture,
    cfg: &AttackConfig,
    rng: &mut SimRng,
) -> AttackRun {
    let mut st = AttackerState::new();
    while st.steps() < cfg.budget && !st.reached_goal() {
        let Some(plan) = st.plan(graph, posture, cfg) else {
            break;
        };
        let Some(&idx) = plan.edges.first() else {
            break;
        };
        st.attempt(graph, posture, cfg, idx, rng);
    }
    st.finish()
}

/// One static replay attack: the fixed campaign order, no planning.
///
/// Walks [`AttackGraph::edges`] in insertion order (campaign, kill
/// chain, cascades), attempting every edge whose source capability is
/// held and whose target is still missing; repeats the sweep while it
/// keeps making progress and budget remains.
pub fn replay_trial(
    graph: &AttackGraph,
    posture: &DefensePosture,
    cfg: &AttackConfig,
    rng: &mut SimRng,
) -> AttackRun {
    let mut st = AttackerState::new();
    loop {
        let owned_before = st.owned();
        for idx in 0..graph.len() {
            if st.steps() >= cfg.budget || st.reached_goal() {
                break;
            }
            let edge = &graph.edges()[idx];
            if !st.owned().contains(edge.from)
                || st.owned().contains(edge.to)
                || st.banned().contains(idx)
            {
                continue;
            }
            st.attempt(graph, posture, cfg, idx, rng);
        }
        if st.steps() >= cfg.budget || st.reached_goal() || st.owned() == owned_before {
            break;
        }
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AttackEdge, Capability, EdgeSource, ProbPoint};

    fn edge(
        name: &'static str,
        from: Capability,
        to: Capability,
        layer: ArchLayer,
        success: f64,
        detect: f64,
    ) -> AttackEdge {
        AttackEdge {
            name,
            from,
            to,
            layer,
            stride: autosec_sim::Stride::Tampering,
            source: EdgeSource::Scenario(name),
            undefended: ProbPoint { success, detect },
            defended: ProbPoint { success, detect },
        }
    }

    /// A sure silent two-hop route plus a sure loud direct route that
    /// is always detected by the Network fingerprint detector.
    fn test_graph() -> AttackGraph {
        let mut g = AttackGraph::new();
        g.add_edge(edge(
            "loud-direct",
            Capability::External,
            Capability::SafetyImpact,
            ArchLayer::Network,
            0.0,
            1.0,
        ));
        g.add_edge(edge(
            "hop-1",
            Capability::External,
            Capability::PlatformFoothold,
            ArchLayer::SoftwarePlatform,
            1.0,
            0.0,
        ));
        g.add_edge(edge(
            "hop-2",
            Capability::PlatformFoothold,
            Capability::SafetyImpact,
            ArchLayer::SystemOfSystems,
            1.0,
            0.0,
        ));
        g
    }

    #[test]
    fn adaptive_reaches_a_sure_goal_silently() {
        let g = test_graph();
        let run = adaptive_trial(
            &g,
            &DefensePosture::none(),
            &AttackConfig::new(5),
            &mut SimRng::seed(1).fork("t"),
        );
        assert!(run.reached_goal);
        assert_eq!(run.steps_attempted, 2);
        assert_eq!(run.alerts, 0);
    }

    #[test]
    fn replay_grinds_through_the_loud_edge_first() {
        let g = test_graph();
        let run = replay_trial(
            &g,
            &DefensePosture::none(),
            &AttackConfig::new(5),
            &mut SimRng::seed(1).fork("t"),
        );
        assert!(run.reached_goal, "eventually gets there");
        // The replay order hits the always-detected edge first.
        assert!(run.alerts >= 1);
        assert!(run.steps_attempted > 2);
    }

    #[test]
    fn hopeless_budget_is_not_even_attempted() {
        // The silent route needs two steps; with budget 1 the planner
        // sees no viable path and the attacker walks away silently.
        let g = test_graph();
        let run = adaptive_trial(
            &g,
            &DefensePosture::none(),
            &AttackConfig::new(1),
            &mut SimRng::seed(2).fork("t"),
        );
        assert!(!run.reached_goal);
        assert_eq!(run.steps_attempted, 0);
        assert_eq!(run.alerts, 0);
    }

    #[test]
    fn active_response_burns_fingerprinted_edges() {
        // Only the loud Network edge exists: with active response its
        // first detection isolates it and the attacker is out of moves.
        let mut g = AttackGraph::new();
        g.add_edge(edge(
            "loud-direct",
            Capability::External,
            Capability::SafetyImpact,
            ArchLayer::Network,
            0.5,
            1.0,
        ));
        let cfg = AttackConfig {
            active_response: true,
            ..AttackConfig::new(10)
        };
        // Try a few streams: whatever the success draws do, the run
        // must stop after one attempt because the edge burns.
        for seed in 0..5 {
            let run = adaptive_trial(
                &g,
                &DefensePosture::none(),
                &cfg,
                &mut SimRng::seed(seed).fork("t"),
            );
            if !run.reached_goal {
                assert_eq!(run.steps_attempted, 1, "seed {seed}");
                assert_eq!(run.burned_edges, 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn correlation_halves_late_step_success() {
        // Two loud no-op steps raise alerts; the third step's success
        // would be sure without correlation.
        let mut g = AttackGraph::new();
        g.add_edge(edge(
            "noise-1",
            Capability::External,
            Capability::VehicleAccess,
            ArchLayer::Physical,
            1.0,
            1.0,
        ));
        g.add_edge(edge(
            "noise-2",
            Capability::VehicleAccess,
            Capability::BusAccess,
            ArchLayer::Physical,
            1.0,
            1.0,
        ));
        g.add_edge(edge(
            "payload",
            Capability::BusAccess,
            Capability::SafetyImpact,
            ArchLayer::Network,
            1.0,
            0.0,
        ));
        let cfg = AttackConfig {
            alert_correlation: true,
            ..AttackConfig::new(6)
        };
        let mut successes = 0;
        let trials = 400;
        for i in 0..trials {
            let run = adaptive_trial(
                &g,
                &DefensePosture::none(),
                &cfg,
                &mut SimRng::seed(7).fork_idx(i),
            );
            successes += usize::from(run.reached_goal);
        }
        let rate = successes as f64 / trials as f64;
        // The payload step runs at 0.5 after two alerts; with up to 4
        // budget left the attacker can retry, so the rate sits between
        // the one-shot 0.5 and certainty, but far from 1.0-without-
        // correlation would be impossible to distinguish — instead
        // check it is clearly depressed below 1.
        assert!(rate < 0.99, "correlation must bite: rate {rate}");
        assert!(rate > 0.5, "retries still help: rate {rate}");
    }

    #[test]
    fn trials_are_deterministic_per_stream() {
        let g = test_graph();
        let cfg = AttackConfig {
            active_response: true,
            alert_correlation: true,
            ..AttackConfig::new(8)
        };
        let posture = DefensePosture::none();
        for i in 0..20 {
            let a = adaptive_trial(&g, &posture, &cfg, &mut SimRng::seed(3).fork_idx(i));
            let b = adaptive_trial(&g, &posture, &cfg, &mut SimRng::seed(3).fork_idx(i));
            assert_eq!(a, b);
            let ra = replay_trial(&g, &posture, &cfg, &mut SimRng::seed(3).fork_idx(i));
            let rb = replay_trial(&g, &posture, &cfg, &mut SimRng::seed(3).fork_idx(i));
            assert_eq!(ra, rb);
        }
    }
}
