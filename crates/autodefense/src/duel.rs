//! One closed-loop duel: the adaptive attacker vs the runtime
//! defender, turn by turn.
//!
//! The attacker side is the adversary crate's [`AttackerState`] stepped
//! externally: it re-plans before every step exactly like
//! [`adaptive_trial`](autosec_adversary::adaptive_trial). After every
//! attempted step the defender takes a turn — it sees only **detected**
//! steps (the alert stream), plus the silence itself — and walks four
//! rules in one fixed order, each firing at most once, under its
//! [`DefenseBudget`] and [`RATE_LIMIT`] actions per turn:
//!
//! * execute a playbook isolation recommendation (ban the edge),
//! * rotate credentials behind a repeat-alerting edge (ban it),
//! * harden the loudest layer (flip a posture bit the attacker's next
//!   plan must route around),
//! * buy monitoring (raise every edge's detect probability — the
//!   counter-stealth move, and the only rule that can fire while the
//!   alert stream is silent).
//!
//! Every firing condition is a pure function of the defender's
//! observation state (alert counts, playbook recommendations,
//! monitoring level), so the defender consumes **no RNG draws**; a
//! duel's randomness is the attacker's fixed two draws per attempted
//! step. A defender whose budget is zero (or already fully pre-spent
//! on deployment) therefore replays `adaptive_trial` bit-identically on
//! the same stream — the property the E23 equal-cost comparison and the
//! zero-budget fleet test pin down.

use autosec_adversary::{
    detector_for, AttackConfig, AttackGraph, AttackerState, DefenseKnob, StepReport,
};
use autosec_core::campaign::DefensePosture;
use autosec_ids::response::{ResponseAction, ResponseEngine};
use autosec_ids::Alert;
use autosec_sim::{ArchLayer, SimDuration, SimRng, SimTime};

use crate::action::{
    DefenseBudget, HARDEN_COST, ISOLATE_COST, MONITOR_COST, MONITOR_STEP, ROTATE_COST,
};

/// Alerts on one edge before the rotate-credentials rule triggers.
pub const ROTATE_THRESHOLD: u32 = 2;

/// Runtime actions allowed per defender turn.
pub const RATE_LIMIT: usize = 2;

/// Monitoring purchases allowed per duel. At [`MONITOR_STEP`] (0.15)
/// each, this caps the total detect-probability boost at 0.45; the cap
/// is a purchase count so the check never depends on float arithmetic.
pub const MONITOR_MAX_PURCHASES: usize = 3;

/// Attack-graph edge capacity (mirrors `EdgeSet`'s 32-edge bound).
const MAX_EDGES: usize = 32;

/// One self-play matchup.
#[derive(Debug, Clone)]
pub struct DuelConfig {
    /// The attacker profile (budget, stealth weight, runtime knobs the
    /// defender may already have pre-deployed).
    pub attack: AttackConfig,
    /// Total defense dollars (shared by deployment and runtime moves).
    pub budget: f64,
    /// Knobs to harden at deployment time, in priority order, one
    /// [`HARDEN_COST`] each while budget lasts.
    pub pre_spend: Vec<DefenseKnob>,
}

impl DuelConfig {
    /// A pure-reactive defender against `attack`: no pre-deployment,
    /// the whole `budget` held for runtime moves.
    pub fn reactive(attack: AttackConfig, budget: f64) -> Self {
        Self {
            attack,
            budget,
            pre_spend: Vec::new(),
        }
    }
}

/// Outcome of one duel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuelRun {
    /// Did the attacker reach the goal?
    pub breached: bool,
    /// Capabilities gained beyond the external foothold.
    pub depth: usize,
    /// Attack steps attempted.
    pub steps: usize,
    /// Steps consumed at the moment of breach (`None` if held).
    pub time_to_breach: Option<usize>,
    /// Alerts raised during the run.
    pub alerts: usize,
    /// Defense dollars actually spent.
    pub spend: f64,
    /// Defense actions taken (deployment + runtime).
    pub actions: usize,
}

/// The defender's observation + actuation state during a duel.
struct DefenderState {
    posture: DefensePosture,
    attack: AttackConfig,
    budget: DefenseBudget,
    soc: ResponseEngine,
    edge_alerts: [u32; MAX_EDGES],
    layer_alerts: [u32; 6],
    isolate_queue: [bool; MAX_EDGES],
    monitor_purchases: usize,
    actions: usize,
}

impl DefenderState {
    fn new(cfg: &DuelConfig) -> Self {
        let mut d = Self {
            posture: DefensePosture::none(),
            attack: cfg.attack,
            budget: DefenseBudget::new(cfg.budget, RATE_LIMIT),
            soc: ResponseEngine::new(),
            edge_alerts: [0; MAX_EDGES],
            layer_alerts: [0; 6],
            isolate_queue: [false; MAX_EDGES],
            monitor_purchases: 0,
            actions: 0,
        };
        // Deployment phase: harden the configured priority knobs while
        // budget lasts, before the incident clock starts (exempt from
        // the runtime rate limit).
        for knob in &cfg.pre_spend {
            if !d.budget.try_prespend(HARDEN_COST) {
                break;
            }
            match knob {
                DefenseKnob::Layer(l) => d.posture.set(*l, true),
                DefenseKnob::ActiveResponse => d.attack.active_response = true,
                DefenseKnob::AlertCorrelation => d.attack.alert_correlation = true,
            }
            d.fired();
        }
        d
    }

    fn fired(&mut self) {
        self.actions += 1;
    }

    /// Ingest one detected step: update alert tallies and feed the SOC
    /// response engine, queueing playbook isolation recommendations.
    fn observe(&mut self, graph: &AttackGraph, report: &StepReport) {
        self.edge_alerts[report.edge] += 1;
        self.layer_alerts[report.layer as usize] += 1;
        let edge = &graph.edges()[report.edge];
        let alert = Alert {
            detector: detector_for(report.layer),
            subject: report.edge as u32,
            at: SimTime::ZERO + SimDuration::from_ms(self.edge_alerts[report.edge] as u64 * 10),
            detail: edge.name.to_string(),
        };
        let response = self.soc.handle(&alert);
        if response.action.cost() >= ResponseAction::IsolateNode.cost() {
            self.isolate_queue[report.edge] = true;
        }
    }

    /// One defender turn: isolate, rotate, harden, monitor, each
    /// firing at most once, under the budget's rate limit — so when the
    /// limit binds, the earlier rule wins.
    fn turn(&mut self, graph: &AttackGraph, attacker: &mut AttackerState) {
        self.budget.begin_turn();
        self.try_isolate(attacker);
        self.try_rotate(graph, attacker);
        self.try_harden();
        self.try_monitor();
    }

    /// Execute the lowest-index pending playbook isolation.
    fn try_isolate(&mut self, attacker: &mut AttackerState) {
        let Some(edge) =
            (0..MAX_EDGES).find(|&e| self.isolate_queue[e] && !attacker.banned().contains(e))
        else {
            return;
        };
        if self.budget.try_spend(ISOLATE_COST) {
            attacker.ban_edge(edge);
            self.isolate_queue[edge] = false;
            self.fired();
        }
    }

    /// Rotate credentials behind the loudest repeat-alerting edge.
    fn try_rotate(&mut self, graph: &AttackGraph, attacker: &mut AttackerState) {
        let mut best: Option<(usize, u32)> = None;
        for e in 0..graph.len() {
            let count = self.edge_alerts[e];
            if count >= ROTATE_THRESHOLD
                && !attacker.banned().contains(e)
                && best.is_none_or(|(_, c)| count > c)
            {
                best = Some((e, count));
            }
        }
        let Some((edge, _)) = best else { return };
        if self.budget.try_spend(ROTATE_COST) {
            attacker.ban_edge(edge);
            self.fired();
        }
    }

    /// Harden the layer with the most alerts so far.
    fn try_harden(&mut self) {
        let mut best: Option<(ArchLayer, u32)> = None;
        for layer in ArchLayer::ALL {
            let count = self.layer_alerts[layer as usize];
            if count > 0 && !self.posture.enabled(layer) && best.is_none_or(|(_, c)| count > c) {
                best = Some((layer, count));
            }
        }
        let Some((layer, _)) = best else { return };
        if self.budget.try_spend(HARDEN_COST) {
            self.posture.set(layer, true);
            self.fired();
        }
    }

    /// Buy monitoring up to the cap — fires even while the alert
    /// stream is silent (a silent stream against a live threat model is
    /// exactly when sensors are worth buying).
    fn try_monitor(&mut self) {
        if self.monitor_purchases >= MONITOR_MAX_PURCHASES {
            return;
        }
        if self.budget.try_spend(MONITOR_COST) {
            self.monitor_purchases += 1;
            self.attack.monitor_boost += MONITOR_STEP;
            self.fired();
        }
    }
}

/// Runs one attacker-vs-defender duel on `rng`'s stream.
///
/// Draw order matches [`adaptive_trial`](autosec_adversary::adaptive_trial)
/// exactly: two `chance` draws per attempted step, nothing else.
pub fn duel_trial(graph: &AttackGraph, cfg: &DuelConfig, rng: &mut SimRng) -> DuelRun {
    debug_assert!(graph.len() <= MAX_EDGES);
    let mut defender = DefenderState::new(cfg);
    let mut attacker = AttackerState::new();
    let mut time_to_breach = None;
    // Turn 0: the defender may act before the first attack step (e.g.
    // buy monitoring when it starts blind).
    defender.turn(graph, &mut attacker);
    while attacker.steps() < defender.attack.budget && !attacker.reached_goal() {
        let Some(plan) = attacker.plan(graph, &defender.posture, &defender.attack) else {
            break;
        };
        let Some(&idx) = plan.edges.first() else {
            break;
        };
        let report = attacker.attempt(graph, &defender.posture, &defender.attack, idx, rng);
        if report.detected {
            defender.observe(graph, &report);
        }
        if attacker.reached_goal() {
            time_to_breach = Some(attacker.steps());
            break;
        }
        defender.turn(graph, &mut attacker);
    }
    let steps = attacker.steps();
    let alerts = attacker.alerts();
    let depth = attacker.owned().len().saturating_sub(1);
    DuelRun {
        breached: attacker.reached_goal(),
        depth,
        steps,
        time_to_breach,
        alerts,
        spend: defender.budget.spent(),
        actions: defender.actions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_adversary::{
        adaptive_trial, resolve_knobs, AttackEdge, Capability, EdgeSource, ProbPoint,
    };

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
            defended: ProbPoint {
                success: 0.0,
                detect: 1.0,
            },
        }
    }

    /// A loud two-hop route: every step has a real detect probability,
    /// so a reactive defender gets signal to act on.
    fn loud_graph() -> AttackGraph {
        let mut g = AttackGraph::new();
        g.add_edge(edge(
            "foothold",
            Capability::External,
            Capability::PlatformFoothold,
            ArchLayer::SoftwarePlatform,
            0.9,
            0.6,
        ));
        g.add_edge(edge(
            "payload",
            Capability::PlatformFoothold,
            Capability::SafetyImpact,
            ArchLayer::SystemOfSystems,
            0.9,
            0.6,
        ));
        g
    }

    #[test]
    fn zero_budget_duel_replays_adaptive_trial_bit_identically() {
        let g = loud_graph();
        let cfg = DuelConfig::reactive(AttackConfig::new(8), 0.0);
        for i in 0..200 {
            let duel = duel_trial(&g, &cfg, &mut SimRng::seed(11).fork_idx(i));
            let solo = adaptive_trial(
                &g,
                &DefensePosture::none(),
                &cfg.attack,
                &mut SimRng::seed(11).fork_idx(i),
            );
            assert_eq!(duel.breached, solo.reached_goal, "trial {i}");
            assert_eq!(duel.steps, solo.steps_attempted, "trial {i}");
            assert_eq!(duel.alerts, solo.alerts, "trial {i}");
            assert_eq!(duel.spend, 0.0);
            assert_eq!(duel.actions, 0);
        }
    }

    #[test]
    fn exhausted_prespend_matches_the_static_posture_bit_identically() {
        // Full greedy-style pre-deployment with nothing in reserve is
        // the E23 equal-cost configuration: the duel must collapse to
        // adaptive_trial against the resolved static posture.
        let g = loud_graph();
        let knobs = [
            DefenseKnob::Layer(ArchLayer::SoftwarePlatform),
            DefenseKnob::ActiveResponse,
        ];
        let attack = AttackConfig::new(8);
        let (posture, static_cfg) = resolve_knobs(&knobs, &attack);
        let cfg = DuelConfig {
            attack,
            budget: knobs.len() as f64,
            pre_spend: knobs.to_vec(),
        };
        for i in 0..200 {
            let duel = duel_trial(&g, &cfg, &mut SimRng::seed(12).fork_idx(i));
            let solo = adaptive_trial(&g, &posture, &static_cfg, &mut SimRng::seed(12).fork_idx(i));
            assert_eq!(duel.breached, solo.reached_goal, "trial {i}");
            assert_eq!(duel.steps, solo.steps_attempted, "trial {i}");
            assert_eq!(duel.alerts, solo.alerts, "trial {i}");
            assert_eq!(duel.spend, knobs.len() as f64);
        }
    }

    #[test]
    fn reactive_budget_suppresses_breaches_on_a_loud_graph() {
        let g = loud_graph();
        let open = DuelConfig::reactive(AttackConfig::new(8), 0.0);
        let defended = DuelConfig::reactive(AttackConfig::new(8), 6.0);
        let trials = 300;
        let count = |cfg: &DuelConfig| {
            (0..trials)
                .filter(|&i| duel_trial(&g, cfg, &mut SimRng::seed(13).fork_idx(i)).breached)
                .count()
        };
        let open_breaches = count(&open);
        let defended_breaches = count(&defended);
        assert!(
            defended_breaches < open_breaches,
            "defense must bite: {defended_breaches} vs {open_breaches}"
        );
    }

    #[test]
    fn duels_are_deterministic_per_stream() {
        let g = loud_graph();
        let cfg = DuelConfig::reactive(
            AttackConfig {
                stealth_weight: 0.4,
                ..AttackConfig::new(8)
            },
            4.0,
        );
        for i in 0..50 {
            let a = duel_trial(&g, &cfg, &mut SimRng::seed(14).fork_idx(i));
            let b = duel_trial(&g, &cfg, &mut SimRng::seed(14).fork_idx(i));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn spend_never_exceeds_budget() {
        let g = loud_graph();
        for budget in [0.0, 0.5, 1.0, 2.5, 6.0] {
            let cfg = DuelConfig::reactive(AttackConfig::new(8), budget);
            for i in 0..100 {
                let run = duel_trial(&g, &cfg, &mut SimRng::seed(15).fork_idx(i));
                assert!(run.spend <= budget, "budget {budget}: spent {}", run.spend);
            }
        }
    }

    #[test]
    fn a_binding_rate_limit_keeps_the_earlier_rules() {
        // One turn in which all four rules qualify: a playbook isolation
        // is queued on edge 0, edge 1 has alerted ROTATE_THRESHOLD times,
        // the SoS layer has alerted, and no monitoring is bought yet. A
        // limit of k actions must fire exactly the first k rules of the
        // order isolate, rotate, harden, monitor.
        let g = loud_graph();
        let order = ["isolate", "rotate", "harden", "monitor"];
        for limit in 1..=order.len() {
            let mut d = DefenderState::new(&DuelConfig::reactive(AttackConfig::new(8), 10.0));
            d.budget = DefenseBudget::new(10.0, limit);
            d.isolate_queue[0] = true;
            d.edge_alerts[1] = ROTATE_THRESHOLD;
            d.layer_alerts[ArchLayer::SystemOfSystems as usize] = 1;
            let mut attacker = AttackerState::new();
            d.turn(&g, &mut attacker);
            let fired: Vec<&str> = [
                attacker.banned().contains(0),
                attacker.banned().contains(1),
                d.posture.enabled(ArchLayer::SystemOfSystems),
                d.monitor_purchases == 1,
            ]
            .into_iter()
            .zip(order)
            .filter_map(|(hit, rule)| hit.then_some(rule))
            .collect();
            assert_eq!(fired, order[..limit], "rate limit {limit}");
            assert_eq!(d.actions, limit);
        }
    }
}
