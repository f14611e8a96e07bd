//! Defense actions and the budget / rate limit they spend against.
//!
//! Every runtime move the closed-loop defender can make is a
//! [`DefenseAction`] with a fixed cost in abstract defense dollars —
//! the same unit the static `greedy_frontier` optimizer spends (one
//! dollar per knob), so closed-loop and static allocations compare at
//! equal total cost. Costs are multiples of 0.5, which keeps every
//! budget sum exact in binary floating point: budget arithmetic is
//! bit-deterministic by construction, not by tolerance.

use autosec_adversary::DefenseKnob;

/// Cost of toggling one defense knob on (a posture layer or a runtime
/// knob) — matches the static optimizer's one-dollar-per-knob unit.
pub const HARDEN_COST: f64 = 1.0;
/// Cost of rotating the credentials behind one attack-graph edge
/// (burning the attacker's tool for the rest of the run).
pub const ROTATE_COST: f64 = 0.5;
/// Cost of executing a playbook isolation against one subject/edge.
pub const ISOLATE_COST: f64 = 0.5;
/// Cost of one monitoring increment.
pub const MONITOR_COST: f64 = 0.5;
/// Detect-probability added per monitoring purchase.
pub const MONITOR_STEP: f64 = 0.15;
/// Ceiling on total monitoring boost.
pub const MONITOR_CAP: f64 = 0.45;

/// One runtime defense move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseAction {
    /// Toggle one defense knob on (posture layer or runtime knob).
    Harden(DefenseKnob),
    /// Rotate credentials: retire the tool behind attack-graph edge
    /// `edge` (the attacker can never use it again this run).
    RotateCredential {
        /// Edge index into the attack graph.
        edge: usize,
    },
    /// Execute the response playbook's isolation against the subject
    /// behind `edge`.
    IsolateSubject {
        /// Edge index into the attack graph.
        edge: usize,
    },
    /// Buy one monitoring increment ([`MONITOR_STEP`] extra detect
    /// probability on every attempted edge, up to [`MONITOR_CAP`]).
    BoostMonitoring,
}

impl DefenseAction {
    /// Budget cost of the action.
    pub fn cost(&self) -> f64 {
        match self {
            DefenseAction::Harden(_) => HARDEN_COST,
            DefenseAction::RotateCredential { .. } => ROTATE_COST,
            DefenseAction::IsolateSubject { .. } => ISOLATE_COST,
            DefenseAction::BoostMonitoring => MONITOR_COST,
        }
    }

    /// Stable display label (artifact / log value).
    pub fn label(&self) -> String {
        match self {
            DefenseAction::Harden(k) => format!("harden:{}", k.label()),
            DefenseAction::RotateCredential { edge } => format!("rotate:{edge}"),
            DefenseAction::IsolateSubject { edge } => format!("isolate:{edge}"),
            DefenseAction::BoostMonitoring => "monitor".to_owned(),
        }
    }
}

/// Spend tracker: total budget plus a per-turn action rate limit.
///
/// The rate limit models actuation latency — a SOC can only push so
/// many changes per attack step / fleet tick. Deployment-time spending
/// ([`DefenseBudget::try_prespend`]) happens before the incident clock
/// starts and is exempt from the rate limit; runtime spending
/// ([`DefenseBudget::try_spend`]) is not.
#[derive(Debug, Clone)]
pub struct DefenseBudget {
    total: f64,
    spent: f64,
    rate_limit: usize,
    turn_actions: usize,
}

impl DefenseBudget {
    /// A budget of `total` dollars at `rate_limit` actions per turn.
    pub fn new(total: f64, rate_limit: usize) -> Self {
        Self {
            total,
            spent: 0.0,
            rate_limit,
            turn_actions: 0,
        }
    }

    /// Starts a new defender turn (resets the rate-limit window).
    pub fn begin_turn(&mut self) {
        self.turn_actions = 0;
    }

    /// Spends `cost` under the rate limit. Returns whether the spend
    /// went through.
    pub fn try_spend(&mut self, cost: f64) -> bool {
        if self.turn_actions >= self.rate_limit || !self.affordable(cost) {
            return false;
        }
        self.spent += cost;
        self.turn_actions += 1;
        true
    }

    /// Spends `cost` at deployment time (no rate limit).
    pub fn try_prespend(&mut self, cost: f64) -> bool {
        if !self.affordable(cost) {
            return false;
        }
        self.spent += cost;
        true
    }

    /// Whether `cost` fits in the remaining budget.
    pub fn affordable(&self, cost: f64) -> bool {
        self.spent + cost <= self.total
    }

    /// Dollars spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Dollars left.
    pub fn remaining(&self) -> f64 {
        self.total - self.spent
    }

    /// The configured total.
    pub fn total(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_sim::ArchLayer;

    #[test]
    fn costs_are_half_dollar_multiples() {
        // Exact budget arithmetic depends on this.
        for cost in [
            HARDEN_COST,
            ROTATE_COST,
            ISOLATE_COST,
            MONITOR_COST,
            DefenseAction::BoostMonitoring.cost(),
        ] {
            assert_eq!(cost * 2.0, (cost * 2.0).round(), "{cost}");
        }
    }

    #[test]
    fn rate_limit_caps_a_turn_and_resets() {
        let mut b = DefenseBudget::new(10.0, 2);
        assert!(b.try_spend(1.0));
        assert!(b.try_spend(0.5));
        assert!(!b.try_spend(0.5), "third action in one turn");
        b.begin_turn();
        assert!(b.try_spend(0.5));
        assert_eq!(b.spent(), 2.0);
    }

    #[test]
    fn budget_is_exactly_exhaustible() {
        let mut b = DefenseBudget::new(2.0, 100);
        assert!(b.try_spend(0.5));
        assert!(b.try_spend(0.5));
        assert!(b.try_spend(1.0));
        assert_eq!(b.remaining(), 0.0);
        assert!(!b.try_spend(0.5));
        assert!(!b.try_prespend(0.5));
    }

    #[test]
    fn prespend_ignores_the_rate_limit() {
        let mut b = DefenseBudget::new(3.0, 1);
        assert!(b.try_prespend(1.0));
        assert!(b.try_prespend(1.0));
        assert!(b.try_prespend(1.0));
        assert!(!b.try_prespend(1.0), "budget still binds");
    }

    #[test]
    fn action_labels_are_stable() {
        assert_eq!(
            DefenseAction::Harden(DefenseKnob::Layer(ArchLayer::Data)).label(),
            "harden:layer:data"
        );
        assert_eq!(
            DefenseAction::RotateCredential { edge: 3 }.label(),
            "rotate:3"
        );
        assert_eq!(DefenseAction::BoostMonitoring.label(), "monitor");
    }
}
