//! Autonomous intrusion response (REACT-style, paper ref \[56\]).
//!
//! Alerts map to playbooks; each playbook has a containment action, a
//! cost class (availability impact), and a containment latency. The
//! engine picks the cheapest playbook that covers the alert, escalating
//! on repeated alerts for the same subject.

use std::collections::HashMap;

use autosec_sim::{SimDuration, SimTime};

use crate::Alert;

/// A response action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseAction {
    /// Drop matching frames at the gateway.
    FilterId,
    /// Force a session rekey (SECOC/MACsec).
    Rekey,
    /// Isolate the suspected node (bus-off command / port shut).
    IsolateNode,
    /// Degrade to limp-home mode (minimal functionality, maximal
    /// safety).
    LimpHome,
    /// Notify the backend SOC only.
    Notify,
}

impl ResponseAction {
    /// Availability cost class (0 = free, 3 = severe).
    pub fn cost(self) -> u8 {
        match self {
            ResponseAction::Notify => 0,
            ResponseAction::FilterId => 1,
            ResponseAction::Rekey => 1,
            ResponseAction::IsolateNode => 2,
            ResponseAction::LimpHome => 3,
        }
    }

    /// Typical containment latency.
    pub fn latency(self) -> SimDuration {
        match self {
            ResponseAction::Notify => SimDuration::from_ms(500),
            ResponseAction::FilterId => SimDuration::from_ms(5),
            ResponseAction::Rekey => SimDuration::from_ms(50),
            ResponseAction::IsolateNode => SimDuration::from_ms(20),
            ResponseAction::LimpHome => SimDuration::from_ms(100),
        }
    }
}

/// A chosen response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The triggering alert subject.
    pub subject: u32,
    /// Chosen action.
    pub action: ResponseAction,
    /// When containment completes.
    pub contained_at: SimTime,
}

/// The response engine with escalation state.
#[derive(Debug, Clone, Default)]
pub struct ResponseEngine {
    /// Alerts seen per subject.
    strikes: HashMap<u32, u32>,
    /// History of responses issued.
    history: Vec<Response>,
    /// Maximum retained history entries (`None` = unbounded, the
    /// batch-experiment default).
    history_cap: Option<usize>,
}

impl ResponseEngine {
    /// New engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// New engine retaining at most `cap` history entries — required
    /// for long-running service mode, where an unbounded response log
    /// would grow with wall-of-ticks. Oldest entries are dropped first;
    /// escalation state (per-subject strikes) is unaffected by the cap.
    pub fn with_history_cap(cap: usize) -> Self {
        Self {
            history_cap: Some(cap),
            ..Self::default()
        }
    }

    /// The playbook ladder: the action for the `strikes`-th alert from
    /// `detector` against one subject. Every `strikes >= 5` maps to
    /// limp-home, so a counter that saturates at 5 or above loses
    /// nothing. The fleet calls this directly with per-vehicle strike
    /// counts kept in its own state columns.
    pub fn playbook(detector: &str, strikes: u32) -> ResponseAction {
        let base = match detector {
            "specification" => ResponseAction::FilterId,
            "frequency" => ResponseAction::FilterId,
            "interval" => ResponseAction::Rekey,
            "fingerprint" => ResponseAction::IsolateNode,
            _ => ResponseAction::Notify,
        };
        // Escalate after repeated strikes on the same subject.
        match (base, strikes) {
            (_, s) if s >= 5 => ResponseAction::LimpHome,
            (ResponseAction::FilterId, s) if s >= 3 => ResponseAction::IsolateNode,
            (b, _) => b,
        }
    }

    /// Handles one alert, issuing a response.
    pub fn handle(&mut self, alert: &Alert) -> Response {
        let strikes = self.strikes.entry(alert.subject).or_insert(0);
        *strikes += 1;
        let action = Self::playbook(alert.detector, *strikes);
        let response = Response {
            subject: alert.subject,
            action,
            contained_at: alert.at + action.latency(),
        };
        self.history.push(response.clone());
        if let Some(cap) = self.history_cap {
            if self.history.len() > cap {
                let excess = self.history.len() - cap;
                self.history.drain(..excess);
            }
        }
        response
    }

    /// All responses issued.
    pub fn history(&self) -> &[Response] {
        &self.history
    }

    /// Mean containment latency (alert → contained) in milliseconds.
    pub fn mean_containment_ms(&self, alerts: &[Alert]) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .history
            .iter()
            .zip(alerts.iter())
            .map(|(r, a)| r.contained_at.saturating_since(a.at).as_ms_f64())
            .sum();
        total / self.history.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(detector: &'static str, subject: u32, ms: u64) -> Alert {
        Alert {
            detector,
            subject,
            at: SimTime::from_ms(ms),
            detail: String::new(),
        }
    }

    #[test]
    fn playbooks_match_detectors() {
        let mut e = ResponseEngine::new();
        assert_eq!(
            e.handle(&alert("specification", 1, 0)).action,
            ResponseAction::FilterId
        );
        assert_eq!(
            e.handle(&alert("fingerprint", 2, 0)).action,
            ResponseAction::IsolateNode
        );
        assert_eq!(
            e.handle(&alert("interval", 3, 0)).action,
            ResponseAction::Rekey
        );
        assert_eq!(
            e.handle(&alert("unknown-detector", 4, 0)).action,
            ResponseAction::Notify
        );
    }

    #[test]
    fn escalation_on_repeat_offenders() {
        let mut e = ResponseEngine::new();
        let mut last = ResponseAction::Notify;
        for i in 0..6 {
            last = e.handle(&alert("frequency", 0x0A0, i * 10)).action;
        }
        assert_eq!(last, ResponseAction::LimpHome);
        // Third strike escalated filter -> isolate.
        assert_eq!(e.history()[2].action, ResponseAction::IsolateNode);
    }

    #[test]
    fn containment_latency_accumulates() {
        let mut e = ResponseEngine::new();
        let alerts = vec![alert("specification", 1, 10), alert("fingerprint", 2, 20)];
        for a in &alerts {
            e.handle(a);
        }
        let mean = e.mean_containment_ms(&alerts);
        // (5 + 20) / 2 = 12.5 ms.
        assert!((mean - 12.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn costs_are_ordered() {
        assert!(ResponseAction::Notify.cost() < ResponseAction::FilterId.cost());
        assert!(ResponseAction::IsolateNode.cost() < ResponseAction::LimpHome.cost());
    }

    #[test]
    fn history_cap_bounds_memory_without_touching_strikes() {
        let mut e = ResponseEngine::with_history_cap(3);
        for i in 0..10 {
            e.handle(&alert("frequency", 0x0A0, i * 10));
        }
        assert_eq!(e.history().len(), 3, "oldest entries dropped");
        // Strikes kept accumulating past the cap: still escalated.
        assert_eq!(
            e.handle(&alert("frequency", 0x0A0, 200)).action,
            ResponseAction::LimpHome
        );
    }

    #[test]
    fn the_ladder_is_flat_from_five_strikes() {
        for d in [
            "specification",
            "frequency",
            "interval",
            "fingerprint",
            "ptpsec",
            "misbehavior",
        ] {
            let top = ResponseEngine::playbook(d, 5);
            assert_eq!(top, ResponseAction::LimpHome, "{d}");
            for s in (5..=1_000).chain([u32::from(u8::MAX), u32::MAX]) {
                assert_eq!(ResponseEngine::playbook(d, s), top, "{d} at {s} strikes");
            }
        }
    }

    #[test]
    fn per_subject_strike_isolation() {
        let mut e = ResponseEngine::new();
        for i in 0..4 {
            e.handle(&alert("frequency", 0x100, i));
        }
        // A different subject starts fresh.
        let r = e.handle(&alert("frequency", 0x200, 100));
        assert_eq!(r.action, ResponseAction::FilterId);
    }
}
