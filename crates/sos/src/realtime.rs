//! Real-time data under DoS/spoofing pressure (§VI-B: "Real-time data,
//! which is crucial for autonomous vehicle operations, is highly
//! susceptible to spoofing and denial-of-service (DoS) attacks").
//!
//! An M/D/1-style model of a real-time message stream sharing a link
//! with attacker flood traffic: utilisation drives queueing delay, and
//! messages missing their deadline are lost to the control loop.

use autosec_sim::SimRng;

/// A periodic real-time stream on a shared link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealtimeLink {
    /// Link capacity in messages per second.
    pub capacity_msgs_per_s: f64,
    /// Legitimate load in messages per second.
    pub legit_msgs_per_s: f64,
    /// Deadline per message, in milliseconds.
    pub deadline_ms: f64,
    /// Service time per message, in milliseconds.
    pub service_ms: f64,
}

impl RealtimeLink {
    /// A 100 Hz control stream on a link with 10x headroom.
    pub fn control_stream() -> Self {
        Self {
            capacity_msgs_per_s: 1000.0,
            legit_msgs_per_s: 100.0,
            deadline_ms: 20.0,
            service_ms: 1.0,
        }
    }

    /// Link utilisation with `attack_msgs_per_s` of flood traffic.
    pub fn utilisation(&self, attack_msgs_per_s: f64) -> f64 {
        (self.legit_msgs_per_s + attack_msgs_per_s) / self.capacity_msgs_per_s
    }

    /// Expected waiting time (ms) under the M/D/1 approximation
    /// `W = ρ·s / (2(1-ρ))`; saturated links return infinity.
    pub fn expected_wait_ms(&self, attack_msgs_per_s: f64) -> f64 {
        let rho = self.utilisation(attack_msgs_per_s);
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        rho * self.service_ms / (2.0 * (1.0 - rho))
    }

    /// Whether one message misses its deadline: an exponential queue
    /// wait around the analytic mean, plus the service time. E10-realtime
    /// runs one message per trial on its own stream. Saturated links miss
    /// without consuming randomness.
    pub fn message_misses_deadline(&self, attack_msgs_per_s: f64, rng: &mut SimRng) -> bool {
        let mean_wait = self.expected_wait_ms(attack_msgs_per_s);
        if !mean_wait.is_finite() {
            return true;
        }
        if mean_wait <= 0.0 {
            return false;
        }
        let wait = rng.exponential(1.0 / mean_wait);
        wait + self.service_ms > self.deadline_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of `n` messages on one stream that miss their deadline.
    fn miss_rate(link: &RealtimeLink, attack_msgs_per_s: f64, n: usize, rng: &mut SimRng) -> f64 {
        let missed = (0..n)
            .filter(|_| link.message_misses_deadline(attack_msgs_per_s, rng))
            .count();
        missed as f64 / n as f64
    }

    #[test]
    fn unattacked_link_meets_deadlines() {
        let link = RealtimeLink::control_stream();
        let mut rng = SimRng::seed(1);
        let miss = miss_rate(&link, 0.0, 5000, &mut rng);
        assert!(miss < 0.01, "{miss}");
    }

    #[test]
    fn saturation_kills_the_stream() {
        let link = RealtimeLink::control_stream();
        let mut rng = SimRng::seed(2);
        assert_eq!(miss_rate(&link, 950.0, 100, &mut rng), 1.0);
        assert!(link.expected_wait_ms(900.0).is_infinite());
        // Saturation decides without touching the rng.
        let mut a = SimRng::seed(4).fork("sat");
        assert!(link.message_misses_deadline(950.0, &mut a));
        use rand::RngCore;
        assert_eq!(a.next_u64(), SimRng::seed(4).fork("sat").next_u64());
    }

    #[test]
    fn miss_rate_rises_with_attack_intensity() {
        let link = RealtimeLink::control_stream();
        let mut prev = -1.0;
        for attack in [0.0, 400.0, 700.0, 850.0] {
            let mut rng = SimRng::seed(3);
            let m = miss_rate(&link, attack, 4000, &mut rng);
            assert!(m >= prev, "attack {attack}: {m} < {prev}");
            prev = m;
        }
        assert!(prev > 0.05, "heavy flood should cause real misses: {prev}");
    }

    #[test]
    fn wait_formula_sanity() {
        let link = RealtimeLink::control_stream();
        // ρ = 0.1 → W = 0.1*1/(2*0.9) ≈ 0.056 ms.
        let w = link.expected_wait_ms(0.0);
        assert!((w - 0.0556).abs() < 0.01, "{w}");
    }
}
