//! The self-healing recovery loop: detect → isolate → reconfigure →
//! verify.
//!
//! Each scheduled fault is injected through its layer's
//! [`FaultTarget`](autosec_sim::FaultTarget) adapter. If the layer's
//! own defenses notice it, the alert feeds the REACT-style
//! [`ResponseEngine`] (isolation), the platform reconfigures (the SDV
//! failover flow is exercised by the software-platform adapter itself),
//! and repair is verified — retried up to a bounded number of attempts.
//! Undetected faults degrade service silently for the rest of the
//! horizon, which is exactly what makes detection worth measuring:
//! MTTR and availability (the time average of composite health) both
//! come out of this loop.

use autosec_ids::response::{ResponseAction, ResponseEngine};
use autosec_ids::Alert;
use autosec_sim::{ArchLayer, SimDuration, SimRng, SimTime};

use crate::plan::FaultPlan;
use crate::targets::target_for;

/// Recovery-loop tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Observation horizon; unrecovered faults degrade until here.
    pub horizon: SimTime,
    /// Mean fault-detection latency (ms) once a defense notices.
    pub detect_mean_ms: f64,
    /// Mean reconfiguration latency (ms) after isolation.
    pub reconfig_mean_ms: f64,
    /// Mean per-attempt verification latency (ms).
    pub verify_mean_ms: f64,
    /// Verification attempts before the engine gives up.
    pub max_verify_attempts: usize,
    /// Fraction of a fault's health deficit removed by containment
    /// (isolation / limp-home) while repair is still pending.
    pub isolation_relief: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            horizon: SimTime::from_secs(10),
            detect_mean_ms: 20.0,
            reconfig_mean_ms: 30.0,
            verify_mean_ms: 10.0,
            max_verify_attempts: 3,
            isolation_relief: 0.5,
        }
    }
}

/// One fault's journey through the recovery loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The spec's label.
    pub label: String,
    /// Targeted layer.
    pub layer: ArchLayer,
    /// Effect name (stable, from the catalogue).
    pub effect: &'static str,
    /// When the fault struck.
    pub onset: SimTime,
    /// Residual service level while the fault was active.
    pub health: f64,
    /// Whether the layer's defenses noticed.
    pub detected: bool,
    /// When the alert fired.
    pub detected_at: Option<SimTime>,
    /// When the response engine finished containment.
    pub isolated_at: Option<SimTime>,
    /// The containment action chosen.
    pub action: Option<ResponseAction>,
    /// Verification attempts spent.
    pub verify_attempts: usize,
    /// When repair was verified (None = never recovered).
    pub recovered_at: Option<SimTime>,
}

impl Incident {
    /// When the fault stopped degrading service (recovery or horizon).
    pub fn outage_end(&self, horizon: SimTime) -> SimTime {
        self.recovered_at.unwrap_or(horizon).min(horizon)
    }

    /// The incident's residual health at instant `t`: full before onset
    /// and after verified recovery, raw fault health until containment,
    /// and partially relieved (`relief` of the deficit removed) between
    /// isolation and repair.
    pub fn health_at(&self, t: SimTime, horizon: SimTime, relief: f64) -> f64 {
        if t < self.onset || t >= self.outage_end(horizon) {
            return 1.0;
        }
        match self.isolated_at {
            Some(iso) if t >= iso => 1.0 - (1.0 - self.health) * (1.0 - relief),
            _ => self.health,
        }
    }
}

/// A full recovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Per-fault incidents, in plan order.
    pub incidents: Vec<Incident>,
    /// Observation horizon.
    pub horizon: SimTime,
    /// Whether the layers ran defended.
    pub defended: bool,
    /// Containment relief applied between isolation and repair
    /// (copied from [`RecoveryConfig::isolation_relief`]).
    pub relief: f64,
}

impl RecoveryReport {
    /// Incidents whose fault was noticed.
    pub fn detected(&self) -> usize {
        self.incidents.iter().filter(|i| i.detected).count()
    }

    /// Incidents repaired and verified inside the horizon.
    pub fn recovered(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.recovered_at.is_some())
            .count()
    }

    /// Mean time to recovery (onset → verified repair) in ms, over
    /// recovered incidents. Zero if nothing recovered.
    pub fn mttr_ms(&self) -> f64 {
        let recovered: Vec<f64> = self
            .incidents
            .iter()
            .filter_map(|i| i.recovered_at.map(|r| r.since(i.onset).as_ms_f64()))
            .collect();
        if recovered.is_empty() {
            return 0.0;
        }
        recovered.iter().sum::<f64>() / recovered.len() as f64
    }

    /// Service availability over the horizon: the exact time-average of
    /// composite health, where the instantaneous composite is the
    /// product of every active incident's residual health (overlapping
    /// faults compound multiplicatively, not additively).
    pub fn availability(&self) -> f64 {
        let horizon_ps = self.horizon.as_ps();
        if horizon_ps == 0 {
            return 1.0;
        }
        let mut bounds: Vec<u64> = vec![0, horizon_ps];
        for i in &self.incidents {
            bounds.push(i.onset.as_ps().min(horizon_ps));
            bounds.push(i.outage_end(self.horizon).as_ps());
            if let Some(iso) = i.isolated_at {
                bounds.push(iso.as_ps().min(horizon_ps));
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut acc = 0.0;
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a {
                continue;
            }
            let t = SimTime::from_ps(a);
            acc += self.composite_health(t) * (b - a) as f64;
        }
        acc / horizon_ps as f64
    }

    /// Instantaneous composite service health at `t`: the product of
    /// every incident's [`Incident::health_at`].
    pub fn composite_health(&self, t: SimTime) -> f64 {
        self.incidents
            .iter()
            .map(|i| i.health_at(t, self.horizon, self.relief))
            .product()
    }
}

/// The detector identity a layer's fault alert is attributed to —
/// chosen so the response playbooks exercise distinct actions. Public
/// so the fleet service mode attributes its live alerts to the same
/// detector identities (and therefore the same playbooks).
pub fn detector_for(layer: ArchLayer) -> &'static str {
    match layer {
        ArchLayer::Network => "specification",
        ArchLayer::Data => "interval",
        ArchLayer::SoftwarePlatform => "fingerprint",
        ArchLayer::Physical => "ranging-watchdog",
        ArchLayer::SystemOfSystems => "sos-monitor",
        ArchLayer::Collaboration => "misbehavior",
    }
}

/// The detect → isolate → reconfigure → verify engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEngine {
    /// Tuning knobs.
    pub cfg: RecoveryConfig,
    /// Whether layers run their defenses (detection requires it).
    pub defended: bool,
}

impl RecoveryEngine {
    /// Engine with default tuning.
    pub fn new(defended: bool) -> Self {
        Self {
            cfg: RecoveryConfig::default(),
            defended,
        }
    }

    /// Runs `plan` to completion. Every random decision comes from
    /// substreams forked off `base` by spec label and index, so the
    /// report is bit-identical per seed regardless of caller threading.
    pub fn run(&self, plan: &FaultPlan, base: &SimRng) -> RecoveryReport {
        let mut responder = ResponseEngine::new();
        let mut incidents = Vec::with_capacity(plan.len());
        for (i, spec) in plan.specs.iter().enumerate() {
            if spec.effect.is_noop() {
                continue;
            }
            let mut rng = base.fork(&spec.label).fork_idx(i as u64);
            let mut target = target_for(spec.effect.layer());
            let rec = target.apply(&[spec.effect], self.defended, &mut rng);
            let mut incident = Incident {
                label: spec.label.clone(),
                layer: spec.effect.layer(),
                effect: spec.effect.name(),
                onset: spec.onset,
                health: rec.health,
                detected: rec.detected,
                detected_at: None,
                isolated_at: None,
                action: None,
                verify_attempts: 0,
                recovered_at: None,
            };
            if rec.detected {
                let detect_ms = rng.exponential(1.0 / self.cfg.detect_mean_ms);
                let detected_at = spec.onset + SimDuration::from_ns_f64(detect_ms * 1e6);
                let alert = Alert {
                    detector: detector_for(spec.effect.layer()),
                    subject: i as u32,
                    at: detected_at,
                    detail: rec.detail.clone(),
                };
                let response = responder.handle(&alert);
                let reconfig_ms = rng.exponential(1.0 / self.cfg.reconfig_mean_ms);
                let mut clock = response.contained_at + SimDuration::from_ns_f64(reconfig_ms * 1e6);
                incident.detected_at = Some(detected_at);
                incident.isolated_at = Some(response.contained_at);
                incident.action = Some(response.action);
                // Verify: repair succeeds per attempt with probability
                // tied to how much service the fault left standing —
                // severe faults are harder to repair and re-verify.
                let p_repair = 0.5 + 0.5 * rec.health;
                for _ in 0..self.cfg.max_verify_attempts {
                    incident.verify_attempts += 1;
                    let verify_ms = rng.exponential(1.0 / self.cfg.verify_mean_ms);
                    clock += SimDuration::from_ns_f64(verify_ms * 1e6);
                    if rng.chance(p_repair) {
                        incident.recovered_at = Some(clock);
                        break;
                    }
                }
            }
            incidents.push(incident);
        }
        RecoveryReport {
            incidents,
            horizon: self.cfg.horizon,
            defended: self.defended,
            relief: self.cfg.isolation_relief,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_sim::FaultEffect;

    fn base() -> SimRng {
        SimRng::seed(404)
    }

    #[test]
    fn empty_plan_yields_pristine_report() {
        let report = RecoveryEngine::new(true).run(&FaultPlan::empty(), &base());
        assert!(report.incidents.is_empty());
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.mttr_ms(), 0.0);
    }

    #[test]
    fn standard_plan_defended_recovers_most_faults() {
        let plan = FaultPlan::standard(&base());
        let report = RecoveryEngine::new(true).run(&plan, &base());
        assert_eq!(report.incidents.len(), 9);
        assert!(report.detected() >= 6, "detected {}", report.detected());
        assert!(report.recovered() >= 5, "recovered {}", report.recovered());
        assert!(report.mttr_ms() > 0.0);
        assert!(report.availability() > 0.3, "{}", report.availability());
    }

    #[test]
    fn undefended_run_detects_nothing_and_pays_for_it() {
        let plan = FaultPlan::standard(&base());
        let defended = RecoveryEngine::new(true).run(&plan, &base());
        let undefended = RecoveryEngine::new(false).run(&plan, &base());
        assert_eq!(undefended.detected(), 0);
        assert_eq!(undefended.recovered(), 0);
        assert!(
            undefended.availability() < defended.availability(),
            "{} !< {}",
            undefended.availability(),
            defended.availability()
        );
    }

    #[test]
    fn report_is_bit_identical_per_seed() {
        let plan = FaultPlan::standard(&base());
        let a = RecoveryEngine::new(true).run(&plan, &base());
        let b = RecoveryEngine::new(true).run(&plan, &base());
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_pipeline_is_ordered() {
        let plan = FaultPlan::standard(&base());
        let report = RecoveryEngine::new(true).run(&plan, &base());
        for i in &report.incidents {
            if let (Some(d), Some(iso), Some(r)) = (i.detected_at, i.isolated_at, i.recovered_at) {
                assert!(i.onset <= d && d <= iso && iso <= r, "{}", i.label);
            }
            if i.recovered_at.is_some() {
                assert!(i.detected, "recovery requires detection");
                assert!(i.verify_attempts >= 1);
            }
        }
    }

    #[test]
    fn degradation_curve_dips_while_faults_are_active() {
        let plan = FaultPlan::empty().with(
            "drop-all",
            FaultEffect::DropFrames { p: 1.0 },
            SimTime::from_ms(100),
        );
        let report = RecoveryEngine::new(false).run(&plan, &base());
        let late = SimTime::from_ps(report.horizon.as_ps() * 19 / 20);
        assert_eq!(
            report.composite_health(SimTime::from_ps(0)),
            1.0,
            "healthy before onset"
        );
        assert!(
            report.composite_health(late) < 1.0,
            "silent fault never clears"
        );
    }
}
