//! Fault plans: parameterized, scheduled, reproducible.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultSpec`]s — one effect
//! each, with a stable label and an onset on the simulation clock.
//! Onsets of the [`FaultPlan::standard`] plan are drawn from substreams
//! forked off the caller's `SimRng` by label, so a plan is bit-identical
//! for a fixed seed no matter how many worker threads later replay it.

use autosec_sim::{ArchLayer, FaultEffect, SimDuration, SimRng, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Stable label — used as the RNG fork label for everything this
    /// fault touches, and in reports.
    pub label: String,
    /// The injected effect.
    pub effect: FaultEffect,
    /// When the fault strikes.
    pub onset: SimTime,
}

/// An ordered set of scheduled faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, in injection order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan — guaranteed no-op everywhere.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan schedules nothing (or only no-op effects).
    pub fn is_noop(&self) -> bool {
        self.specs.iter().all(|s| s.effect.is_noop())
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Builder: appends a fault.
    pub fn with(mut self, label: &str, effect: FaultEffect, onset: SimTime) -> Self {
        self.specs.push(FaultSpec {
            label: label.to_owned(),
            effect,
            onset,
        });
        self
    }

    /// The representative cross-layer plan used by E15: one fault per
    /// family, every layer covered, onsets drawn per-label from `base`
    /// substreams over roughly the first half of a 10 s horizon.
    pub fn standard(base: &SimRng) -> Self {
        Self::standard_over(base, SimDuration::from_secs(10))
    }

    /// [`FaultPlan::standard`] generalized to an arbitrary horizon:
    /// exponential onsets with mean 15% of the horizon, capped at its
    /// midpoint. `standard_over(base, 10 s)` is bit-identical to
    /// `standard(base)` — the exponential draw scales linearly in the
    /// mean from the same underlying uniform draw.
    pub fn standard_over(base: &SimRng, horizon: SimDuration) -> Self {
        let horizon_ms = horizon.as_ms_f64();
        assert!(horizon_ms > 0.0, "fault horizon must be positive");
        let catalog: [(&str, FaultEffect); 9] = [
            ("ivn-drop", FaultEffect::DropFrames { p: 0.4 }),
            (
                "ivn-delay",
                FaultEffect::DelayFrames {
                    p: 0.5,
                    delay: SimDuration::from_ms(5),
                },
            ),
            ("phy-burst", FaultEffect::EnergyBurst { power: 3.0 }),
            ("phy-dropout", FaultEffect::SensorDropout { p: 0.35 }),
            (
                "collab-ghosts",
                FaultEffect::FabricateDetections { count: 5 },
            ),
            ("sdv-restart", FaultEffect::RestartNode { node: 0 }),
            ("sdv-rollback", FaultEffect::RollbackUpdate),
            ("data-skew", FaultEffect::ClockSkew { skew_ns: 2_000.0 }),
            ("sos-links", FaultEffect::FailLinks { p: 0.3 }),
        ];
        let mut plan = FaultPlan::empty();
        for (label, effect) in catalog {
            let mut rng = base.fork(label);
            // Exponential arrival, mean 15% of the horizon, capped at
            // its midpoint (1.5 s / 5 s on the classic 10 s horizon).
            let onset_ms = rng
                .exponential(1.0 / (0.15 * horizon_ms))
                .min(0.5 * horizon_ms);
            plan = plan.with(
                label,
                effect,
                SimTime::ZERO + SimDuration::from_ns_f64(onset_ms * 1e6),
            );
        }
        plan
    }

    /// Effects active at time `t` targeting `layer` (faults persist from
    /// their onset until recovered — the plan itself never clears them).
    pub fn effects_at(&self, t: SimTime, layer: ArchLayer) -> Vec<FaultEffect> {
        self.specs
            .iter()
            .filter(|s| s.onset <= t && s.effect.layer() == layer && !s.effect.is_noop())
            .map(|s| s.effect)
            .collect()
    }

    /// Adapter for `autosec_core::campaign::run_campaign_faulted`-style
    /// runners: campaign step `idx` executes at `idx * 100 ms`.
    pub fn campaign_faults(&self) -> impl Fn(usize, ArchLayer) -> Vec<FaultEffect> + '_ {
        move |idx, layer| self.effects_at(SimTime::from_ms(idx as u64 * 100), layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_noop() {
        let p = FaultPlan::empty();
        assert!(p.is_noop() && p.is_empty());
        assert_eq!(
            p.effects_at(SimTime::from_secs(1), ArchLayer::Network),
            vec![]
        );
        assert_eq!(p.campaign_faults()(3, ArchLayer::Physical), vec![]);
    }

    #[test]
    fn standard_plan_covers_every_layer() {
        let p = FaultPlan::standard(&SimRng::seed(1));
        assert_eq!(p.len(), 9);
        for layer in ArchLayer::ALL {
            assert!(
                p.specs.iter().any(|s| s.effect.layer() == layer),
                "{layer} uncovered"
            );
        }
    }

    #[test]
    fn standard_plan_is_seed_deterministic() {
        let a = FaultPlan::standard(&SimRng::seed(7));
        let b = FaultPlan::standard(&SimRng::seed(7));
        assert_eq!(a, b);
        let c = FaultPlan::standard(&SimRng::seed(8));
        assert_ne!(a, c, "different seeds shuffle the onsets");
    }

    #[test]
    fn standard_over_ten_seconds_matches_standard() {
        for seed in [1, 7, 42] {
            let base = SimRng::seed(seed);
            assert_eq!(
                FaultPlan::standard(&base),
                FaultPlan::standard_over(&base, SimDuration::from_secs(10)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn standard_over_scales_onsets_with_the_horizon() {
        let base = SimRng::seed(9);
        let short = FaultPlan::standard_over(&base, SimDuration::from_secs(2));
        let long = FaultPlan::standard_over(&base, SimDuration::from_secs(20));
        assert_eq!(short.len(), long.len());
        for (s, l) in short.specs.iter().zip(&long.specs) {
            assert!(s.onset.as_ps() <= SimTime::from_secs(1).as_ps());
            assert!(l.onset.as_ps() <= SimTime::from_secs(10).as_ps());
            // Same uniform draw, linearly scaled mean: 10x the onset
            // (up to the per-horizon cap and ps rounding).
            let ratio = l.onset.as_ps() as f64 / s.onset.as_ps().max(1) as f64;
            assert!(
                (ratio - 10.0).abs() < 0.01 || l.onset == SimTime::from_secs(10),
                "{}: ratio {ratio}",
                s.label
            );
        }
    }

    #[test]
    fn effects_activate_at_their_onset() {
        let p = FaultPlan::empty().with(
            "x",
            FaultEffect::DropFrames { p: 0.5 },
            SimTime::from_ms(300),
        );
        assert!(p
            .effects_at(SimTime::from_ms(200), ArchLayer::Network)
            .is_empty());
        assert_eq!(
            p.effects_at(SimTime::from_ms(300), ArchLayer::Network),
            vec![FaultEffect::DropFrames { p: 0.5 }]
        );
        // Wrong layer sees nothing.
        assert!(p
            .effects_at(SimTime::from_ms(300), ArchLayer::Physical)
            .is_empty());
    }

    #[test]
    fn noop_effects_never_surface() {
        let p = FaultPlan::empty().with("zero", FaultEffect::DropFrames { p: 0.0 }, SimTime::ZERO);
        assert!(p.is_noop());
        assert!(p
            .effects_at(SimTime::from_secs(1), ArchLayer::Network)
            .is_empty());
    }
}
