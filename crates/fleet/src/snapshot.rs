//! Canonical fleet snapshots.
//!
//! A snapshot is everything the determinism contract promises: a pure
//! function of `(seed, config)`, independent of `--shards` and of
//! wall-clock time. The JSON codec rides on the vendored `serde_json`
//! whose object map is a `BTreeMap`, so equal snapshots always render
//! to identical bytes — the property the CI artifact diff checks.

use serde_json::{json, Value};

use crate::state::FleetState;

/// Point-in-time fleet census: how many vehicles sit in each status,
/// plus the mean residual health (the availability integrand).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Census {
    /// Vehicles at full service.
    pub healthy: u64,
    /// Fault-degraded vehicles.
    pub degraded: u64,
    /// Attacker-controlled vehicles.
    pub compromised: u64,
    /// Contained vehicles awaiting verified repair.
    pub isolated: u64,
    /// Quarantined (panicked) vehicles.
    pub lost: u64,
    /// Mean residual health over the whole fleet.
    pub mean_health: f64,
}

impl Census {
    /// Counts the fleet — two dense column scans (status, then
    /// health).
    ///
    /// The status count is branch-free: per block of 255 vehicles,
    /// the count of the `k`-th status (declaration order) is a sum of
    /// `status == k` bytes, a `u8` that cannot overflow and that
    /// vectorizes, then widened into the totals. A `match` per vehicle
    /// mispredicts on every mixed-status fleet.
    ///
    /// The health sum stays one serial left-to-right scan in vehicle
    /// order: `mean_health` is printed bit for bit, and any split of
    /// the sum (per shard, per block, per SIMD lane) would reassociate
    /// the float additions and change those bits.
    pub fn take(state: &FleetState) -> Self {
        let mut counts = [0u64; 5];
        for block in state.status.chunks(usize::from(u8::MAX)) {
            let mut block_counts = [0u8; 5];
            for &status in block {
                for (k, count) in block_counts.iter_mut().enumerate() {
                    *count += u8::from(status as usize == k);
                }
            }
            for (count, block_count) in counts.iter_mut().zip(block_counts) {
                *count += u64::from(block_count);
            }
        }
        let [healthy, degraded, compromised, isolated, lost] = counts;
        let health_sum: f64 = state.health.iter().sum();
        Census {
            healthy,
            degraded,
            compromised,
            isolated,
            lost,
            mean_health: if state.is_empty() {
                1.0
            } else {
                health_sum / state.len() as f64
            },
        }
    }

    /// Total vehicles counted.
    pub fn total(&self) -> u64 {
        self.healthy + self.degraded + self.compromised + self.isolated + self.lost
    }

    /// Canonical JSON body.
    pub fn to_json(&self) -> Value {
        json!({
            "healthy": self.healthy,
            "degraded": self.degraded,
            "compromised": self.compromised,
            "isolated": self.isolated,
            "lost": self.lost,
            "mean_health": self.mean_health,
        })
    }
}

/// Cumulative run counters — monotone, shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTotals {
    /// Telemetry frames ingested (one per alive vehicle per tick).
    pub telemetry_frames: u64,
    /// Direct scenario-step attacks launched.
    pub attacks_attempted: u64,
    /// Direct attacks that took their vehicle.
    pub attacks_succeeded: u64,
    /// Epidemic (V2X) infections.
    pub infections: u64,
    /// Fault injections applied to exposed vehicles.
    pub fault_injections: u64,
    /// Alerts fed to the response engine.
    pub alerts: u64,
    /// Responses by action.
    pub responses_filter: u64,
    /// `Rekey` responses.
    pub responses_rekey: u64,
    /// `IsolateNode` responses.
    pub responses_isolate: u64,
    /// `LimpHome` responses.
    pub responses_limp_home: u64,
    /// `Notify` responses.
    pub responses_notify: u64,
    /// Verified repairs (vehicle returned to full service).
    pub recoveries: u64,
    /// Sum of incident-to-repair times in ticks (MTTR numerator).
    pub mttr_ticks: u64,
    /// Backend kill-chain breaches.
    pub backend_breaches: u64,
    /// Backend breaches patched out.
    pub backend_patches: u64,
    /// Vehicles quarantined after a state-machine panic.
    pub lost: u64,
}

impl FleetTotals {
    /// Folds another counter block in (shard merge — addition only, so
    /// the merge is order-independent).
    pub fn absorb(&mut self, other: &FleetTotals) {
        self.telemetry_frames += other.telemetry_frames;
        self.attacks_attempted += other.attacks_attempted;
        self.attacks_succeeded += other.attacks_succeeded;
        self.infections += other.infections;
        self.fault_injections += other.fault_injections;
        self.alerts += other.alerts;
        self.responses_filter += other.responses_filter;
        self.responses_rekey += other.responses_rekey;
        self.responses_isolate += other.responses_isolate;
        self.responses_limp_home += other.responses_limp_home;
        self.responses_notify += other.responses_notify;
        self.recoveries += other.recoveries;
        self.mttr_ticks += other.mttr_ticks;
        self.backend_breaches += other.backend_breaches;
        self.backend_patches += other.backend_patches;
        self.lost += other.lost;
    }

    /// Mean time to recovery in milliseconds (0 when nothing
    /// recovered).
    pub fn mttr_ms(&self, tick_ms: u64) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            (self.mttr_ticks * tick_ms) as f64 / self.recoveries as f64
        }
    }

    /// Canonical JSON body.
    pub fn to_json(&self) -> Value {
        json!({
            "telemetry_frames": self.telemetry_frames,
            "attacks_attempted": self.attacks_attempted,
            "attacks_succeeded": self.attacks_succeeded,
            "infections": self.infections,
            "fault_injections": self.fault_injections,
            "alerts": self.alerts,
            "responses_filter": self.responses_filter,
            "responses_rekey": self.responses_rekey,
            "responses_isolate": self.responses_isolate,
            "responses_limp_home": self.responses_limp_home,
            "responses_notify": self.responses_notify,
            "recoveries": self.recoveries,
            "mttr_ticks": self.mttr_ticks,
            "backend_breaches": self.backend_breaches,
            "backend_patches": self.backend_patches,
            "lost": self.lost,
        })
    }
}

/// One periodic snapshot of the running fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Tick the snapshot was taken at (after that tick completed).
    pub tick: u64,
    /// Whether the backend was breached at snapshot time.
    pub backend_breached: bool,
    /// The fleet census.
    pub census: Census,
    /// Cumulative counters up to and including `tick`.
    pub totals: FleetTotals,
}

impl FleetSnapshot {
    /// Canonical JSON body (sorted keys, shard-invariant fields only).
    pub fn to_json(&self) -> Value {
        json!({
            "tick": self.tick,
            "backend_breached": self.backend_breached,
            "census": self.census.to_json(),
            "totals": self.totals.to_json(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vehicle::VehicleStatus;
    use autosec_sim::SimRng;
    use rand::RngCore as _;

    #[test]
    fn census_counts_and_averages() {
        let base = SimRng::seed(1).fork("fleet/vehicles");
        let mut fleet = FleetState::new(4, &base);
        let mut cols = fleet.shard_views(4).remove(0);
        cols.quarantine(1, 1);
        cols.compromise(2, 1, autosec_sim::ArchLayer::Network);
        let c = Census::take(&fleet);
        assert_eq!(c.healthy, 2);
        assert_eq!(c.lost, 1);
        assert_eq!(c.compromised, 1);
        assert_eq!(c.total(), 4);
        let expected = (1.0 + 0.0 + crate::vehicle::COMPROMISED_HEALTH + 1.0) / 4.0;
        assert!((c.mean_health - expected).abs() < 1e-12);

        // Seeded mixed columns around the 255-vehicle block edge, plus
        // single-status columns longer than a block (a per-block `u8`
        // counter overflowing would show there).
        let statuses = [
            VehicleStatus::Healthy,
            VehicleStatus::Degraded,
            VehicleStatus::Compromised,
            VehicleStatus::Isolated,
            VehicleStatus::Lost,
        ];
        let mut rng = SimRng::seed(11);
        let mut fleets = Vec::new();
        for n in [0, 1, 254, 255, 256, 100_003] {
            let mut fleet = FleetState::new(n, &base);
            for i in 0..n {
                fleet.status[i] = statuses[(rng.next_u64() % 5) as usize];
                fleet.health[i] = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            }
            fleets.push(fleet);
        }
        for status in statuses {
            let mut fleet = FleetState::new(1_000, &base);
            fleet.status.fill(status);
            fleets.push(fleet);
        }
        for fleet in &fleets {
            let mut reference = Census::default();
            for status in &fleet.status {
                match status {
                    VehicleStatus::Healthy => reference.healthy += 1,
                    VehicleStatus::Degraded => reference.degraded += 1,
                    VehicleStatus::Compromised => reference.compromised += 1,
                    VehicleStatus::Isolated => reference.isolated += 1,
                    VehicleStatus::Lost => reference.lost += 1,
                }
            }
            let n = fleet.len();
            reference.mean_health = if n == 0 {
                1.0
            } else {
                fleet.health.iter().sum::<f64>() / n as f64
            };
            let c = Census::take(fleet);
            assert_eq!(c, reference, "{n} vehicles");
            assert_eq!(c.mean_health.to_bits(), reference.mean_health.to_bits());
        }
    }

    #[test]
    fn empty_fleet_census_is_healthy() {
        let c = Census::take(&FleetState::new(0, &SimRng::seed(1)));
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean_health, 1.0);
    }

    #[test]
    fn totals_absorb_is_additive() {
        let mut a = FleetTotals {
            alerts: 2,
            recoveries: 1,
            mttr_ticks: 10,
            ..Default::default()
        };
        let b = FleetTotals {
            alerts: 3,
            recoveries: 1,
            mttr_ticks: 30,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.alerts, 5);
        assert_eq!(a.mttr_ms(100), 2_000.0, "(10+30)*100ms / 2");
    }

    #[test]
    fn snapshot_json_is_canonical_and_sorted() {
        let snap = FleetSnapshot {
            tick: 50,
            backend_breached: true,
            census: Census::default(),
            totals: FleetTotals::default(),
        };
        let a = snap.to_json().to_string();
        let b = snap.to_json().to_string();
        assert_eq!(a, b);
        // BTreeMap keys: backend_breached < census < tick < totals.
        let bb = a.find("backend_breached").unwrap();
        let ce = a.find("census").unwrap();
        let ti = a.find("\"tick\"").unwrap();
        assert!(bb < ce && ce < ti);
    }
}
