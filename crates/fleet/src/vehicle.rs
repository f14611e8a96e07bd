//! Per-vehicle vocabulary: lifecycle states and service levels.
//!
//! The per-vehicle *state* itself lives columnar in
//! [`FleetState`](crate::state::FleetState) — a struct-of-arrays
//! census, one array per field — so the tick loop streams dense
//! columns instead of striding through padded structs. All behaviour
//! is a pure function of a vehicle's own columns, its own RNG stream,
//! and the shard-invariant
//! [`TickInputs`](crate::engine::TickInputs) computed by the engine —
//! the property that makes a fleet run bit-identical at any shard
//! count.

/// Where a vehicle is in its compromise/recovery lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleStatus {
    /// Full service.
    Healthy,
    /// Fault-degraded: residual health below 1, service continues.
    Degraded,
    /// Attacker-controlled (directly attacked or infected over V2X).
    Compromised,
    /// Contained by the response engine; awaiting verified repair.
    Isolated,
    /// Permanently gone (state machine panicked — quarantined).
    Lost,
}

impl VehicleStatus {
    /// Stable census key.
    pub fn as_str(self) -> &'static str {
        match self {
            VehicleStatus::Healthy => "healthy",
            VehicleStatus::Degraded => "degraded",
            VehicleStatus::Compromised => "compromised",
            VehicleStatus::Isolated => "isolated",
            VehicleStatus::Lost => "lost",
        }
    }
}

/// Service level a compromised vehicle still delivers (the attacker
/// degrades but rarely bricks — bricking would reveal the foothold).
pub const COMPROMISED_HEALTH: f64 = 0.25;
/// Service level while isolated by
/// [`ResponseAction::IsolateNode`](autosec_ids::response::ResponseAction)
/// (limited functions behind the quarantine boundary).
pub const ISOLATED_HEALTH: f64 = 0.45;
/// Service level in limp-home mode.
pub const LIMP_HOME_HEALTH: f64 = 0.3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_census_keys_are_stable() {
        assert_eq!(VehicleStatus::Healthy.as_str(), "healthy");
        assert_eq!(VehicleStatus::Lost.as_str(), "lost");
    }
}
