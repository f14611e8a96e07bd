//! The simulated cloud telemetry backend.
//!
//! Reproduces the structural facts of the CARIAD incident (§V-A): a web
//! service with an enumerable directory structure, a framework whose
//! debug feature can dump process memory over plain HTTP, cloud master
//! keys living inside that memory, and a token service that will mint
//! access keys for any user when shown the master key.
//!
//! [`DefenseConfig`] holds the hardening knobs; experiment E9 shows which
//! knob breaks which stage of the kill chain.

use std::collections::HashMap;
use std::sync::Arc;

use autosec_sim::SimRng;

use crate::telemetry::{generate_fleet, VehicleRecord};

/// What a route serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteKind {
    /// Normal API route (authenticated).
    Api,
    /// Static/info route leaking framework hints.
    Info,
    /// Debug route that dumps process memory (the Spring
    /// "heapdump" actuator).
    HeapDump,
}

/// One HTTP-ish route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Path, e.g. `"/actuator/heapdump"`.
    pub path: String,
    /// Kind.
    pub kind: RouteKind,
    /// Whether the route demands a valid access key.
    pub requires_auth: bool,
}

/// Hardening configuration — the levers the E9 sweep pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefenseConfig {
    /// Debug endpoints removed from production.
    pub debug_endpoints_disabled: bool,
    /// Secrets scrubbed from memory dumps (vaulted keys / enclave).
    pub secret_scanning: bool,
    /// Master keys cannot mint arbitrary user tokens (least privilege).
    pub scoped_keys: bool,
    /// Request-rate anomaly detection (catches enumeration).
    pub rate_limiting: bool,
    /// Bulk-export anomaly detection (catches mass extraction).
    pub exfiltration_detection: bool,
}

impl DefenseConfig {
    /// The CARIAD starting point: nothing hardened.
    pub fn none() -> Self {
        Self {
            debug_endpoints_disabled: false,
            secret_scanning: false,
            scoped_keys: false,
            rate_limiting: false,
            exfiltration_detection: false,
        }
    }

    /// Everything on.
    pub fn hardened() -> Self {
        Self {
            debug_endpoints_disabled: true,
            secret_scanning: true,
            scoped_keys: true,
            rate_limiting: true,
            exfiltration_detection: true,
        }
    }

    /// Number of enabled defenses.
    pub fn enabled_count(&self) -> usize {
        usize::from(self.debug_endpoints_disabled)
            + usize::from(self.secret_scanning)
            + usize::from(self.scoped_keys)
            + usize::from(self.rate_limiting)
            + usize::from(self.exfiltration_detection)
    }
}

/// The backend under attack.
#[derive(Debug)]
pub struct TelemetryBackend {
    routes: Vec<Route>,
    /// Fleet records, keyed by VIN; shared by every posture of the
    /// same backend ([`TelemetryBackend::with_defenses`]).
    records: Arc<HashMap<String, VehicleRecord>>,
    /// The cloud master key (present in process memory unless vaulted).
    master_key: [u8; 16],
    /// Defense posture.
    pub defenses: DefenseConfig,
    /// Framework banner visible in responses.
    pub framework: &'static str,
}

impl TelemetryBackend {
    /// Builds a backend holding `fleet_size` vehicle records.
    pub fn build(fleet_size: usize, defenses: DefenseConfig, rng: &mut SimRng) -> Self {
        let fleet = generate_fleet(fleet_size, 20, rng);
        Self {
            routes: routes_for(defenses),
            records: Arc::new(fleet.into_iter().map(|v| (v.vin.clone(), v)).collect()),
            master_key: [0xC1; 16],
            defenses,
            framework: "Spring",
        }
    }

    /// This backend under the posture `defenses`: the same records and
    /// master key, the routes `defenses` leaves. The records are shared,
    /// not copied, and nothing is drawn, so a backend built once serves
    /// every posture as [`TelemetryBackend::build`] with the same stream
    /// would.
    pub fn with_defenses(&self, defenses: DefenseConfig) -> Self {
        Self {
            routes: routes_for(defenses),
            records: Arc::clone(&self.records),
            master_key: self.master_key,
            defenses,
            framework: self.framework,
        }
    }

    /// Routes reachable by crawling/enumeration.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Serves a memory dump if the route exists. Returns the dump's
    /// embedded secrets: `Some(master_key)` unless secrets are vaulted.
    pub fn heap_dump(&self) -> Option<Option<[u8; 16]>> {
        let has_route = self.routes.iter().any(|r| r.kind == RouteKind::HeapDump);
        if !has_route {
            return None;
        }
        if self.defenses.secret_scanning {
            Some(None) // dump served, but no secrets inside
        } else {
            Some(Some(self.master_key))
        }
    }

    /// The token service: exchanges a master key for an all-users access
    /// token. With [`DefenseConfig::scoped_keys`] the master key only
    /// grants service-to-service scopes, not user data access.
    pub fn mint_user_token(&self, presented_key: &[u8; 16]) -> Option<AccessToken> {
        if presented_key != &self.master_key {
            return None;
        }
        if self.defenses.scoped_keys {
            return None;
        }
        Some(AccessToken { all_users: true })
    }

    /// Bulk export with a token. Returns the records the token can read.
    pub fn export(&self, token: &AccessToken) -> Vec<&VehicleRecord> {
        if token.all_users {
            self.records.values().collect()
        } else {
            Vec::new()
        }
    }
}

/// The routes a backend under `defenses` serves.
fn routes_for(defenses: DefenseConfig) -> Vec<Route> {
    let mut routes = vec![
        Route {
            path: "/api/v1/telemetry".into(),
            kind: RouteKind::Api,
            requires_auth: true,
        },
        Route {
            path: "/api/v1/vehicles".into(),
            kind: RouteKind::Api,
            requires_auth: true,
        },
        Route {
            path: "/info".into(),
            kind: RouteKind::Info,
            requires_auth: false,
        },
    ];
    if !defenses.debug_endpoints_disabled {
        routes.push(Route {
            path: "/actuator/heapdump".into(),
            kind: RouteKind::HeapDump,
            requires_auth: false, // the actual misconfiguration
        });
    }
    routes
}

/// A minted API access token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessToken {
    /// Whether the token can read every user's data.
    pub all_users: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(9)
    }

    #[test]
    fn undefended_backend_has_heapdump_route() {
        let b = TelemetryBackend::build(10, DefenseConfig::none(), &mut rng());
        assert!(b.routes().iter().any(|r| r.path.contains("heapdump")));
        let dump = b.heap_dump().expect("route exists");
        assert!(dump.is_some(), "master key in the dump");
    }

    #[test]
    fn disabled_debug_endpoint_removes_route() {
        let mut d = DefenseConfig::none();
        d.debug_endpoints_disabled = true;
        let b = TelemetryBackend::build(10, d, &mut rng());
        assert!(b.heap_dump().is_none());
    }

    #[test]
    fn vaulted_secrets_survive_dump() {
        let mut d = DefenseConfig::none();
        d.secret_scanning = true;
        let b = TelemetryBackend::build(10, d, &mut rng());
        assert_eq!(b.heap_dump(), Some(None));
    }

    #[test]
    fn master_key_mints_global_token_without_scoping() {
        let b = TelemetryBackend::build(10, DefenseConfig::none(), &mut rng());
        let key = b.heap_dump().unwrap().unwrap();
        let token = b.mint_user_token(&key).expect("unscoped master key");
        assert_eq!(b.export(&token).len(), 10);
    }

    #[test]
    fn scoped_keys_block_token_minting() {
        let mut d = DefenseConfig::none();
        d.scoped_keys = true;
        let b = TelemetryBackend::build(10, d, &mut rng());
        let key = b.heap_dump().unwrap().unwrap();
        assert!(b.mint_user_token(&key).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let b = TelemetryBackend::build(10, DefenseConfig::none(), &mut rng());
        assert!(b.mint_user_token(&[0u8; 16]).is_none());
    }

    #[test]
    fn with_defenses_serves_what_a_fresh_build_serves() {
        let shared = TelemetryBackend::build(10, DefenseConfig::none(), &mut rng());
        let mut scoped = DefenseConfig::none();
        scoped.scoped_keys = true;
        let mut no_debug = DefenseConfig::none();
        no_debug.debug_endpoints_disabled = true;
        for d in [DefenseConfig::hardened(), scoped, no_debug] {
            let fresh = TelemetryBackend::build(10, d, &mut rng());
            let posed = shared.with_defenses(d);
            assert_eq!(posed.routes(), fresh.routes());
            assert_eq!(posed.defenses, d);
            assert_eq!(posed.heap_dump(), fresh.heap_dump());
            let key = [0xC1; 16];
            assert_eq!(posed.mint_user_token(&key), fresh.mint_user_token(&key));
            assert!(
                Arc::ptr_eq(&posed.records, &shared.records),
                "shared, not copied"
            );
        }
        let all = AccessToken { all_users: true };
        let fresh = TelemetryBackend::build(10, DefenseConfig::none(), &mut rng());
        let records = |b: &TelemetryBackend| {
            let mut v: Vec<VehicleRecord> = b.export(&all).into_iter().cloned().collect();
            v.sort_by(|a, b| a.vin.cmp(&b.vin));
            v
        };
        assert_eq!(records(&shared.with_defenses(scoped)), records(&fresh));
    }

    #[test]
    fn defense_counting() {
        assert_eq!(DefenseConfig::none().enabled_count(), 0);
        assert_eq!(DefenseConfig::hardened().enabled_count(), 5);
    }
}
