//! Synthetic vehicle telemetry fleet.
//!
//! The real breach exposed ~800,000 customers' personal information and
//! months of precise geolocation. The generator produces an equivalent
//! synthetic population so the kill chain has something real to steal.

use autosec_sim::SimRng;
use rand::Rng;

/// One GPS fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoFix {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Seconds since trace start.
    pub t: u64,
}

/// A vehicle's telemetry record: the PII the breach exposed.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleRecord {
    /// Vehicle identification number.
    pub vin: String,
    /// Owner name.
    pub owner: String,
    /// Owner email.
    pub email: String,
    /// Whether the owner is flagged sensitive (politicians, police,
    /// intelligence — the category that made the real breach explosive).
    pub sensitive: bool,
    /// Geolocation trace.
    pub trace: Vec<GeoFix>,
}

/// Generates a synthetic fleet of `n` vehicles with `fixes_per_vehicle`
/// geolocation points each; roughly 1% of owners are sensitive.
pub fn generate_fleet(n: usize, fixes_per_vehicle: usize, rng: &mut SimRng) -> Vec<VehicleRecord> {
    (0..n)
        .map(|i| {
            let mut lat = 48.0 + rng.gen_range(-3.0..3.0);
            let mut lon = 11.0 + rng.gen_range(-3.0..3.0);
            let trace = (0..fixes_per_vehicle)
                .map(|k| {
                    lat += rng.gen_range(-0.01..0.01);
                    lon += rng.gen_range(-0.01..0.01);
                    GeoFix {
                        lat,
                        lon,
                        t: k as u64 * 60,
                    }
                })
                .collect();
            VehicleRecord {
                vin: format!("WVWZZZ{i:011}"),
                owner: format!("Owner {i}"),
                email: format!("owner{i}@example.com"),
                sensitive: rng.chance(0.01),
                trace,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_requested_shape() {
        let mut rng = SimRng::seed(1);
        let fleet = generate_fleet(100, 10, &mut rng);
        assert_eq!(fleet.len(), 100);
        assert!(fleet.iter().all(|v| v.trace.len() == 10));
        assert!(fleet.iter().all(|v| v.vin.starts_with("WVWZZZ")));
    }

    #[test]
    fn vins_are_unique() {
        let mut rng = SimRng::seed(2);
        let fleet = generate_fleet(500, 1, &mut rng);
        let mut vins: Vec<&str> = fleet.iter().map(|v| v.vin.as_str()).collect();
        vins.sort_unstable();
        vins.dedup();
        assert_eq!(vins.len(), 500);
    }

    #[test]
    fn some_owners_are_sensitive() {
        let mut rng = SimRng::seed(3);
        let fleet = generate_fleet(5000, 1, &mut rng);
        let sensitive = fleet.iter().filter(|v| v.sensitive).count();
        // ~1% of 5000 = ~50; allow wide slack.
        assert!((10..150).contains(&sensitive), "{sensitive}");
    }

    #[test]
    fn traces_are_plausible_walks() {
        let mut rng = SimRng::seed(5);
        let fleet = generate_fleet(1, 100, &mut rng);
        for w in fleet[0].trace.windows(2) {
            assert!((w[1].lat - w[0].lat).abs() < 0.02);
            assert!(w[1].t > w[0].t);
        }
    }
}
