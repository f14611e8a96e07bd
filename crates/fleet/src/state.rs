//! Struct-of-arrays fleet state.
//!
//! The fleet used to be a `Vec<Vehicle>` of per-vehicle structs. At
//! population scale the tick loop is a columnar walk — check a status,
//! draw from an RNG, bump a health — so the state now lives as one
//! array per field ([`FleetState`]): the common no-event path touches
//! the status, flag and RNG columns only, and a census pass streams two
//! dense arrays instead of striding through padded structs. The RNG
//! column is itself struct-of-arrays ([`RngColumn`]: four xoshiro256**
//! state words and a seed per vehicle), which is what lets the vehicle
//! phase sweep eight vehicles' draws at a time
//! ([`RngColumnMut::sweep`], see [`crate::shard`]).
//!
//! Mutable access goes through [`FleetColumns`], a borrowed columnar
//! window over a contiguous id range. [`FleetState::shard_views`]
//! splits the fleet into per-shard windows the same way the old code
//! split the vehicle vector — contiguous chunks, so shard merge order
//! *is* vehicle order and the shard-invariance contract carries over
//! unchanged.

use autosec_faults::detector_for;
use autosec_ids::response::{ResponseAction, ResponseEngine};
use autosec_sim::{ArchLayer, RngColumn, RngColumnMut, SimRng};

use crate::snapshot::FleetTotals;
use crate::vehicle::{VehicleStatus, COMPROMISED_HEALTH, ISOLATED_HEALTH, LIMP_HOME_HEALTH};

/// Fraction of a degraded vehicle's health deficit removed by a
/// filter/rekey containment action.
const CONTAINMENT_RELIEF: f64 = 0.5;

/// The whole fleet, one column per per-vehicle field.
///
/// Vehicle `i`'s fields live at index `i` of every column; its RNG is
/// the `fork_idx(i)` substream of the fleet base, exactly as before
/// the columnar refactor.
#[derive(Debug, Clone)]
pub struct FleetState {
    /// Lifecycle status per vehicle.
    pub status: Vec<VehicleStatus>,
    /// Residual service level in `[0, 1]` per vehicle.
    pub health: Vec<f64>,
    /// Tick the current incident started; meaningless while `Healthy`.
    pub since: Vec<u64>,
    /// Whether the IDS already flagged the current incident.
    pub flagged: Vec<bool>,
    /// Layer of the current incident; meaningless while `Healthy`.
    pub incident_layer: Vec<ArchLayer>,
    /// Alerts answered since the last verified repair — the response
    /// playbook's escalation state. Saturates: the ladder is flat from
    /// five strikes on.
    pub strikes: Vec<u8>,
    /// Private RNG substream per vehicle
    /// (`root.fork("fleet/vehicles").fork_idx(i)`).
    pub rng: RngColumn,
}

impl FleetState {
    /// A fleet of `n` healthy vehicles, vehicle `i` drawing from
    /// `fleet_base.fork_idx(i)`.
    pub fn new(n: usize, fleet_base: &SimRng) -> Self {
        Self {
            status: vec![VehicleStatus::Healthy; n],
            health: vec![1.0; n],
            since: vec![0; n],
            flagged: vec![false; n],
            incident_layer: vec![ArchLayer::Physical; n],
            strikes: vec![0; n],
            rng: RngColumn::forks(fleet_base, n),
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Splits the fleet into contiguous windows of at most `chunk`
    /// vehicles — the per-shard views of the parallel tick phase.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn shard_views(&mut self, chunk: usize) -> Vec<FleetColumns<'_>> {
        assert!(chunk > 0, "shard chunk must be positive");
        let mut views = Vec::with_capacity(self.len().div_ceil(chunk.max(1)).max(1));
        let mut base = 0u32;
        let mut status = self.status.as_mut_slice();
        let mut health = self.health.as_mut_slice();
        let mut since = self.since.as_mut_slice();
        let mut flagged = self.flagged.as_mut_slice();
        let mut incident_layer = self.incident_layer.as_mut_slice();
        let mut strikes = self.strikes.as_mut_slice();
        let mut rng = self.rng.view_mut();
        while !status.is_empty() {
            let take = chunk.min(status.len());
            let (s, s_rest) = std::mem::take(&mut status).split_at_mut(take);
            let (h, h_rest) = std::mem::take(&mut health).split_at_mut(take);
            let (t, t_rest) = std::mem::take(&mut since).split_at_mut(take);
            let (f, f_rest) = std::mem::take(&mut flagged).split_at_mut(take);
            let (l, l_rest) = std::mem::take(&mut incident_layer).split_at_mut(take);
            let (k, k_rest) = std::mem::take(&mut strikes).split_at_mut(take);
            let (r, r_rest) = rng.split_at_mut(take);
            status = s_rest;
            health = h_rest;
            since = t_rest;
            flagged = f_rest;
            incident_layer = l_rest;
            strikes = k_rest;
            rng = r_rest;
            views.push(FleetColumns {
                base,
                status: s,
                health: h,
                since: t,
                flagged: f,
                incident_layer: l,
                strikes: k,
                rng: r,
            });
            base += take as u32;
        }
        views
    }
}

/// A vehicle's lane class in the sweep: `2 · status + flagged`, the
/// status in declaration order, so that the ten classes fit a
/// [`SweepTable`](autosec_sim::SweepTable).
pub(crate) fn sweep_class(status: VehicleStatus, flagged: bool) -> usize {
    (status as usize) << 1 | usize::from(flagged)
}

/// A mutable columnar window over the contiguous vehicle range
/// `base .. base + len`. Index `i` within the window is vehicle
/// `base + i` of the fleet.
#[derive(Debug)]
pub struct FleetColumns<'a> {
    base: u32,
    /// Lifecycle status column.
    pub status: &'a mut [VehicleStatus],
    /// Residual health column.
    pub health: &'a mut [f64],
    /// Incident-start tick column.
    pub since: &'a mut [u64],
    /// IDS-flagged column.
    pub flagged: &'a mut [bool],
    /// Incident layer column.
    pub incident_layer: &'a mut [ArchLayer],
    /// Response strike column.
    pub strikes: &'a mut [u8],
    /// Private RNG column.
    pub rng: RngColumnMut<'a>,
}

impl FleetColumns<'_> {
    /// Vehicles in this window.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Fleet-unique id of window index `i` (also the IDS alert
    /// subject).
    pub fn id(&self, i: usize) -> u32 {
        self.base + i as u32
    }

    /// Writes the [`sweep_class`] of window indices `start ..
    /// start + classes.len()` into `classes`.
    pub(crate) fn sweep_classes(&self, start: usize, classes: &mut [u8]) {
        let end = start + classes.len();
        let vehicles = self.status[start..end]
            .iter()
            .zip(&self.flagged[start..end]);
        for (class, (&status, &flagged)) in classes.iter_mut().zip(vehicles) {
            *class = sweep_class(status, flagged) as u8;
        }
    }

    /// Whether vehicle `i` still emits telemetry.
    pub fn alive(&self, i: usize) -> bool {
        self.status[i] != VehicleStatus::Lost
    }

    /// Marks vehicle `i` compromised at `tick` via `layer`.
    pub fn compromise(&mut self, i: usize, tick: u64, layer: ArchLayer) {
        if matches!(
            self.status[i],
            VehicleStatus::Healthy | VehicleStatus::Degraded
        ) {
            self.since[i] = tick;
        }
        self.status[i] = VehicleStatus::Compromised;
        self.health[i] = COMPROMISED_HEALTH;
        self.flagged[i] = false;
        self.incident_layer[i] = layer;
    }

    /// Quarantines vehicle `i` after its state machine panicked: it
    /// leaves the fleet permanently, and its RNG stream is never
    /// consumed again (so every other vehicle's stream is untouched).
    pub fn quarantine(&mut self, i: usize, tick: u64) {
        if self.status[i] == VehicleStatus::Healthy {
            self.since[i] = tick;
        }
        self.status[i] = VehicleStatus::Lost;
        self.health[i] = 0.0;
        self.flagged[i] = false;
    }

    /// Restores vehicle `i` to full service after a verified repair.
    pub fn restore(&mut self, i: usize) {
        self.status[i] = VehicleStatus::Healthy;
        self.health[i] = 1.0;
        self.flagged[i] = false;
    }

    /// Answers one alert vehicle `i` raised on `layer` at `tick`: one
    /// more strike, the playbook's action for that strike, and the
    /// action applied back to the vehicle (filter/rekey relief,
    /// isolation, limp-home). The alert and the response are counted
    /// in `totals`.
    pub(crate) fn respond(
        &mut self,
        i: usize,
        layer: ArchLayer,
        tick: u64,
        totals: &mut FleetTotals,
    ) {
        self.strikes[i] = self.strikes[i].saturating_add(1);
        let action = ResponseEngine::playbook(detector_for(layer), u32::from(self.strikes[i]));
        totals.alerts += 1;
        match action {
            ResponseAction::Notify => totals.responses_notify += 1,
            ResponseAction::FilterId | ResponseAction::Rekey => {
                if action == ResponseAction::FilterId {
                    totals.responses_filter += 1;
                } else {
                    totals.responses_rekey += 1;
                }
                // Filter/rekey relieve fault degradation; they cannot
                // evict an attacker (escalation handles that).
                if self.status[i] == VehicleStatus::Degraded {
                    self.health[i] = 1.0 - (1.0 - self.health[i]) * (1.0 - CONTAINMENT_RELIEF);
                }
            }
            ResponseAction::IsolateNode | ResponseAction::LimpHome => {
                let health = if action == ResponseAction::IsolateNode {
                    totals.responses_isolate += 1;
                    ISOLATED_HEALTH
                } else {
                    totals.responses_limp_home += 1;
                    LIMP_HOME_HEALTH
                };
                if matches!(
                    self.status[i],
                    VehicleStatus::Healthy | VehicleStatus::Degraded | VehicleStatus::Compromised
                ) {
                    if self.status[i] == VehicleStatus::Healthy {
                        // Isolating a healthy vehicle (false-positive
                        // escalation) still opens an incident window.
                        self.since[i] = tick;
                    }
                    self.status[i] = VehicleStatus::Isolated;
                    self.health[i] = health;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;

    #[test]
    fn vehicles_draw_decorrelated_streams() {
        let base = SimRng::seed(1).fork("fleet/vehicles");
        let state = FleetState::new(2, &base);
        let a = state.rng.get(0).next_u64();
        let b = state.rng.get(1).next_u64();
        assert_ne!(a, b);
        // Rebuilding the fleet replays vehicle 0's stream exactly.
        let again = FleetState::new(2, &base);
        assert_eq!(again.rng.get(0).next_u64(), a);
    }

    #[test]
    fn lifecycle_transitions() {
        let base = SimRng::seed(2).fork("fleet/vehicles");
        let mut state = FleetState::new(5, &base);
        let mut cols = state.shard_views(5).remove(0);
        assert!(cols.alive(3));
        cols.compromise(3, 7, ArchLayer::Collaboration);
        assert_eq!(cols.status[3], VehicleStatus::Compromised);
        assert_eq!(cols.since[3], 7);
        assert_eq!(cols.health[3], COMPROMISED_HEALTH);
        cols.restore(3);
        assert_eq!(cols.status[3], VehicleStatus::Healthy);
        assert_eq!(cols.health[3], 1.0);
        cols.quarantine(3, 9);
        assert!(!cols.alive(3));
        assert_eq!(cols.health[3], 0.0);
        // Compromising a degraded vehicle restarts the incident clock:
        // the compromise is the incident that containment must resolve.
        cols.status[4] = VehicleStatus::Degraded;
        cols.health[4] = 0.8;
        cols.since[4] = 2;
        cols.compromise(4, 5, ArchLayer::Network);
        assert_eq!(cols.since[4], 5, "degraded->compromised restarts the clock");
    }

    #[test]
    fn shard_views_tile_the_fleet_contiguously() {
        let base = SimRng::seed(3).fork("fleet/vehicles");
        let mut state = FleetState::new(10, &base);
        let views = state.shard_views(4);
        assert_eq!(views.len(), 3, "10 vehicles in chunks of 4");
        let sizes: Vec<usize> = views.iter().map(FleetColumns::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        let ids: Vec<u32> = views
            .iter()
            .flat_map(|v| (0..v.len()).map(|i| v.id(i)).collect::<Vec<_>>())
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shard_views_write_through_to_the_fleet() {
        let base = SimRng::seed(4).fork("fleet/vehicles");
        let mut state = FleetState::new(6, &base);
        {
            let mut views = state.shard_views(3);
            views[1].compromise(0, 2, ArchLayer::Data);
        }
        assert_eq!(state.status[3], VehicleStatus::Compromised);
        assert_eq!(state.incident_layer[3], ArchLayer::Data);
    }
}
