//! Concurrent fleet rounds: each vehicle runs on its own thread and
//! exchanges V2X messages over channels.
//!
//! The collaboration layer is inherently concurrent — every vehicle
//! senses, signs, and broadcasts independently. This module runs one
//! perception round with real threads (`std::sync::mpsc` channels as
//! the V2X medium) and deterministic per-vehicle RNG streams, so results are
//! identical to the sequential [`crate::perception::perception_round`]
//! modulo message arrival order (which the fusion step normalizes by
//! sorting on sender id).

use std::sync::mpsc;

use autosec_sim::SimRng;

use crate::perception::{fuse, verify_message, FusedObject, V2xMessage};
use crate::world::{SensorModel, World};

/// Result of a concurrent round.
#[derive(Debug, Clone)]
pub struct FleetRound {
    /// All authentic messages, sorted by sender id.
    pub messages: Vec<V2xMessage>,
    /// The fused object list computed from them.
    pub fused: Vec<FusedObject>,
    /// Messages dropped for failing authentication.
    pub rejected: usize,
}

/// Runs one collaborative-perception round with one thread per vehicle.
///
/// Every vehicle derives its RNG from `master_seed` and its own id, so
/// the round is reproducible despite thread scheduling.
///
/// # Panics
///
/// Panics if a vehicle thread panics (propagated via `join`).
pub fn concurrent_round(
    world: &World,
    sensor: &SensorModel,
    key: &[u8],
    seq: u64,
    master_seed: u64,
) -> FleetRound {
    let vehicles = world.vehicles();
    let (tx, rx) = mpsc::channel::<V2xMessage>();

    std::thread::scope(|scope| {
        for v in &vehicles {
            let v = *v;
            let tx = tx.clone();
            let world_ref = &*world;
            let sensor_ref = &*sensor;
            let key_ref = key;
            scope.spawn(move || {
                let mut rng = SimRng::seed(master_seed).fork_idx(v.0 as u64);
                let detections = world_ref.sense(v, sensor_ref, &mut rng);
                let msg = crate::perception::sign_message(key_ref, v, seq, detections);
                tx.send(msg).expect("collector outlives senders");
            });
        }
    });
    drop(tx);

    let mut messages: Vec<V2xMessage> = Vec::with_capacity(vehicles.len());
    let mut rejected = 0;
    for msg in rx.iter() {
        if verify_message(key, &msg) {
            messages.push(msg);
        } else {
            rejected += 1;
        }
    }
    // Normalize arrival order for deterministic fusion.
    messages.sort_by_key(|m| m.sender);
    let fused = fuse(&messages, 3.0);
    FleetRound {
        messages,
        fused,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Point;

    const KEY: &[u8] = b"fleet key";

    fn world() -> World {
        World::new(
            vec![
                Point { x: 0.0, y: 0.0 },
                Point { x: 30.0, y: 0.0 },
                Point { x: 0.0, y: 30.0 },
                Point { x: 30.0, y: 30.0 },
            ],
            vec![Point { x: 15.0, y: 15.0 }, Point { x: 8.0, y: 22.0 }],
        )
    }

    fn sensor() -> SensorModel {
        SensorModel {
            miss_rate: 0.0,
            noise_m: 0.3,
            range_m: 60.0,
        }
    }

    #[test]
    fn concurrent_round_is_deterministic() {
        let w = world();
        let s = sensor();
        let a = concurrent_round(&w, &s, KEY, 1, 42);
        let b = concurrent_round(&w, &s, KEY, 1, 42);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.fused, b.fused);
    }

    #[test]
    fn all_vehicles_report_and_objects_fuse() {
        let w = world();
        let round = concurrent_round(&w, &sensor(), KEY, 1, 7);
        assert_eq!(round.messages.len(), 4);
        assert_eq!(round.rejected, 0);
        assert_eq!(round.fused.len(), 2, "two real objects");
        for f in &round.fused {
            assert_eq!(f.supporters.len(), 4, "everyone sees everything here");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w = world();
        let s = sensor();
        let a = concurrent_round(&w, &s, KEY, 1, 1);
        let b = concurrent_round(&w, &s, KEY, 1, 2);
        assert_ne!(a.messages, b.messages, "noise differs per seed");
    }
}
