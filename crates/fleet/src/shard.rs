//! Sharded tick execution.
//!
//! The fleet columns are split into contiguous windows — one per shard
//! ([`FleetState::shard_views`]) — and each shard walks its vehicles
//! in order. A vehicle's step only touches its own column entries plus
//! the shard's private [`ShardOutput`], so shards never contend.
//!
//! A shard that is handed a [`SweepTable`] sweeps its window
//! ([`RngColumnMut::sweep`](autosec_sim::RngColumnMut::sweep)) block by
//! block: one pass per block makes every alive vehicle's Bernoulli
//! draws for the tick, eight vehicles at a time, picked by each
//! vehicle's class (its status and flag). A vehicle whose draws all
//! miss has its advanced stream committed and its telemetry frame
//! counted right there; that is almost every vehicle-tick. Only the
//! vehicles with a hit then step, in window order and each under
//! `catch_unwind`, before the next block is swept. Without a table (a tick
//! with a chaos draw, or [`run_tick_sharded`]) every alive vehicle
//! steps under `catch_unwind`. Either way the vehicles that step, step
//! in vehicle order, so the alerts leave the shard in the order the
//! vehicles raised them.
//!
//! Once its window has stepped, the shard answers the alerts its
//! vehicles raised (see [`run_tick_sharded`]). Escalation state is
//! each vehicle's own [`FleetColumns::strikes`] entry, so no response
//! ever reads or writes another vehicle. What a shard hands back is
//! additive (counters and the alerts it answered), so the merge
//! order never matters. That, together with per-vehicle RNG
//! substreams, is the whole shard-invariance contract: `--shards N`
//! changes wall-clock time and nothing else.
//!
//! A vehicle whose step panics is quarantined on the spot
//! ([`FleetColumns::quarantine`]) and the shard moves on — one bad
//! state machine costs the fleet one vehicle, not a shard of them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use autosec_sim::{ArchLayer, SweepTable};

use crate::snapshot::FleetTotals;
use crate::state::{FleetColumns, FleetState};

/// Vehicles per sweep block: a shard sweeps its window this many
/// vehicles at a time and steps each block's hits before it sweeps the
/// next. The class bytes and the hit list then fit fixed buffers, and a
/// block's columns are still in cache when its hits step; sweeping the
/// whole window first held ~0.5 MB more peak RSS at 200k vehicles and
/// ran slower.
const SWEEP_BLOCK: usize = 1024;

/// Everything a shard hands back to the engine's merge phase.
#[derive(Debug, Clone, Default)]
pub struct ShardOutput {
    /// Alerts raised this tick, in the order raised: the alerting
    /// vehicle's window index and the layer it alerted on. Answered
    /// once the whole window has stepped.
    pub alerts: Vec<(usize, ArchLayer)>,
    /// Vehicles whose repair verified this tick (clears escalation
    /// state after the answers).
    pub recovered: Vec<u32>,
    /// The shard's counter deltas (additive — merge order never
    /// matters).
    pub counters: FleetTotals,
}

/// Runs one tick over the fleet with `shards` worker threads, stepping
/// every alive vehicle (no sweep).
///
/// `per_vehicle` is handed the shard's columnar window and the window
/// index of the vehicle to step; it must only read/write that
/// vehicle's column entries plus the shard output — the engine upholds
/// that by construction. Once every vehicle of a window has stepped,
/// its shard answers the window's alerts in the order they were raised
/// (one more strike each, the playbook's action applied back), then
/// clears the strikes of the vehicles listed in `recovered`. Returns
/// one [`ShardOutput`] per window, in window (= vehicle) order.
///
/// Panics inside `per_vehicle` are caught per vehicle: the vehicle is
/// quarantined (status `Lost`, RNG retired) and `counters.lost` is
/// incremented, leaving the rest of the shard untouched. Alerts it
/// raised before panicking are still answered, against the `Lost`
/// vehicle: they count, but change nothing.
pub fn run_tick_sharded<F>(
    state: &mut FleetState,
    shards: usize,
    tick: u64,
    per_vehicle: F,
) -> Vec<ShardOutput>
where
    F: Fn(&mut FleetColumns<'_>, usize, &mut ShardOutput) + Sync,
{
    run_tick_swept(state, shards, tick, None, per_vehicle)
}

/// [`run_tick_sharded`], with each window swept under `sweep` first
/// (see the module docs): a calm vehicle counts its frame and never
/// reaches `per_vehicle`, which steps only the sweep's hits. The table
/// must skip both `Lost` classes, so that a quarantined vehicle neither
/// draws nor emits.
pub(crate) fn run_tick_swept<F>(
    state: &mut FleetState,
    shards: usize,
    tick: u64,
    sweep: Option<&SweepTable>,
    per_vehicle: F,
) -> Vec<ShardOutput>
where
    F: Fn(&mut FleetColumns<'_>, usize, &mut ShardOutput) + Sync,
{
    let n = state.len();
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, n);
    let chunk = n.div_ceil(shards);

    let process = |cols: &mut FleetColumns<'_>| -> ShardOutput {
        let mut out = ShardOutput::default();
        let mut step = |cols: &mut FleetColumns<'_>, i: usize| {
            let stepped = catch_unwind(AssertUnwindSafe(|| per_vehicle(cols, i, &mut out)));
            if stepped.is_err() {
                cols.quarantine(i, tick);
                out.counters.lost += 1;
            }
        };
        match sweep {
            Some(table) => {
                let (mut classes, mut hits) = ([0; SWEEP_BLOCK], Vec::with_capacity(SWEEP_BLOCK));
                let mut calm = 0;
                for start in (0..cols.len()).step_by(SWEEP_BLOCK) {
                    let end = cols.len().min(start + SWEEP_BLOCK);
                    let classes = &mut classes[..end - start];
                    cols.sweep_classes(start, classes);
                    hits.clear();
                    calm += cols
                        .rng
                        .slice_mut(start..end)
                        .sweep(classes, table, &mut hits);
                    for &i in &hits {
                        step(cols, start + i);
                    }
                }
                out.counters.telemetry_frames += calm;
            }
            None => {
                for i in 0..cols.len() {
                    if cols.alive(i) {
                        step(cols, i);
                    }
                }
            }
        }
        // Answering per window, not per vehicle, keeps the step loop
        // free of per-vehicle checks; it is the same computation, since
        // only a vehicle's own alerts touch its strikes.
        for &(i, layer) in &out.alerts {
            cols.respond(i, layer, tick, &mut out.counters);
        }
        for &id in &out.recovered {
            cols.strikes[(id - cols.id(0)) as usize] = 0;
        }
        out
    };

    let mut views = state.shard_views(chunk);
    if views.len() == 1 {
        return vec![process(&mut views[0])];
    }
    std::thread::scope(|scope| {
        let process = &process;
        let handles: Vec<_> = views
            .iter_mut()
            .map(|cols| scope.spawn(move || process(cols)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker itself never panics"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vehicle::VehicleStatus;
    use autosec_runner::silence_panics;
    use autosec_sim::SimRng;

    fn fleet(n: usize) -> FleetState {
        FleetState::new(n, &SimRng::seed(5).fork("fleet/vehicles"))
    }

    #[test]
    fn outputs_come_back_in_vehicle_order() {
        let mut f = fleet(10);
        let outs = run_tick_sharded(&mut f, 3, 1, |cols, i, out| {
            out.recovered.push(cols.id(i));
        });
        let ids: Vec<u32> = outs.into_iter().flat_map(|o| o.recovered).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn alerts_escalate_per_vehicle_and_recovery_resets_after_responding() {
        let mut f = fleet(4);
        // Vehicle 1 raises three network alerts a tick: filter, filter,
        // then the third strike isolates it.
        let raise = |cols: &mut FleetColumns<'_>, i: usize, out: &mut ShardOutput| {
            if cols.id(i) == 1 {
                out.alerts.extend([(i, ArchLayer::Network); 3]);
            }
        };
        let outs = run_tick_sharded(&mut f, 2, 1, raise);
        let t = &outs[0].counters;
        assert_eq!(
            (t.alerts, t.responses_filter, t.responses_isolate),
            (3, 2, 1)
        );
        assert_eq!(
            (f.status[1], f.since[1], f.strikes[1]),
            (VehicleStatus::Isolated, 1, 3)
        );
        // Alert, then recover in the same step: the alerts are answered
        // against the restored vehicle at strikes 4-6 (isolate, then
        // limp-home twice), and only then do the strikes reset.
        let outs = run_tick_sharded(&mut f, 2, 2, |cols, i, out| {
            raise(cols, i, out);
            if cols.id(i) == 1 {
                cols.restore(i);
                out.recovered.push(cols.id(i));
            }
        });
        let t = &outs[0].counters;
        assert_eq!((t.responses_isolate, t.responses_limp_home), (1, 2));
        assert_eq!(
            (f.status[1], f.since[1], f.strikes[1]),
            (VehicleStatus::Isolated, 2, 0)
        );
    }

    #[test]
    fn shard_count_caps_at_fleet_size() {
        let mut f = fleet(2);
        let outs = run_tick_sharded(&mut f, 64, 1, |_, _, out| {
            out.counters.telemetry_frames += 1;
        });
        assert!(outs.len() <= 2);
        let total: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn a_panicking_vehicle_does_not_poison_its_shard() {
        let _quiet = silence_panics();
        let mut f = fleet(8);
        let outs = run_tick_sharded(&mut f, 2, 3, |cols, i, out| {
            // Vehicle 2 raises its alert before it panics.
            out.alerts.push((i, ArchLayer::SoftwarePlatform));
            if cols.id(i) == 2 {
                panic!("vehicle 2 state machine corrupted");
            }
            out.counters.telemetry_frames += 1;
        });
        let merged: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
        let lost: u64 = outs.iter().map(|o| o.counters.lost).sum();
        let isolations: u64 = outs.iter().map(|o| o.counters.responses_isolate).sum();
        assert_eq!(merged, 7, "the other seven vehicles all stepped");
        assert_eq!(lost, 1);
        assert_eq!(
            isolations, 8,
            "the panicked vehicle's alert is answered too"
        );
        assert_eq!(f.strikes, vec![1; 8]);
        assert_eq!((f.status[2], f.health[2]), (VehicleStatus::Lost, 0.0));
        assert_eq!(f.since[2], 3);
        // Lost vehicles are skipped on subsequent ticks.
        let outs = run_tick_sharded(&mut f, 2, 4, |_, _, out| {
            out.counters.telemetry_frames += 1;
        });
        let merged: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
        assert_eq!(merged, 7);
    }

    #[test]
    fn empty_fleet_is_a_noop() {
        let mut f = fleet(0);
        assert!(run_tick_sharded(&mut f, 4, 1, |_, _, _| {}).is_empty());
    }
}
