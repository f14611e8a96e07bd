//! E11 / E12: intersection competition and collaborative-perception
//! misbehaviour detection (§VII).

use autosec_collab::attacks::{FabricationStrategy, InternalFabricator};
use autosec_collab::intersection::{round_outcome, Agent, IntersectionAccumulator};
use autosec_collab::misbehavior::{MisbehaviorConfig, MisbehaviorDetector};
use autosec_collab::perception::perception_round;
use autosec_collab::world::{Point, SensorModel, VehicleId, World};
use autosec_runner::{par_trials, RunCtx};
use autosec_sim::SimRng;

use crate::Table;

/// E11 table: intersection outcomes versus self-interest.
///
/// Each row plays 20 000 protocol rounds through [`par_trials`]:
/// round `i` on the `fork_idx(i)` stream, outcomes folded into an
/// [`IntersectionAccumulator`] in round order — identical for any
/// `ctx.jobs`.
pub fn e11_competition_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E11",
        "§VII-A — intersection competition vs self-interest",
        &[
            "self-interest",
            "throughput",
            "conflicts",
            "deadlocks",
            "selfish gain",
        ],
    );
    for p in [0.0, 0.1, 0.2, 0.3, 0.5, 0.8] {
        // One selfish agent among cooperatives.
        let mut agents = [Agent::cooperative(); 4];
        agents[0] = Agent::selfish(p);
        let base = ctx.rng("e11-competition").fork(&format!("{p:.1}"));
        let mut acc = IntersectionAccumulator::new();
        for outcome in par_trials(ctx.jobs, ctx.trials(20_000), &base, |round, mut rng| {
            round_outcome(&agents, round, &mut rng)
        }) {
            acc.add(outcome);
        }
        let r = acc.report(&agents);
        t.push_row(vec![
            format!("{p:.1}"),
            format!("{:.2}", r.throughput),
            format!("{:.1}%", r.conflict_rate * 100.0),
            format!("{:.1}%", r.deadlock_rate * 100.0),
            format!("{:+.0}", r.selfish_advantage),
        ]);
    }
    t
}

/// A world with `n` honest observers around the target area.
fn observer_world(n: usize) -> World {
    let mut vehicles = vec![Point { x: 0.0, y: 0.0 }]; // attacker
    for i in 0..n {
        let angle = i as f64 / n.max(1) as f64 * std::f64::consts::TAU;
        vehicles.push(Point {
            x: 15.0 + 25.0 * angle.cos(),
            y: 15.0 + 25.0 * angle.sin(),
        });
    }
    World::new(vehicles, vec![Point { x: 15.0, y: 15.0 }])
}

/// Ghost detection rate with `n_observers` honest witnesses.
///
/// Rounds are independent (a fresh detector per round measures
/// single-shot detection), so round `i` runs on `base.fork_idx(i)`
/// under [`par_trials`] — the rate is identical for any `jobs`.
pub fn ghost_detection_rate(n_observers: usize, rounds: u64, base: &SimRng, jobs: usize) -> f64 {
    let world = observer_world(n_observers);
    let sensor = SensorModel {
        miss_rate: 0.02,
        noise_m: 0.3,
        range_m: 60.0,
    };
    let attacker = InternalFabricator {
        vehicle: VehicleId(0),
        strategy: FabricationStrategy::GhostObject {
            at: Point { x: 25.0, y: 5.0 },
        },
    };
    let key = b"bench key";
    let detected = par_trials(jobs, rounds as usize, base, |round, mut rng| {
        // Fresh detector per round: measures single-shot detection.
        let round = round as u64;
        let mut det = MisbehaviorDetector::new(MisbehaviorConfig::default());
        let mut msgs = perception_round(&world, &sensor, key, round, &mut rng);
        let honest = msgs[0].detections.clone();
        msgs[0] = attacker.emit(&world, honest, key, round, &mut rng);
        let flags = det.process_round(&world, &sensor, key, &msgs);
        flags.iter().any(|f| f.claimant == VehicleId(0))
    })
    .into_iter()
    .filter(|&d| d)
    .count();
    detected as f64 / rounds as f64
}

/// False-positive rate with honest traffic only.
pub fn honest_false_positive_rate(
    n_observers: usize,
    rounds: u64,
    base: &SimRng,
    jobs: usize,
) -> f64 {
    let world = observer_world(n_observers);
    let sensor = SensorModel {
        miss_rate: 0.02,
        noise_m: 0.3,
        range_m: 60.0,
    };
    let key = b"bench key";
    let flagged = par_trials(jobs, rounds as usize, base, |round, mut rng| {
        let mut det = MisbehaviorDetector::new(MisbehaviorConfig::default());
        let msgs = perception_round(&world, &sensor, key, round as u64, &mut rng);
        !det.process_round(&world, &sensor, key, &msgs).is_empty()
    })
    .into_iter()
    .filter(|&d| d)
    .count();
    flagged as f64 / rounds as f64
}

/// Object-removal impact: probability that the real object *disappears*
/// from the fused view when the attacker omits it (§VII-B's stealthier
/// fabrication — redundancy keeps the object alive).
pub fn removal_loss_rate(n_observers: usize, rounds: u64, base: &SimRng, jobs: usize) -> f64 {
    let world = observer_world(n_observers);
    let sensor = SensorModel {
        miss_rate: 0.05,
        noise_m: 0.3,
        range_m: 60.0,
    };
    let attacker = InternalFabricator {
        vehicle: VehicleId(0),
        strategy: FabricationStrategy::ObjectRemoval,
    };
    let key = b"bench key";
    let target = Point { x: 15.0, y: 15.0 };
    let lost = par_trials(jobs, rounds as usize, base, |round, mut rng| {
        let round = round as u64;
        let mut msgs = perception_round(&world, &sensor, key, round, &mut rng);
        let honest = msgs[0].detections.clone();
        msgs[0] = attacker.emit(&world, honest, key, round, &mut rng);
        let fused = autosec_collab::perception::fuse(&msgs, 3.0);
        !fused.iter().any(|f| f.position.dist(&target) < 3.0)
    })
    .into_iter()
    .filter(|&l| l)
    .count();
    lost as f64 / rounds as f64
}

/// E12 removal table.
pub fn e12_removal_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E12",
        "§VII-B — object-removal attack: target lost from fused view",
        &["honest observers", "object lost"],
    );
    for n in [0usize, 1, 2, 4] {
        let base = ctx.rng("e12-removal").fork(&n.to_string());
        let loss = removal_loss_rate(n, ctx.trials(100) as u64, &base, ctx.jobs);
        t.push_row(vec![n.to_string(), format!("{:.0}%", loss * 100.0)]);
    }
    t
}

/// E12 table: detection vs redundancy.
pub fn e12_misbehavior_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E12",
        "§VII-B — internal fabrication vs redundancy (ghost object)",
        &["honest observers", "ghost detected", "false positives"],
    );
    for n in [0usize, 1, 2, 3, 5, 8] {
        let det_base = ctx.rng("e12-ghost").fork(&n.to_string());
        let fp_base = ctx.rng("e12-false-positive").fork(&n.to_string());
        let det = ghost_detection_rate(n, ctx.trials(100) as u64, &det_base, ctx.jobs);
        let fp = honest_false_positive_rate(n, ctx.trials(100) as u64, &fp_base, ctx.jobs);
        t.push_row(vec![
            n.to_string(),
            format!("{:.0}%", det * 100.0),
            format!("{:.0}%", fp * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_needs_redundancy() {
        // Zero observers: undetectable (the paper's hard case).
        assert_eq!(ghost_detection_rate(0, 30, &SimRng::seed(1), 1), 0.0);
        // Several observers: reliably detected.
        assert!(ghost_detection_rate(4, 30, &SimRng::seed(1), 1) > 0.9);
    }

    #[test]
    fn false_positives_stay_low() {
        assert!(honest_false_positive_rate(4, 30, &SimRng::seed(2), 1) < 0.15);
    }

    #[test]
    fn removal_needs_redundancy_too() {
        // Lone attacker as only observer: object vanishes every time.
        assert!(removal_loss_rate(0, 30, &SimRng::seed(3), 1) > 0.95);
        // Any honest observer keeps the object alive (minus sensor
        // misses).
        assert!(removal_loss_rate(2, 30, &SimRng::seed(3), 1) < 0.1);
    }

    #[test]
    fn competition_table_shape() {
        let t = e11_competition_table(&RunCtx::default());
        assert_eq!(t.rows.len(), 6);
        // Selfish gain at p=0 is ~0; at p=0.5 it is large.
        let gain0: f64 = t.rows[0][4].parse().expect("number");
        let gain5: f64 = t.rows[4][4].parse().expect("number");
        assert!(gain5 > gain0 + 100.0, "{gain0} vs {gain5}");
    }
}
