//! E10: system-of-systems cascade risk and real-time DoS (Fig. 9, §VI).

use autosec_runner::{par_trials, RunCtx};
use autosec_sim::SimRng;
use autosec_sos::cascade::{cascade_trial, with_coupling_scale, CascadeAccumulator, CascadeReport};
use autosec_sos::model::{NodeId, SosGraph, SystemLevel};
use autosec_sos::realtime::RealtimeLink;
use autosec_sos::reference::maas_reference;

use crate::Table;

/// E10 main table: cascade risk per entry point and coupling scale.
///
/// Each cell folds 2000 [`cascade_trial`] masks into a
/// [`CascadeAccumulator`] via [`par_trials`] — trial `i` on the
/// `fork_idx(i)` stream, merged in trial order, so the table is
/// identical for any `ctx.jobs`.
pub fn e10_cascade_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E10",
        "Fig. 9 — breach cascades in the MaaS system of systems",
        &[
            "entry point",
            "coupling",
            "E[compromised]",
            "P[reach safety fn]",
        ],
    );
    let base = maas_reference();
    for entry_name in [
        "maas-platform",
        "cloud-backend",
        "passenger-os",
        "vehicle-os",
    ] {
        for scale in [0.5, 1.0, 1.5] {
            let g = with_coupling_scale(&base, scale);
            let entry = g.find(entry_name).expect("reference node");
            let trial_base = ctx
                .rng("e10-cascade")
                .fork(entry_name)
                .fork(&format!("{scale:.1}"));
            let r = cascade_cell(&g, entry, ctx.trials(2000), &trial_base, ctx.jobs);
            t.push_row(vec![
                entry_name.to_owned(),
                format!("{scale:.1}x"),
                format!("{:.2}", r.expected_compromised),
                format!("{:.1}%", r.safety_reach_probability * 100.0),
            ]);
        }
    }
    t
}

/// One E10 cell: `trials` cascades from `entry` through [`par_trials`],
/// folded in trial order.
fn cascade_cell(
    g: &SosGraph,
    entry: NodeId,
    trials: usize,
    base: &SimRng,
    jobs: usize,
) -> CascadeReport {
    let mut acc = CascadeAccumulator::new(g);
    for mask in par_trials(jobs, trials, base, |_, mut rng| {
        cascade_trial(g, entry, &mut rng)
    }) {
        acc.add(&mask);
    }
    acc.report(entry)
}

/// E10 structural table: the Fig. 9 levels.
pub fn e10_structure_table() -> Table {
    let mut t = Table::new(
        "E10",
        "Fig. 9 — levels, entry points, responsibility coverage",
        &["level", "nodes", "entry points", "stakeholders"],
    );
    let g = maas_reference();
    for (level, label) in [
        (SystemLevel::L0Platform, "L0 platform"),
        (SystemLevel::L1System, "L1 systems"),
        (SystemLevel::L2Subsystem, "L2 subsystems"),
        (SystemLevel::L3Function, "L3 functions"),
    ] {
        let nodes: Vec<_> = g.nodes_at(level).collect();
        let eps: usize = nodes.iter().map(|(_, n)| n.entry_points.len()).sum();
        let stakeholders: std::collections::BTreeSet<&str> = nodes
            .iter()
            .filter_map(|(_, n)| n.stakeholder.as_deref())
            .collect();
        t.push_row(vec![
            label.to_owned(),
            nodes.len().to_string(),
            eps.to_string(),
            stakeholders.len().to_string(),
        ]);
    }
    t
}

/// E10 companion: real-time deadline misses under DoS flooding.
///
/// Each flood level's 5000 messages fan out over [`par_trials`] on a
/// level-specific substream — message `i` always draws from
/// `fork_idx(i)`, so the miss rates are identical for any `ctx.jobs`.
pub fn e10_realtime_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E10",
        "§VI-B — real-time stream under DoS flood",
        &[
            "flood msgs/s",
            "utilisation",
            "mean wait ms",
            "deadline misses",
        ],
    );
    let link = RealtimeLink::control_stream();
    let base = ctx.rng("e10-realtime");
    for attack in [0.0, 300.0, 600.0, 800.0, 880.0, 950.0] {
        let stream = base.fork(&format!("flood-{attack:.0}"));
        let msgs = ctx.trials(5000);
        let missed = par_trials(ctx.jobs, msgs, &stream, |_, mut rng| {
            link.message_misses_deadline(attack, &mut rng)
        })
        .into_iter()
        .filter(|&m| m)
        .count();
        let miss = missed as f64 / msgs as f64;
        let wait = link.expected_wait_ms(attack);
        t.push_row(vec![
            format!("{attack:.0}"),
            format!("{:.0}%", link.utilisation(attack) * 100.0),
            if wait.is_finite() {
                format!("{wait:.2}")
            } else {
                "inf".into()
            },
            format!("{:.1}%", miss * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_table_risk_grows_with_coupling() {
        let t = e10_cascade_table(&RunCtx::default());
        // Rows come in triples per entry; within each triple, expected
        // compromised must be nondecreasing.
        for chunk in t.rows.chunks(3) {
            let vals: Vec<f64> = chunk
                .iter()
                .map(|r| r[2].parse().expect("number"))
                .collect();
            assert!(
                vals[0] <= vals[1] + 0.2 && vals[1] <= vals[2] + 0.2,
                "{vals:?}"
            );
        }
    }

    #[test]
    fn cascade_cells_match_the_serial_fold() {
        // The serial reference: trial `i` on `fork_idx(i)`, folded in
        // order, as `autosec_sos`'s own tests run it.
        let base = maas_reference();
        for (entry_name, scale) in [("maas-platform", 1.5), ("vehicle-os", 0.5)] {
            let g = with_coupling_scale(&base, scale);
            let entry = g.find(entry_name).expect("reference node");
            let trial_base = SimRng::seed(10).fork(entry_name);
            let mut serial = CascadeAccumulator::new(&g);
            for i in 0..300 {
                serial.add(&cascade_trial(&g, entry, &mut trial_base.fork_idx(i)));
            }
            for jobs in [1, 2] {
                let cell = cascade_cell(&g, entry, 300, &trial_base, jobs);
                assert_eq!(cell, serial.report(entry), "{entry_name}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn structure_table_matches_fig9() {
        let t = e10_structure_table();
        assert_eq!(t.rows[0][1], "1");
        assert_eq!(t.rows[1][1], "4");
        assert_eq!(t.rows[2][1], "3");
        assert_eq!(t.rows[3][1], "6");
    }

    #[test]
    fn realtime_misses_increase() {
        let t = e10_realtime_table(&RunCtx::default());
        let first: f64 = t.rows[0][3].trim_end_matches('%').parse().expect("number");
        let last: f64 = t.rows[5][3].trim_end_matches('%').parse().expect("number");
        assert!(first < 1.0);
        assert!(last > 90.0);
    }
}
