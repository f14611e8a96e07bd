//! Breach-cascade analysis (§VI-B): Monte-Carlo propagation of a
//! compromise through the coupling graph.
//!
//! Edge traversal succeeds with probability
//! `strength * min(target.susceptibility(), cap) / cap_norm` — i.e.
//! third-party, legacy and ownerless targets are easier to pivot into,
//! exactly the §VI-B vulnerability factors.

use std::collections::VecDeque;

use autosec_sim::SimRng;

use crate::model::{NodeId, SosGraph};

/// Result of a cascade study.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeReport {
    /// Entry node.
    pub entry: NodeId,
    /// Per-node compromise probability (index = NodeId.0).
    pub compromise_probability: Vec<f64>,
    /// Expected number of compromised nodes.
    pub expected_compromised: f64,
    /// Probability that at least one L3 safety function
    /// (braking/steering/act) is reached.
    pub safety_reach_probability: f64,
}

/// Compromise mask of one Monte-Carlo cascade from `entry`.
///
/// One trial = one BFS with randomized edge traversal. Trials are
/// independent, so a sweep can run them on any RNG streams it likes
/// (e.g. one [`SimRng::fork_idx`] stream per trial in a parallel run)
/// and fold the masks into a [`CascadeAccumulator`].
///
/// # Panics
///
/// Panics if `entry` is out of range.
pub fn cascade_trial(graph: &SosGraph, entry: NodeId, rng: &mut SimRng) -> Vec<bool> {
    assert!(graph.node(entry).is_some(), "entry node out of range");
    let mut compromised = vec![false; graph.len()];
    compromised[entry.0] = true;
    let mut queue = VecDeque::from([entry]);
    while let Some(cur) = queue.pop_front() {
        for e in graph.edges().iter().filter(|e| e.from == cur) {
            if compromised[e.to.0] {
                continue;
            }
            let target = graph.node(e.to).expect("edge target exists");
            // Susceptibility in [1, 4.5] rescaled to a multiplier in
            // (0, 1]: p = strength * susceptibility / 4.5 capped at
            // strength itself for clean nodes? No — normalize so a
            // clean node traverses at strength/2 and the worst node
            // at strength.
            let p = e.strength * (0.5 + 0.5 * (target.susceptibility() - 1.0) / 3.5);
            if rng.chance(p.min(1.0)) {
                compromised[e.to.0] = true;
                queue.push_back(e.to);
            }
        }
    }
    compromised
}

/// Per-node hit counts over many cascade trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeAccumulator {
    safety: Vec<NodeId>,
    hits: Vec<usize>,
    safety_hits: usize,
    trials: usize,
}

impl CascadeAccumulator {
    /// An empty accumulator for `graph` (resolves the safety-function
    /// node set once).
    pub fn new(graph: &SosGraph) -> Self {
        Self {
            safety: ["braking", "steering", "act"]
                .iter()
                .filter_map(|s| graph.find(s))
                .collect(),
            hits: vec![0; graph.len()],
            safety_hits: 0,
            trials: 0,
        }
    }

    /// Folds one trial's compromise mask in.
    pub fn add(&mut self, compromised: &[bool]) {
        assert_eq!(compromised.len(), self.hits.len(), "graph size mismatch");
        for (h, &c) in self.hits.iter_mut().zip(compromised) {
            *h += usize::from(c);
        }
        if self.safety.iter().any(|s| compromised[s.0]) {
            self.safety_hits += 1;
        }
        self.trials += 1;
    }

    /// Finalizes into a report.
    ///
    /// # Panics
    ///
    /// Panics if no trial was folded in.
    pub fn report(&self, entry: NodeId) -> CascadeReport {
        assert!(self.trials > 0, "need at least one trial");
        let compromise_probability: Vec<f64> = self
            .hits
            .iter()
            .map(|&h| h as f64 / self.trials as f64)
            .collect();
        CascadeReport {
            entry,
            expected_compromised: compromise_probability.iter().sum(),
            safety_reach_probability: self.safety_hits as f64 / self.trials as f64,
            compromise_probability,
        }
    }
}

/// Runs `trials` Monte-Carlo cascades from `entry`, trial `i` on
/// `base.fork_idx(i)`, one after another: the serial reference for the
/// parallel folds a sweep runs (E10 folds the same trials through
/// `par_trials`).
///
/// # Panics
///
/// Panics if `entry` is out of range or `trials` is zero.
#[cfg(test)]
fn simulate(graph: &SosGraph, entry: NodeId, trials: usize, base: &SimRng) -> CascadeReport {
    assert!(trials > 0, "need at least one trial");
    let mut acc = CascadeAccumulator::new(graph);
    for i in 0..trials {
        acc.add(&cascade_trial(graph, entry, &mut base.fork_idx(i as u64)));
    }
    acc.report(entry)
}

/// Uniformly rescales every coupling strength (used by the E10 sweep:
/// cascade risk versus coupling).
pub fn with_coupling_scale(graph: &SosGraph, scale: f64) -> SosGraph {
    let mut out = SosGraph::new();
    for (_, node) in graph.nodes() {
        out.add_node(node.clone());
    }
    for e in graph.edges() {
        out.couple(e.from, e.to, (e.strength * scale).clamp(0.0, 1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::maas_reference;

    #[test]
    fn entry_node_is_always_compromised() {
        let g = maas_reference();
        let entry = g.find("maas-platform").unwrap();
        let r = simulate(&g, entry, 200, &SimRng::seed(1));
        assert_eq!(r.compromise_probability[entry.0], 1.0);
        assert!(r.expected_compromised >= 1.0);
    }

    #[test]
    fn cascade_reaches_safety_functions_from_the_platform() {
        // The paper's core SoS worry: an entry at the *service* level can
        // propagate down to braking/steering.
        let g = maas_reference();
        let entry = g.find("maas-platform").unwrap();
        let r = simulate(&g, entry, 2000, &SimRng::seed(2));
        assert!(
            r.safety_reach_probability > 0.0,
            "cascades must be able to reach safety functions"
        );
        assert!(
            r.safety_reach_probability < 0.5,
            "but it takes a multi-hop chain ({})",
            r.safety_reach_probability
        );
    }

    #[test]
    fn closer_entry_means_higher_safety_risk() {
        let g = maas_reference();
        let base = SimRng::seed(3);
        let far = simulate(&g, g.find("maas-platform").unwrap(), 2000, &base);
        let near = simulate(&g, g.find("vehicle-os").unwrap(), 2000, &base);
        assert!(near.safety_reach_probability > far.safety_reach_probability);
    }

    #[test]
    fn coupling_scale_monotonically_increases_risk() {
        let g = maas_reference();
        let entry = g.find("cloud-backend").unwrap();
        let mut prev = -1.0;
        for scale in [0.5, 1.0, 1.5, 2.0] {
            let scaled = with_coupling_scale(&g, scale);
            let r = simulate(&scaled, entry, 1500, &SimRng::seed(4));
            assert!(
                r.expected_compromised >= prev,
                "scale {scale}: {} < {prev}",
                r.expected_compromised
            );
            prev = r.expected_compromised;
        }
    }

    #[test]
    fn zero_coupling_confines_the_breach() {
        let g = with_coupling_scale(&maas_reference(), 0.0);
        let entry = g.find("cloud-backend").unwrap();
        let r = simulate(&g, entry, 300, &SimRng::seed(5));
        assert_eq!(r.expected_compromised, 1.0);
        assert_eq!(r.safety_reach_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "entry node out of range")]
    fn bad_entry_panics() {
        let g = maas_reference();
        let _ = simulate(&g, NodeId(999), 10, &SimRng::seed(6));
    }
}
