//! The Fig. 3 zonal IVN: endpoints on CAN / CAN FD / CAN XL / 10BASE-T1S
//! segments, zonal controllers bridging to a point-to-point Ethernet
//! backbone, and a central computing unit.
//!
//! [`ZonalNetwork::simulate`] drives periodic endpoint→central-compute
//! traffic through the segment simulators and accumulates end-to-end
//! latency and utilisation — the numbers behind experiment E3.

use autosec_sim::{SimDuration, SimTime, Summary};

use crate::bus::CanBus;
use crate::can::{CanFdFrame, CanFrame, CanId, CanXlFrame};
use crate::ethernet::{EthLink, Switch};
use crate::t1s::T1sSegment;
use crate::IvnError;

/// Physical attachment of an endpoint to its zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointLink {
    /// Classic CAN at 500 kbit/s.
    Can,
    /// CAN FD, 500 kbit/s arbitration + 2 Mbit/s data.
    CanFd,
    /// CAN XL, 500 kbit/s arbitration + 10 Mbit/s data.
    CanXl,
    /// 10BASE-T1S multidrop Ethernet.
    T1s,
}

impl EndpointLink {
    /// Maximum single-frame payload on this link.
    pub fn max_frame_payload(self) -> usize {
        match self {
            EndpointLink::Can => 8,
            EndpointLink::CanFd => 64,
            EndpointLink::CanXl => 2048,
            EndpointLink::T1s => 1500,
        }
    }
}

/// An ECU attached to a zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Human-readable name (e.g. `"brake-ecu"`).
    pub name: String,
    /// Zone index this endpoint lives in.
    pub zone: usize,
    /// Link technology.
    pub link: EndpointLink,
}

/// Identifier of an endpoint inside a [`ZonalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub usize);

/// A periodic endpoint → central-compute flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Source endpoint.
    pub endpoint: EndpointId,
    /// Message period.
    pub period: SimDuration,
    /// Message payload in bytes.
    pub payload: usize,
    /// CAN priority id used on CAN-family segments.
    pub can_id: u16,
}

/// Per-flow simulation results.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Source endpoint.
    pub endpoint: EndpointId,
    /// End-to-end latency summary (microseconds).
    pub latency_us: Summary,
    /// Messages delivered.
    pub delivered: usize,
}

/// Whole-network simulation report.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Per-flow results, in `TrafficSpec` order.
    pub flows: Vec<FlowResult>,
    /// Per-zone segment utilisation (0..1).
    pub zone_utilisation: Vec<f64>,
}

/// The zonal network of Fig. 3.
///
/// # Example
///
/// ```
/// use autosec_ivn::topology::{EndpointLink, ZonalNetwork};
/// let mut net = ZonalNetwork::new(2);
/// let brake = net.add_endpoint("brake", 0, EndpointLink::Can).unwrap();
/// assert_eq!(net.endpoint(brake).unwrap().name, "brake");
/// ```
#[derive(Debug, Clone)]
pub struct ZonalNetwork {
    zone_count: usize,
    endpoints: Vec<Endpoint>,
    backbone: EthLink,
    switch: Switch,
}

impl ZonalNetwork {
    /// Creates a network with `zone_count` zonal controllers connected to
    /// the central computing unit over 1000BASE-T1.
    pub fn new(zone_count: usize) -> Self {
        Self {
            zone_count,
            endpoints: Vec::new(),
            backbone: EthLink::base_t1_1000(4.0),
            switch: Switch::default(),
        }
    }

    /// Adds an endpoint to `zone`.
    ///
    /// # Errors
    ///
    /// [`IvnError::UnknownNode`] if the zone index is out of range.
    pub fn add_endpoint(
        &mut self,
        name: &str,
        zone: usize,
        link: EndpointLink,
    ) -> Result<EndpointId, IvnError> {
        if zone >= self.zone_count {
            return Err(IvnError::UnknownNode);
        }
        self.endpoints.push(Endpoint {
            name: name.to_owned(),
            zone,
            link,
        });
        Ok(EndpointId(self.endpoints.len() - 1))
    }

    /// Looks up an endpoint.
    pub fn endpoint(&self, id: EndpointId) -> Option<&Endpoint> {
        self.endpoints.get(id.0)
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zone_count
    }

    /// Endpoints in a zone with the given link family.
    fn zone_members(&self, zone: usize, link: EndpointLink) -> Vec<EndpointId> {
        self.endpoints
            .iter()
            .enumerate()
            .filter(|(_, e)| e.zone == zone && e.link == link)
            .map(|(i, _)| EndpointId(i))
            .collect()
    }

    /// Number of frames a message of `payload` bytes needs on `link`.
    pub fn frames_needed(link: EndpointLink, payload: usize) -> usize {
        payload.div_ceil(link.max_frame_payload()).max(1)
    }

    /// Simulates `specs` for `horizon`, returning latency and utilisation.
    ///
    /// Segment access (arbitration / PLCA) is simulated; the backbone hop
    /// (zonal switch + Ethernet to the central computing unit) is
    /// analytic, since point-to-point full-duplex links have no
    /// contention at these loads.
    ///
    /// # Panics
    ///
    /// Panics if a spec references an unknown endpoint.
    #[allow(clippy::needless_range_loop)] // zone indexes two parallel structures
    pub fn simulate(&self, specs: &[TrafficSpec], horizon: SimTime) -> NetworkReport {
        let mut flow_lat: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut zone_util = vec![0.0; self.zone_count];

        for zone in 0..self.zone_count {
            // --- CAN-family segments (one shared bus per family). ---
            for family in [EndpointLink::Can, EndpointLink::CanFd, EndpointLink::CanXl] {
                let members = self.zone_members(zone, family);
                if members.is_empty() {
                    continue;
                }
                let mut bus = CanBus::new(500_000);
                let nodes: Vec<_> = members.iter().map(|m| bus.add_node(m.0 as f64)).collect();
                // Map each spec on this segment to its node.
                let mut spec_of_node = vec![None; nodes.len()];
                for (si, spec) in specs.iter().enumerate() {
                    if let Some(pos) = members.iter().position(|m| *m == spec.endpoint) {
                        spec_of_node[pos] = Some(si);
                        let mut t = SimTime::ZERO;
                        while t <= horizon {
                            // Classic bus carries a surrogate frame per
                            // message; FD/XL durations are corrected below.
                            let surrogate = CanFrame::new(
                                CanId::standard(spec.can_id).unwrap_or(CanId::Standard(0x7FF)),
                                &[0u8; 8],
                            )
                            .expect("8-byte payload");
                            bus.enqueue(nodes[pos], t, surrogate).expect("node exists");
                            t += spec.period;
                        }
                    }
                }
                let log = bus.run(horizon);
                zone_util[zone] += CanBus::utilisation(&log, horizon);
                for ev in &log {
                    let node_pos = ev.sender.0;
                    let Some(si) = spec_of_node[node_pos] else {
                        continue;
                    };
                    let spec = &specs[si];
                    // Replace the surrogate duration with the real frame
                    // timing for the actual family and payload.
                    let tx_ns = Self::message_tx_ns(family, spec.payload, spec.can_id);
                    let queue_wait = ev.started.since(ev.enqueued);
                    let segment_ns = queue_wait.as_ns_f64() + tx_ns;
                    let backbone = self.switch.forward_latency(
                        &self.backbone,
                        &self.backbone,
                        spec.payload.min(1500),
                    );
                    flow_lat[si].push((segment_ns + backbone.as_ns_f64()) / 1000.0);
                }
            }

            // --- T1S segment. ---
            let members = self.zone_members(zone, EndpointLink::T1s);
            if !members.is_empty() {
                let mut seg = T1sSegment::new(members.len());
                let mut spec_of_node = vec![None; members.len()];
                for (si, spec) in specs.iter().enumerate() {
                    if let Some(pos) = members.iter().position(|m| *m == spec.endpoint) {
                        spec_of_node[pos] = Some(si);
                        let mut t = SimTime::ZERO;
                        while t <= horizon {
                            seg.enqueue(pos, t, spec.payload.min(1500))
                                .expect("valid node and payload");
                            t += spec.period;
                        }
                    }
                }
                let log = seg.run(horizon);
                let busy: f64 = log
                    .iter()
                    .map(|d| T1sSegment::frame_time(d.payload_len).as_ps() as f64)
                    .sum();
                zone_util[zone] += busy / horizon.as_ps() as f64;
                for d in &log {
                    let Some(si) = spec_of_node[d.sender] else {
                        continue;
                    };
                    let spec = &specs[si];
                    let backbone = self.switch.forward_latency(
                        &self.backbone,
                        &self.backbone,
                        spec.payload.min(1500),
                    );
                    flow_lat[si].push((d.latency().as_ns_f64() + backbone.as_ns_f64()) / 1000.0);
                }
            }
        }

        NetworkReport {
            flows: specs
                .iter()
                .enumerate()
                .map(|(i, s)| FlowResult {
                    endpoint: s.endpoint,
                    latency_us: Summary::of(&flow_lat[i]),
                    delivered: flow_lat[i].len(),
                })
                .collect(),
            zone_utilisation: zone_util,
        }
    }

    /// Pure transmission time (ns) of a `payload`-byte message on a link
    /// family, accounting for multi-frame segmentation on classic CAN.
    pub fn message_tx_ns(family: EndpointLink, payload: usize, can_id: u16) -> f64 {
        let id = CanId::standard(can_id.min(0x7FF)).expect("clamped id");
        match family {
            EndpointLink::Can => {
                let frames = payload.div_ceil(8).max(1);
                let last = payload - (frames - 1) * 8;
                let full = CanFrame::new(id, &[0u8; 8]).expect("8 bytes");
                let tail = CanFrame::new(id, &vec![0u8; last.min(8)]).expect("<=8 bytes");
                (frames - 1) as f64 * full.duration_ns(500_000) + tail.duration_ns(500_000)
            }
            EndpointLink::CanFd => {
                let frames = payload.div_ceil(64).max(1);
                let last = payload - (frames - 1) * 64;
                let full = CanFdFrame::new(id, &[0u8; 64]).expect("64 bytes");
                let tail = CanFdFrame::new(id, &vec![0u8; last.min(64)]).expect("<=64 bytes");
                (frames - 1) as f64 * full.duration_ns(500_000, 2_000_000)
                    + tail.duration_ns(500_000, 2_000_000)
            }
            EndpointLink::CanXl => {
                let frames = payload.div_ceil(2048).max(1);
                let last = payload - (frames - 1) * 2048;
                let full =
                    CanXlFrame::new(can_id.min(0x7FF), 0, 0, 0, &[0u8; 2048]).expect("2048 bytes");
                let tail =
                    CanXlFrame::new(can_id.min(0x7FF), 0, 0, 0, &vec![0u8; last.clamp(1, 2048)])
                        .expect("1..=2048 bytes");
                (frames - 1) as f64 * full.duration_ns(500_000, 10_000_000)
                    + tail.duration_ns(500_000, 10_000_000)
            }
            EndpointLink::T1s => T1sSegment::frame_time(payload.min(1500)).as_ns_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> (ZonalNetwork, EndpointId, EndpointId, EndpointId) {
        let mut net = ZonalNetwork::new(2);
        let a = net.add_endpoint("brake", 0, EndpointLink::Can).unwrap();
        let b = net.add_endpoint("camera", 0, EndpointLink::T1s).unwrap();
        let c = net.add_endpoint("radar", 1, EndpointLink::CanFd).unwrap();
        (net, a, b, c)
    }

    #[test]
    fn build_and_lookup() {
        let (net, a, _, _) = small_net();
        assert_eq!(net.endpoint(a).unwrap().name, "brake");
        assert_eq!(net.zone_count(), 2);
        assert!(net.endpoint(EndpointId(99)).is_none());
    }

    #[test]
    fn zone_bounds_checked() {
        let mut net = ZonalNetwork::new(1);
        assert_eq!(
            net.add_endpoint("x", 3, EndpointLink::Can).unwrap_err(),
            IvnError::UnknownNode
        );
    }

    #[test]
    fn simulation_delivers_periodic_messages() {
        let (net, a, b, c) = small_net();
        let specs = [
            TrafficSpec {
                endpoint: a,
                period: SimDuration::from_ms(10),
                payload: 8,
                can_id: 0x100,
            },
            TrafficSpec {
                endpoint: b,
                period: SimDuration::from_ms(20),
                payload: 400,
                can_id: 0,
            },
            TrafficSpec {
                endpoint: c,
                period: SimDuration::from_ms(10),
                payload: 48,
                can_id: 0x200,
            },
        ];
        let report = net.simulate(&specs, SimTime::from_ms(200));
        assert_eq!(report.flows.len(), 3);
        for f in &report.flows {
            assert!(
                f.delivered >= 10,
                "{:?} delivered {}",
                f.endpoint,
                f.delivered
            );
            assert!(f.latency_us.mean > 0.0);
        }
        // CAN message ≈ 230 us + backbone; T1S 400 B ≈ 350 us.
        assert!(report.flows[0].latency_us.mean < 500.0);
    }

    #[test]
    fn utilisation_positive_when_loaded() {
        let (net, a, _, _) = small_net();
        let specs = [TrafficSpec {
            endpoint: a,
            period: SimDuration::from_ms(1),
            payload: 8,
            can_id: 0x100,
        }];
        let report = net.simulate(&specs, SimTime::from_ms(100));
        assert!(report.zone_utilisation[0] > 0.1);
        assert_eq!(report.zone_utilisation[1], 0.0);
    }

    #[test]
    fn xl_moves_big_payloads_faster_than_fd() {
        let xl = ZonalNetwork::message_tx_ns(EndpointLink::CanXl, 1024, 0x50);
        let fd = ZonalNetwork::message_tx_ns(EndpointLink::CanFd, 1024, 0x50);
        let can = ZonalNetwork::message_tx_ns(EndpointLink::Can, 1024, 0x50);
        assert!(xl < fd && fd < can, "xl={xl} fd={fd} can={can}");
    }

    #[test]
    fn frames_needed_segmentation() {
        assert_eq!(ZonalNetwork::frames_needed(EndpointLink::Can, 8), 1);
        assert_eq!(ZonalNetwork::frames_needed(EndpointLink::Can, 9), 2);
        assert_eq!(ZonalNetwork::frames_needed(EndpointLink::CanFd, 65), 2);
        assert_eq!(ZonalNetwork::frames_needed(EndpointLink::CanXl, 2048), 1);
        assert_eq!(ZonalNetwork::frames_needed(EndpointLink::Can, 0), 1);
    }
}
