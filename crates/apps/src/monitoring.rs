//! Resilient monitoring and control of global clouds (§III-B), with the
//! intrusion-tolerant variant (§IV-B).
//!
//! Monitoring is a fan-in of timely telemetry streams multicast to every
//! interested destination (displays, loggers, analysis engines); control is
//! a fan-out of commands that must arrive reliably. "Rather than needing to
//! connect each of many endpoints being monitored to each of several
//! destinations..., each endpoint simply connects to the overlay, joining or
//! sending to the relevant multicast groups."

use son_netsim::process::ProcessId;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::client::{ClientFlow, FlowRecv, Workload};
use son_overlay::{Destination, Fleet, FlowSpec, GroupId, LinkService, Priority};
use son_topo::NodeId;

/// The multicast group telemetry flows into.
pub const TELEMETRY_GROUP: GroupId = GroupId(100);
/// The multicast group control commands flow into.
pub const CONTROL_GROUP: GroupId = GroupId(101);

/// Ports used by the monitoring deployment.
const SENSOR_PORT: u16 = 200;
const OPERATOR_PORT: u16 = 201;
const CONTROLLER_PORT: u16 = 202;
const DEVICE_PORT: u16 = 203;

/// Telemetry flow: timely rather than fully reliable — priority messaging
/// when intrusion tolerance is required, best effort otherwise.
#[must_use]
pub fn telemetry_spec(intrusion_tolerant: bool) -> FlowSpec {
    let spec = FlowSpec::best_effort();
    if intrusion_tolerant {
        spec.with_link(LinkService::ItPriority)
            .with_priority(Priority::NORMAL)
    } else {
        spec
    }
}

/// Control flow: complete reliability, in order — IT-Reliable when
/// intrusion tolerance is required, Reliable Data Link otherwise.
#[must_use]
pub fn control_spec(intrusion_tolerant: bool) -> FlowSpec {
    if intrusion_tolerant {
        FlowSpec::reliable().with_link(LinkService::ItReliable)
    } else {
        FlowSpec::reliable()
    }
}

/// Adds a sensor client on `at`: it periodically multicasts telemetry
/// readings.
pub fn sensor(
    fleet: &mut Fleet,
    at: NodeId,
    reading_size: usize,
    interval: SimDuration,
    duration: SimDuration,
    intrusion_tolerant: bool,
) -> ProcessId {
    let count = (duration.as_secs_f64() / interval.as_secs_f64()) as u64;
    let workload = Workload::cbr(reading_size, count, interval);
    let spec = telemetry_spec(intrusion_tolerant);
    let flow = ClientFlow::new(Destination::Multicast(TELEMETRY_GROUP), spec, workload);
    // Senders need not join.
    fleet.client(at, SENSOR_PORT, vec![], vec![flow])
}

/// Adds an operator console / logger / analysis engine on `at`: it joins
/// the telemetry group to receive every reading, and the control group to
/// observe commands.
pub fn operator(fleet: &mut Fleet, at: NodeId) -> ProcessId {
    let joins = vec![TELEMETRY_GROUP, CONTROL_GROUP];
    fleet.client(at, OPERATOR_PORT, joins, vec![])
}

/// Adds a controller on `at`: it multicasts control commands that devices
/// must receive reliably.
pub fn controller(
    fleet: &mut Fleet,
    at: NodeId,
    command_size: usize,
    interval: SimDuration,
    count: u64,
    intrusion_tolerant: bool,
) -> ProcessId {
    let flow = ClientFlow {
        local_flow: 2,
        dst: Destination::Multicast(CONTROL_GROUP),
        spec: control_spec(intrusion_tolerant),
        workload: Workload::Cbr {
            size: command_size,
            interval,
            count,
            start: SimTime::from_secs(1),
        },
    };
    fleet.client(at, CONTROLLER_PORT, vec![], vec![flow])
}

/// Adds a field device on `at`: it joins the control group to receive
/// commands.
pub fn device(fleet: &mut Fleet, at: NodeId) -> ProcessId {
    fleet.client(at, DEVICE_PORT, vec![CONTROL_GROUP], vec![])
}

/// How a monitoring destination experienced one telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringReport {
    /// Readings delivered / readings sent.
    pub completeness: f64,
    /// Mean reading latency (freshness), ms.
    pub mean_freshness_ms: f64,
    /// 99th-percentile freshness, ms.
    pub p99_freshness_ms: f64,
    /// Longest interval with no reading arriving, ms (monitoring blindness).
    pub longest_blindness_ms: f64,
}

/// Scores one received telemetry stream.
///
/// # Panics
///
/// Panics if `sent` is zero.
#[must_use]
pub fn score_telemetry(recv: &FlowRecv, sent: u64) -> MonitoringReport {
    assert!(sent > 0, "no readings were sent");
    let mut latency = recv.latency_ms();
    let blindness = recv
        .arrivals
        .windows(2)
        .map(|w| w[1].0.saturating_since(w[0].0).as_millis_f64())
        .fold(0.0f64, f64::max);
    MonitoringReport {
        completeness: recv.received as f64 / sent as f64,
        mean_freshness_ms: latency.mean().unwrap_or(f64::INFINITY),
        p99_freshness_ms: latency.quantile(0.99).unwrap_or(f64::INFINITY),
        longest_blindness_ms: blindness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::builder::{chain_topology, OverlayBuilder};

    #[test]
    fn specs_select_the_right_protocols() {
        assert_eq!(telemetry_spec(false).link, LinkService::BestEffort);
        assert_eq!(telemetry_spec(true).link, LinkService::ItPriority);
        assert_eq!(control_spec(false).link, LinkService::Reliable);
        assert!(control_spec(false).ordered);
        assert_eq!(control_spec(true).link, LinkService::ItReliable);
    }

    #[test]
    fn deployment_end_to_end() {
        // Sensors at both ends of a chain, operator in the middle,
        // controller at one end, device at the other.
        let mut fleet = Fleet::new(21, None, OverlayBuilder::new(chain_topology(3, 10.0)));
        let (every, lasting) = (SimDuration::from_millis(100), SimDuration::from_secs(5));
        let s1 = sensor(&mut fleet, NodeId(0), 200, every, lasting, false);
        sensor(&mut fleet, NodeId(2), 200, every, lasting, false);
        let op = operator(&mut fleet, NodeId(1));
        let command_every = SimDuration::from_millis(500);
        controller(&mut fleet, NodeId(0), 100, command_every, 8, false);
        let dev = device(&mut fleet, NodeId(2));
        fleet.run(SimTime::from_secs(8));

        // The operator hears both sensors (two flows) and the controller.
        let op_client = fleet.client_ref(op);
        assert_eq!(op_client.recv.len(), 3, "two telemetry flows + control");
        let sent = fleet.client_ref(s1).sent(1);
        let s1_flow = op_client
            .recv
            .iter()
            .find(|(k, _)| {
                k.src.node == NodeId(0) && k.dst() == Destination::Multicast(TELEMETRY_GROUP)
            })
            .map(|(_, r)| r)
            .unwrap();
        let report = score_telemetry(s1_flow, sent);
        assert_eq!(report.completeness, 1.0);
        assert!(report.mean_freshness_ms < 15.0);

        // The device received every command.
        let dev_client = fleet.client_ref(dev);
        assert_eq!(dev_client.sole_recv().received, 8);
    }

    #[test]
    fn intrusion_tolerant_variant_survives_a_blackhole() {
        use son_overlay::adversary::Behavior;
        use son_overlay::{RoutingService, SourceRoute};

        // Diamond overlay; the relay on the cheap path blackholes data.
        let mut topo = son_topo::Graph::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 10.0);
        topo.add_edge(NodeId(1), NodeId(3), 10.0);
        topo.add_edge(NodeId(0), NodeId(2), 12.0);
        topo.add_edge(NodeId(2), NodeId(3), 12.0);
        let mut fleet = Fleet::new(22, None, OverlayBuilder::new(topo));
        fleet.node_mut(NodeId(1)).set_behavior(Behavior::Blackhole);

        // Sensor at 0, operator at 3, intrusion-tolerant telemetry over
        // constrained flooding.
        let spec = telemetry_spec(true).with_routing(RoutingService::SourceBased(
            SourceRoute::ConstrainedFlooding,
        ));
        let readings = Workload::cbr(128, 100, SimDuration::from_millis(50));
        let flow = ClientFlow::new(Destination::Multicast(TELEMETRY_GROUP), spec, readings);
        let s = fleet.client(NodeId(0), SENSOR_PORT, vec![], vec![flow]);
        let op = operator(&mut fleet, NodeId(3));
        fleet.run(SimTime::from_secs(8));
        let sent = fleet.client_ref(s).sent(1);
        let op_client = fleet.client_ref(op);
        let flow = op_client.recv.values().next().cloned().unwrap_or_default();
        let report = score_telemetry(&flow, sent);
        assert_eq!(
            report.completeness, 1.0,
            "flooding routes around the blackhole"
        );
    }

    #[test]
    fn score_telemetry_blindness() {
        let mut r = FlowRecv::default();
        for (ms, seq) in [(100u64, 1u64), (200, 2), (900, 3)] {
            r.arrivals.push((SimTime::from_millis(ms), seq));
            r.latencies_ms.push(10.0);
            r.received += 1;
        }
        let report = score_telemetry(&r, 4);
        assert!((report.completeness - 0.75).abs() < 1e-12);
        assert!((report.longest_blindness_ms - 700.0).abs() < 1e-9);
    }
}
