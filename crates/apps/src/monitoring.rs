//! Resilient monitoring and control of global clouds (§III-B), with the
//! intrusion-tolerant variant (§IV-B).
//!
//! Monitoring is a fan-in of timely telemetry streams multicast to every
//! interested destination (displays, loggers, analysis engines); control is
//! a fan-out of commands that must arrive reliably. "Rather than needing to
//! connect each of many endpoints being monitored to each of several
//! destinations..., each endpoint simply connects to the overlay, joining or
//! sending to the relevant multicast groups."

use son_netsim::time::{SimDuration, SimTime};
use son_overlay::client::{ClientConfig, ClientFlow, FlowRecv, Workload};
use son_overlay::{Destination, FlowSpec, GroupId, LinkService, OverlayHandle, Priority};
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

/// A sensor client: periodically multicasts telemetry readings.
#[must_use]
pub fn sensor(
    overlay: &OverlayHandle,
    at: NodeId,
    reading_size: usize,
    interval: SimDuration,
    duration: SimDuration,
    intrusion_tolerant: bool,
) -> ClientConfig {
    ClientConfig {
        daemon: overlay.daemon(at),
        port: SENSOR_PORT,
        joins: vec![], // senders need not join
        flows: vec![ClientFlow {
            local_flow: 1,
            dst: Destination::Multicast(TELEMETRY_GROUP),
            spec: telemetry_spec(intrusion_tolerant),
            workload: Workload::Cbr {
                size: reading_size,
                interval,
                count: (duration.as_secs_f64() / interval.as_secs_f64()) as u64,
                start: SimTime::from_millis(500),
            },
        }],
    }
}

/// An operator console / logger / analysis engine: joins the telemetry
/// group to receive every reading, and the control group to observe
/// commands.
#[must_use]
pub fn operator(overlay: &OverlayHandle, at: NodeId) -> ClientConfig {
    ClientConfig {
        daemon: overlay.daemon(at),
        port: OPERATOR_PORT,
        joins: vec![TELEMETRY_GROUP, CONTROL_GROUP],
        flows: vec![],
    }
}

/// A controller: multicasts control commands that devices must receive
/// reliably.
#[must_use]
pub fn controller(
    overlay: &OverlayHandle,
    at: NodeId,
    command_size: usize,
    interval: SimDuration,
    count: u64,
    intrusion_tolerant: bool,
) -> ClientConfig {
    ClientConfig {
        daemon: overlay.daemon(at),
        port: CONTROLLER_PORT,
        joins: vec![],
        flows: vec![ClientFlow {
            local_flow: 2,
            dst: Destination::Multicast(CONTROL_GROUP),
            spec: control_spec(intrusion_tolerant),
            workload: Workload::Cbr {
                size: command_size,
                interval,
                count,
                start: SimTime::from_secs(1),
            },
        }],
    }
}

/// A field device: joins the control group to receive commands.
#[must_use]
pub fn device(overlay: &OverlayHandle, at: NodeId) -> ClientConfig {
    ClientConfig {
        daemon: overlay.daemon(at),
        port: DEVICE_PORT,
        joins: vec![CONTROL_GROUP],
        flows: vec![],
    }
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
    use son_netsim::sim::Simulation;
    use son_overlay::builder::{chain_topology, OverlayBuilder};
    use son_overlay::client::ClientProcess;
    use son_overlay::Wire;

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
        let mut sim: Simulation<Wire> = Simulation::new(21);
        let overlay = OverlayBuilder::new(chain_topology(3, 10.0)).build(&mut sim);
        let s1 = sensor(
            &overlay,
            NodeId(0),
            200,
            SimDuration::from_millis(100),
            SimDuration::from_secs(5),
            false,
        );
        let s2 = sensor(
            &overlay,
            NodeId(2),
            200,
            SimDuration::from_millis(100),
            SimDuration::from_secs(5),
            false,
        );
        let op = operator(&overlay, NodeId(1));
        let ctl = controller(
            &overlay,
            NodeId(0),
            100,
            SimDuration::from_millis(500),
            8,
            false,
        );
        let dev = device(&overlay, NodeId(2));
        let s1 = sim.add_process(ClientProcess::new(s1));
        let _s2 = sim.add_process(ClientProcess::new(s2));
        let op = sim.add_process(ClientProcess::new(op));
        let _ctl = sim.add_process(ClientProcess::new(ctl));
        let dev = sim.add_process(ClientProcess::new(dev));
        sim.run_until(SimTime::from_secs(8));

        // The operator hears both sensors (two flows) and the controller.
        let op_client = sim.proc_ref::<ClientProcess>(op).unwrap();
        assert_eq!(op_client.recv.len(), 3, "two telemetry flows + control");
        let sent = sim.proc_ref::<ClientProcess>(s1).unwrap().sent(1);
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
        let dev_client = sim.proc_ref::<ClientProcess>(dev).unwrap();
        assert_eq!(dev_client.sole_recv().received, 8);
    }

    #[test]
    fn intrusion_tolerant_variant_survives_a_blackhole() {
        use son_overlay::adversary::Behavior;
        use son_overlay::node::OverlayNode;
        use son_overlay::{RoutingService, SourceRoute};

        // Diamond overlay; the relay on the cheap path blackholes data.
        let mut topo = son_topo::Graph::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 10.0);
        topo.add_edge(NodeId(1), NodeId(3), 10.0);
        topo.add_edge(NodeId(0), NodeId(2), 12.0);
        topo.add_edge(NodeId(2), NodeId(3), 12.0);
        let mut sim: Simulation<Wire> = Simulation::new(22);
        let overlay = OverlayBuilder::new(topo).build(&mut sim);
        sim.proc_mut::<OverlayNode>(overlay.daemon(NodeId(1)))
            .unwrap()
            .set_behavior(Behavior::Blackhole);

        // Sensor at 0, operator at 3, intrusion-tolerant telemetry over
        // constrained flooding.
        let mut cfg = sensor(
            &overlay,
            NodeId(0),
            128,
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
            true,
        );
        cfg.flows[0].spec = cfg.flows[0].spec.with_routing(RoutingService::SourceBased(
            SourceRoute::ConstrainedFlooding,
        ));
        let s = sim.add_process(ClientProcess::new(cfg));
        let op = sim.add_process(ClientProcess::new(operator(&overlay, NodeId(3))));
        sim.run_until(SimTime::from_secs(8));
        let sent = sim.proc_ref::<ClientProcess>(s).unwrap().sent(1);
        let op_client = sim.proc_ref::<ClientProcess>(op).unwrap();
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
