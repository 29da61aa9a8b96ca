//! Watchdog integration tests: the in-daemon anomaly watchdog against live
//! adversaries, end to end through the full stack.
//!
//! The companion to `integration.rs::single_path_flow_dies_at_blackhole`:
//! there, a data-plane blackhole on the only selected path silently eats a
//! best-effort flow forever (control traffic keeps the link "up"). Here the
//! same deployment runs with `son-watch` enabled, and the forwarding-receipt
//! protocol must convict the blackhole, suspend the link, and push traffic
//! onto the node-disjoint alternative — while a healthy deployment under the
//! identical configuration must never trigger a single remediation.

use std::collections::HashMap;

use son_netsim::time::{SimDuration, SimTime};
use son_obs::watch::{WatchEvent, WatchKind};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::fleet::Fleet;
use son_overlay::{FlowSpec, NodeConfig, Priority};
use son_topo::{Graph, NodeId};

/// The diamond from `integration.rs`: link-state routing prefers 0-1-3
/// (cost 20) over the node-disjoint 0-2-3 (cost 24).
fn diamond() -> Graph {
    let mut topo = Graph::new(4);
    topo.add_edge(NodeId(0), NodeId(1), 10.0);
    topo.add_edge(NodeId(1), NodeId(3), 10.0);
    topo.add_edge(NodeId(0), NodeId(2), 12.0);
    topo.add_edge(NodeId(2), NodeId(3), 12.0);
    topo
}

fn watched_config() -> NodeConfig {
    NodeConfig {
        watch: true,
        trace_sample: 16,
        ..NodeConfig::default()
    }
}

fn watch_events(fleet: &Fleet, node: usize) -> Vec<WatchEvent> {
    let ring = fleet.node(NodeId(node)).obs().watch_events();
    ring.events().copied().collect()
}

/// Runs the diamond with node 1 blackholed and the watchdog on everywhere,
/// one flow from node 0 to node 3.
fn blackholed_diamond(seed: u64) -> Fleet {
    let builder = OverlayBuilder::new(diamond()).node_config(watched_config());
    let mut fleet = Fleet::new(seed, None, builder);
    fleet
        .node_mut(NodeId(1))
        .set_behavior(son_overlay::adversary::Behavior::Blackhole);
    let cbr = Workload::cbr(1000, u64::MAX, SimDuration::from_millis(10));
    fleet.flow(NodeId(0), NodeId(3), FlowSpec::best_effort(), cbr);
    fleet.run(SimTime::from_secs(10));
    fleet
}

#[test]
fn watchdog_strikes_blackhole_and_traffic_converges_on_disjoint_path() {
    let fleet = blackholed_diamond(21);

    // Node 0 convicted its neighbor from the forwarding receipts and
    // suspended the link — both sides of the action are in the audit trail.
    let events = watch_events(&fleet, 0);
    let conviction = events
        .iter()
        .find(|e| matches!(e.kind, WatchKind::SilentBlackhole { .. }));
    let suspension = events
        .iter()
        .find(|e| matches!(e.kind, WatchKind::LinkSuspended { .. }));
    let conviction = conviction.expect("receipts must convict the blackhole");
    let suspension = suspension.expect("the conviction must suspend the link");
    assert!(conviction.link.is_some(), "conviction names the link");
    assert_eq!(conviction.link, suspension.link, "same link is struck");

    // "Struck within N epochs": data starts at 0.5s; the receipt window
    // (1 epoch) plus `blackhole_epochs` consecutive suspicious epochs plus
    // the strike epoch bound the conviction at 6 × 500ms after that.
    let deadline_ns = SimTime::from_millis(500 + 6 * 500).as_nanos();
    assert!(
        conviction.at_ns <= deadline_ns,
        "blackhole convicted at {}ms, budget is {}ms",
        conviction.at_ns / 1_000_000,
        deadline_ns / 1_000_000
    );

    // Traffic converged onto the node-disjoint alternative. The alternative
    // really is node-disjoint (reuse son-topo's max-flow machinery rather
    // than trusting the test author's eyeballs), and it carries the flow.
    let dp = son_topo::disjoint::k_node_disjoint_paths(&diamond(), NodeId(0), NodeId(3), 2);
    let alternate = dp
        .paths
        .iter()
        .find(|p| !p.nodes.contains(&NodeId(1)))
        .expect("the diamond admits a path avoiding node 1");
    assert_eq!(alternate.nodes, vec![NodeId(0), NodeId(2), NodeId(3)]);
    let via = fleet.node(NodeId(2)).obs().counter("node.forwarded");
    assert!(via > Some(0), "the disjoint path carries the flow");

    // Deliveries resumed and were still flowing at the end of the run.
    let r = fleet.recv(0);
    assert!(r.received > 0, "deliveries must resume after the strike");
    let last = r.arrivals.last().unwrap().0;
    assert!(
        last > SimTime::from_millis(9_500),
        "traffic still flowing at the end, last arrival {last}"
    );
    let after_strike = r
        .arrivals
        .iter()
        .filter(|(at, _)| at.as_nanos() > conviction.at_ns)
        .count();
    assert!(
        after_strike > 100,
        "the bulk of post-conviction traffic is delivered, got {after_strike}"
    );
}

#[test]
fn healthy_deployment_emits_no_watch_events() {
    // The exact same deployment and workload, nobody misbehaving: the
    // watchdog must stay silent (the no-false-positive invariant, at the
    // integration level; `son-exp watchdog` asserts it campaign-wide).
    let builder = OverlayBuilder::new(diamond()).node_config(watched_config());
    let mut fleet = Fleet::new(22, None, builder);
    fleet.flow(
        NodeId(0),
        NodeId(3),
        FlowSpec::best_effort(),
        Workload::cbr(1000, 400, SimDuration::from_millis(10)),
    );
    fleet.run(SimTime::from_secs(6));
    for node in 0..4 {
        let events = watch_events(&fleet, node);
        assert!(
            events.is_empty(),
            "healthy node {node} raised {} watch events: first {:?}",
            events.len(),
            events.first()
        );
    }
    let r = fleet.recv(0);
    assert_eq!(r.received, 400, "and the flow is untouched");
}

#[test]
fn watchdog_runs_are_deterministic() {
    // Same seed, same adversary, same watchdog: bit-identical simulations,
    // including the remediation sequence.
    let a = blackholed_diamond(23);
    let b = blackholed_diamond(23);
    assert_eq!(a.sim.fingerprint(), b.sim.fingerprint());
    for node in 0..4 {
        assert_eq!(
            watch_events(&a, node),
            watch_events(&b, node),
            "node {node} watch history must replay exactly"
        );
    }
}

#[test]
fn shedding_preserves_per_flow_conservation() {
    // Two reliable flows share one 100 ms hop at 1 kpps each; hop-by-hop
    // ARQ keeps a round trip of packets unacknowledged, well above the
    // watchdog's queue-depth limit for two epochs running, so the growth
    // controller trips and the watchdog sheds the low-priority flow at the
    // ingress. Every shed packet must land in the shed flow's own ledger:
    // per FlowKey, sent = delivered + dropped, with the drops under
    // `drop.shed`.
    let config = NodeConfig {
        watch: true,
        ..NodeConfig::default()
    };
    let builder = OverlayBuilder::new(chain_topology(2, 100.0)).node_config(config);
    let mut fleet = Fleet::new(24, None, builder);
    let low = FlowSpec::reliable().with_priority(Priority::LOW);
    let high = FlowSpec::reliable().with_priority(Priority::HIGH);
    fleet.flow(
        NodeId(0),
        NodeId(1),
        low,
        Workload::cbr(1000, 2000, SimDuration::from_millis(1)),
    );
    fleet.flow(
        NodeId(0),
        NodeId(1),
        high,
        Workload::cbr(1000, 2000, SimDuration::from_millis(1)),
    );
    // Senders finish by ~2.5s; the tail drains long before 5s.
    fleet.run(SimTime::from_secs(5));

    let events = watch_events(&fleet, 0);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, WatchKind::ShedEngaged { .. })),
        "the queue-growth controller must engage"
    );

    // Per-FlowKey ledger summed over both daemons.
    let mut per_flow: HashMap<String, (u64, u64, u64)> = HashMap::new();
    let mut shed_total = 0;
    for daemon in fleet.nodes() {
        for (desc, v) in daemon.obs().registry().counters() {
            if desc.name == "drop.shed" {
                shed_total += v;
            }
            let Some((_, label)) = desc.labels().find(|(k, _)| *k == "flow") else {
                continue;
            };
            let e = per_flow.entry(label.to_owned()).or_default();
            match desc.name {
                "flow.sent" => e.0 += v,
                "flow.delivered" => e.1 += v,
                "flow.dropped" => e.2 += v,
                _ => {}
            }
        }
    }
    assert!(shed_total > 0, "shedding must actually drop packets");
    assert_eq!(per_flow.len(), 2, "one ledger entry per FlowKey");
    let mut outcomes: Vec<(u64, u64, u64)> = per_flow.values().copied().collect();
    outcomes.sort_by_key(|&(_, _, dropped)| dropped);
    for &(sent, delivered, dropped) in &outcomes {
        assert_eq!(
            sent,
            delivered + dropped,
            "sent {sent} != delivered {delivered} + dropped {dropped}"
        );
        assert_eq!(sent, 2000);
    }
    let (_, _, high_dropped) = outcomes[0];
    let (_, _, low_dropped) = outcomes[1];
    assert_eq!(high_dropped, 0, "the high-priority flow is never shed");
    assert!(
        low_dropped > 0,
        "the low-priority flow takes all the shedding"
    );
    assert_eq!(
        low_dropped, shed_total,
        "every shed packet is flow-attributed"
    );
}
