//! What a cold start floods, and what a daemon believes about the origins
//! it has not heard from.
//!
//! Every daemon is configured with the same topology, and a daemon's first
//! LSA is a function of it: every incident link up at its configured
//! latency, lossless. So an origin nothing was heard from reads as that
//! configured default, and a first start whose adverts equal it floods
//! nothing. What changes — a cut link, a refresh, a restart — floods as
//! always.

use std::collections::{HashMap, VecDeque};

use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::OverlayBuilder;
use son_overlay::fleet::Fleet;
use son_overlay::packet::{Control, Lsa};
use son_overlay::state::connectivity::{ConnAction, ConnectivityConfig, ConnectivityMonitor};
use son_topo::{EdgeId, Graph, NodeId};

/// A ring with a chord every 16 positions.
fn ring_with_chords(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), 10.0);
    }
    for i in (0..n / 2).step_by(16) {
        g.add_edge(NodeId(i), NodeId(i + n / 2), 17.0);
    }
    g
}

/// Node `me`'s monitor with its links as the topology configures them.
fn configured_monitor(topology: &Graph, me: NodeId) -> ConnectivityMonitor {
    let links = topology
        .neighbors(me)
        .map(|(_, e)| (e, 1, topology.weight(e)))
        .collect();
    ConnectivityMonitor::new(me, topology.clone(), links, ConnectivityConfig::default())
}

fn weight_bits(graph: &Graph) -> Vec<u64> {
    graph.edges().map(|e| graph.weight(e).to_bits()).collect()
}

/// Every daemon's view equals the view of a daemon that heard an LSA from
/// every origin, carrying that origin's own current adverts.
fn assert_views_match_a_fully_informed_daemon(fleet: &Fleet, topology: &Graph) {
    let n = topology.node_count();
    // The reference stands in for a daemon whose own adverts are still its
    // configured ones; an origin that re-originated is not one.
    let me = (0..n)
        .map(NodeId)
        .find(|&o| {
            fleet
                .nodes()
                .all(|node| node.connectivity().adverts_of(o).is_none() || node.id() == o)
        })
        .expect("some origin never re-originated");
    let mut reference = configured_monitor(topology, me);
    let own = fleet.node(me).connectivity().adverts_of(me).expect("own");
    assert_eq!(**reference.adverts_of(me).expect("own"), **own);
    let mut out = Vec::new();
    for origin in (0..n).map(NodeId).filter(|&o| o != me) {
        let links = fleet
            .node(origin)
            .connectivity()
            .adverts_of(origin)
            .expect("own");
        let lsa = Lsa {
            origin,
            seq: 1_000,
            links: links.clone(),
        };
        reference.on_lsa(SimTime::ZERO, lsa, None, &mut out);
    }
    let want = weight_bits(&reference.current_graph());
    for node in fleet.nodes() {
        assert_eq!(
            weight_bits(&node.connectivity().current_graph()),
            want,
            "daemon {} sees another topology",
            node.id()
        );
        for origin in (0..n).map(NodeId) {
            let own = fleet
                .node(origin)
                .connectivity()
                .adverts_of(origin)
                .expect("own");
            assert!(
                node.connectivity().believes(origin, own),
                "{} on {origin}",
                node.id()
            );
        }
    }
}

#[test]
fn a_fault_free_cold_start_floods_no_lsa() {
    const N: usize = 64;
    let topology = ring_with_chords(N);
    let mut fleet = Fleet::new(5, None, OverlayBuilder::new(topology.clone()));
    fleet.run(SimTime::from_secs(3));
    assert_eq!(
        fleet.ctl_frames().lsa,
        0,
        "a cold start told the fleet its configuration"
    );
    assert!(
        fleet.ctl_frames().hello > 0,
        "the links were probed all along"
    );
    assert_views_match_a_fully_informed_daemon(&fleet, &topology);
}

#[test]
fn a_cut_link_floods_and_every_daemon_converges_on_it() {
    const N: usize = 64;
    let topology = ring_with_chords(N);
    let mut fleet = Fleet::new(5, None, OverlayBuilder::new(topology.clone()));
    let cut = EdgeId(1);
    fleet.edge_outage(cut, SimTime::from_secs(1), SimDuration::from_secs(60));
    fleet.run(SimTime::from_secs(3));
    let lsa = fleet.ctl_frames().lsa;
    // Both endpoints declare the link down; each flood crosses every link
    // direction at most once.
    assert!(lsa > 0, "the cut was never advertised");
    assert!(
        lsa <= 2 * 2 * topology.edge_count() as u64,
        "{lsa} LSA frames"
    );
    assert_views_match_a_fully_informed_daemon(&fleet, &topology);
    let (a, b) = topology.endpoints(cut);
    for node in fleet.nodes() {
        assert!(
            node.connectivity().current_graph().weight(cut) > 1e9,
            "{} still uses {a}-{b}",
            node.id()
        );
    }
}

/// An LSA equal to its origin's default changes nothing where it arrives,
/// yet it is stored, so a second copy is not newer and goes no further.
#[test]
fn a_default_equal_lsa_crosses_each_link_direction_at_most_once() {
    const N: usize = 6;
    let mut topology = Graph::new(N);
    for i in 0..N {
        topology.add_edge(NodeId(i), NodeId((i + 1) % N), 10.0);
    }
    let mut monitors: Vec<ConnectivityMonitor> = (0..N)
        .map(|i| configured_monitor(&topology, NodeId(i)))
        .collect();
    let versions: Vec<u64> = monitors.iter().map(ConnectivityMonitor::version).collect();
    // Node 0's periodic refresh: what its configuration already says.
    let mut out = Vec::new();
    monitors[0].originate(None, &mut out);
    let mut queue: VecDeque<(usize, Option<usize>, Lsa)> = VecDeque::new();
    let flood = |from: usize, out: Vec<ConnAction>, queue: &mut VecDeque<_>| {
        for action in out {
            if let ConnAction::Flood {
                except,
                msg: Control::Lsa(lsa),
            } = action
            {
                queue.push_back((from, except, lsa));
            }
        }
    };
    flood(0, out, &mut queue);
    let mut crossings: HashMap<(usize, usize), u32> = HashMap::new();
    let mut deliveries = 0;
    while let Some((from, except, lsa)) = queue.pop_front() {
        let links: Vec<(NodeId, EdgeId)> = topology.neighbors(NodeId(from)).collect();
        for (link, &(to, edge)) in links.iter().enumerate() {
            if Some(link) == except {
                continue;
            }
            *crossings.entry((from, to.0)).or_default() += 1;
            deliveries += 1;
            assert!(deliveries <= 4 * N, "the flood does not stop");
            let arrived_on = topology
                .neighbors(to)
                .position(|(_, e)| e == edge)
                .expect("incident");
            let mut out = Vec::new();
            monitors[to.0].on_lsa(SimTime::ZERO, lsa.clone(), Some(arrived_on), &mut out);
            assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
            flood(to.0, out, &mut queue);
        }
    }
    assert!(crossings.values().all(|&c| c == 1), "{crossings:?}");
    for (monitor, version) in monitors.iter().zip(versions) {
        assert_eq!(monitor.version(), version, "nothing changed");
        assert!(
            monitor.adverts_of(NodeId(0)).is_some(),
            "and yet it is stored"
        );
    }
}
