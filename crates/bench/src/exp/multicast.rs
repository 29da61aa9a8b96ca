//! E5 — §III-B: overlay multicast efficiency.
//!
//! "The overlay is able to construct the most efficient multicast tree to
//! route messages to all overlay nodes that have clients in the group...
//! without requiring each endpoint to create multiple connections."
//!
//! A monitoring source in NYC fans out to a growing set of receiver cities.
//! We compare the total number of link transmissions per source packet for
//! (a) one multicast flow over the shared tree versus (b) one unicast flow
//! per receiver, and verify every receiver got the full stream either way.

use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::{ClientFlow, Workload};
use son_overlay::fleet::{Fleet, RX_PORT, TX_PORT};
use son_overlay::{Destination, FlowSpec, GroupId, OverlayAddr};
use son_topo::NodeId;

use super::Opts;
use crate::{f, row, table_header};

const COUNT: u64 = 500;
const GROUP: GroupId = GroupId(42);

fn workload() -> Workload {
    Workload::Cbr {
        size: 500,
        interval: SimDuration::from_millis(20),
        count: COUNT,
        start: SimTime::from_secs(1),
    }
}

/// Runs one configuration; returns (total link transmissions, min received).
fn run_case(receivers: &[NodeId], multicast: bool) -> (u64, u64) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let mut fleet = Fleet::new(51, None, OverlayBuilder::new(topo));
    let src = NodeId(0); // NYC

    let joins = if multicast { vec![GROUP] } else { vec![] };
    let rx: Vec<_> = receivers
        .iter()
        .map(|&n| fleet.client(n, RX_PORT, joins.clone(), vec![]))
        .collect();

    let flows: Vec<ClientFlow> = if multicast {
        vec![ClientFlow {
            local_flow: 1,
            dst: Destination::Multicast(GROUP),
            spec: FlowSpec::best_effort(),
            workload: workload(),
        }]
    } else {
        receivers
            .iter()
            .enumerate()
            .map(|(i, &n)| ClientFlow {
                local_flow: i as u32 + 1,
                dst: Destination::Unicast(OverlayAddr::new(n, RX_PORT)),
                spec: FlowSpec::best_effort(),
                workload: workload(),
            })
            .collect()
    };
    fleet.client(src, TX_PORT, vec![], flows);
    fleet.run(SimTime::from_secs(15));

    let transmissions = fleet.forwarded();
    let min_received = rx
        .iter()
        .map(|&r| {
            let c = fleet.client_ref(r);
            c.recv.values().map(|fr| fr.received).sum::<u64>()
        })
        .min()
        .unwrap_or(0);
    (transmissions, min_received)
}

pub fn run(_: &Opts) {
    table_header(&[
        ("receivers", 9),
        ("tree tx/pkt", 11),
        ("unicast tx/pkt", 14),
        ("savings", 8),
        ("complete", 9),
    ]);

    // Receivers spread across the map (node 0 = NYC is the source).
    let all: Vec<NodeId> = (1..12).map(NodeId).collect();
    for n in [2usize, 4, 6, 8, 11] {
        let receivers = &all[..n];
        let (tree_tx, tree_min) = run_case(receivers, true);
        let (uni_tx, uni_min) = run_case(receivers, false);
        let tree_per = tree_tx as f64 / COUNT as f64;
        let uni_per = uni_tx as f64 / COUNT as f64;
        row(&[
            (n.to_string(), 9),
            (f(tree_per, 2), 11),
            (f(uni_per, 2), 14),
            (f(uni_per / tree_per, 2) + "x", 8),
            (
                if tree_min >= COUNT && uni_min >= COUNT {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                9,
            ),
        ]);
    }

    println!();
    println!("Shape check (paper): the shared tree's cost grows with the tree, not with");
    println!("the receiver count x path length, so savings grow with group size; all");
    println!("receivers get the complete stream either way.");
}
