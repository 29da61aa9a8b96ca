//! Quickstart: a three-node overlay chain carrying a reliable flow over a
//! lossy Internet.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A sender client attaches to overlay node 0, a receiver to node 2, and the
//! Reliable Data Link recovers every loss hop-by-hop while the destination
//! delivers in order.

use son_netsim::loss::LossConfig;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::{ClientFlow, Workload};
use son_overlay::{Destination, Fleet, FlowSpec, LinkService, OverlayAddr};
use son_topo::NodeId;

fn main() {
    // 1. Three overlay nodes in a chain of 10 ms links with 2% loss per
    //    link, in a deterministic simulated Internet (seed 7).
    let overlay = OverlayBuilder::new(chain_topology(3, 10.0))
        .default_loss(LossConfig::Bernoulli { p: 0.02 });
    let mut fleet = Fleet::new(7, None, overlay);

    // 2. A receiver client on node 2 (virtual port 80)...
    let rx = fleet.client(NodeId(2), 80, vec![], vec![]);

    // 3. ...and a sender on node 0 streaming 1000 packets of 1 kB at 100/s
    //    with the Reliable Data Link service (hop-by-hop recovery, in-order
    //    delivery at the destination).
    let dst = Destination::Unicast(OverlayAddr::new(NodeId(2), 80));
    let stream = Workload::cbr(1000, 1000, SimDuration::from_millis(10));
    let flow = ClientFlow::new(dst, FlowSpec::reliable(), stream);
    let tx = fleet.client(NodeId(0), 81, vec![], vec![flow]);

    // 4. Run 15 simulated seconds.
    fleet.run(SimTime::from_secs(15));

    // 5. Harvest.
    let sent = fleet.client_ref(tx).sent(1);
    let recv = fleet.client_ref(rx).sole_recv();
    let mut lat = recv.latency_ms();
    println!("sent             : {sent}");
    println!(
        "delivered        : {} ({}%)",
        recv.received,
        100 * recv.received / sent
    );
    println!(
        "in order         : {}",
        if recv.out_of_order == 0 { "yes" } else { "no" }
    );
    println!("app duplicates   : {}", recv.app_duplicates);
    println!("latency p50      : {:.2} ms", lat.median().unwrap());
    println!("latency p99      : {:.2} ms", lat.quantile(0.99).unwrap());

    let retransmissions = fleet.wire_stats(LinkService::Reliable).retransmitted;
    println!("link-level repair: {retransmissions} retransmissions (invisible to the app)");
    assert_eq!(recv.received, sent, "reliable service recovered everything");
}
