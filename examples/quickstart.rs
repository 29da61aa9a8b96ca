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
use son_netsim::sim::Simulation;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::{ClientConfig, ClientFlow, ClientProcess, Workload};
use son_overlay::node::OverlayNode;
use son_overlay::{Destination, FlowSpec, LinkService, OverlayAddr, Wire};
use son_topo::NodeId;

fn main() {
    // 1. A deterministic simulated Internet (seed 7) with 2% loss per link.
    let mut sim: Simulation<Wire> = Simulation::new(7);

    // 2. Three overlay nodes in a chain of 10 ms links.
    let overlay = OverlayBuilder::new(chain_topology(3, 10.0))
        .default_loss(LossConfig::Bernoulli { p: 0.02 })
        .build(&mut sim);

    // 3. A receiver client on node 2 (virtual port 80)...
    let rx = sim.add_process(ClientProcess::new(ClientConfig {
        daemon: overlay.daemon(NodeId(2)),
        port: 80,
        joins: vec![],
        flows: vec![],
    }));

    // 4. ...and a sender on node 0 streaming 1000 packets of 1 kB at 100/s
    //    with the Reliable Data Link service (hop-by-hop recovery, in-order
    //    delivery at the destination).
    let tx = sim.add_process(ClientProcess::new(ClientConfig {
        daemon: overlay.daemon(NodeId(0)),
        port: 81,
        joins: vec![],
        flows: vec![ClientFlow {
            local_flow: 1,
            dst: Destination::Unicast(OverlayAddr::new(NodeId(2), 80)),
            spec: FlowSpec::reliable(),
            workload: Workload::Cbr {
                size: 1000,
                interval: SimDuration::from_millis(10),
                count: 1000,
                start: SimTime::from_millis(500),
            },
        }],
    }));

    // 5. Run 15 simulated seconds.
    sim.run_until(SimTime::from_secs(15));

    // 6. Harvest.
    let sent = sim.proc_ref::<ClientProcess>(tx).unwrap().sent(1);
    let recv = sim
        .proc_ref::<ClientProcess>(rx)
        .unwrap()
        .sole_recv()
        .clone();
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

    let mut retransmissions = 0;
    for &d in &overlay.daemons {
        retransmissions += sim
            .proc_ref::<OverlayNode>(d)
            .unwrap()
            .service_stats(LinkService::Reliable)
            .retransmitted;
    }
    println!("link-level repair: {retransmissions} retransmissions (invisible to the app)");
    assert_eq!(recv.received, sent, "reliable service recovered everything");
}
