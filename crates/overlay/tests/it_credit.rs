//! Regression pin for IT-Reliable cross-link credit grants (§IV-B).
//!
//! Hop-by-hop credit flow: when a relay's *downstream* link consumes a
//! packet (delivers it onward), the protocol emits `Consumed(flow)` and the
//! daemon must replay that consumption onto the flow's *upstream* link —
//! the one recorded in the shared `FlowTable` — so the upstream neighbor
//! gets a `Credit` and can keep sending. The sender's window is 16 with a
//! hard cap of 32 outstanding packets, so a stream much longer than the cap
//! only completes if credits keep coming back across the relay.

use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::fleet::{Fleet, RX_PORT, TX_PORT};
use son_overlay::{Destination, FlowKey, FlowSpec, LinkService, OverlayAddr};
use son_topo::NodeId;

/// Far above the IT-Reliable hard cap of 32 outstanding packets.
const COUNT: u64 = 120;

#[test]
fn it_reliable_credits_cross_the_relay() {
    let mut fleet = Fleet::new(17, None, OverlayBuilder::new(chain_topology(3, 10.0)));
    let dst = OverlayAddr::new(NodeId(2), RX_PORT);
    let spec = FlowSpec::reliable().with_link(LinkService::ItReliable);
    // 2 ms spacing over 10 ms hops: in-flight builds up well past the
    // 16-packet window, so progress requires credit returns.
    let cbr = Workload::cbr(1000, COUNT, SimDuration::from_millis(2));
    fleet.flow(NodeId(0), NodeId(2), spec, cbr);
    fleet.run(SimTime::from_secs(30));

    assert_eq!(fleet.sent(0), COUNT, "sender must not stall permanently");
    let r = fleet.recv(0);
    assert_eq!(
        r.received, COUNT,
        "a stream far past the 32-packet hard cap only completes if the \
         relay replays Consumed onto the upstream link"
    );
    assert_eq!(r.app_duplicates, 0);

    // The relay must have recorded the flow's upstream link in its shared
    // flow table — that is the state the credit grant replays onto.
    let flow = FlowKey::new(
        OverlayAddr::new(NodeId(0), TX_PORT),
        Destination::Unicast(dst),
    );
    let relay = fleet.node(NodeId(1));
    let fc = relay
        .flows()
        .get(&flow)
        .expect("relay holds a flow context for the transit flow");
    assert!(
        fc.upstream().is_some(),
        "upstream link recorded for credit grants"
    );
    assert!(fc.role().transit, "relay played the transit role");
    // And it actually granted credits back: IT-Reliable control traffic
    // (acks + credits) flowed on the relay's links.
    assert!(
        relay.service_stats(LinkService::ItReliable).ctl_sent > 0,
        "relay sent IT-Reliable control traffic (credits/acks)"
    );
}
