//! Intrusion-tolerant monitoring and control (§IV-B): the overlay itself is
//! under attack.
//!
//! ```text
//! cargo run --release --example intrusion_tolerance
//! ```
//!
//! Two compromised overlay nodes participate correctly in the control plane
//! but blackhole transit data, while a third floods junk traffic toward the
//! control center. SCADA-style telemetry keeps flowing thanks to constrained
//! flooding + fair priority scheduling; reliable control commands ride
//! IT-Reliable with backpressure.

use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::adversary::Behavior;
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::{ClientFlow, Workload};
use son_overlay::{
    Destination, Fleet, FlowSpec, LinkService, NodeConfig, OverlayAddr, RoutingService, SourceRoute,
};
use son_topo::NodeId;

const CONTROL_CENTER: NodeId = NodeId(0); // NYC
const SUBSTATION: NodeId = NodeId(11); // LA
                                       // ATL and DEN are compromised: they sit on the cheap southern and central
                                       // routes but do not form a vertex cut (the paper's guarantee only holds
                                       // "provided that some correct path through the overlay still exists").
const BLACKHOLES: [usize; 2] = [3, 8]; // ATL, DEN
const FLOODER: usize = 7; // HOU compromised, floods the control center

fn main() {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let mut config = NodeConfig {
        auth_enabled: true,
        ..Default::default()
    };
    // §IV-B: per-node keys, per-packet tags
    config.it_rate_bps = Some(4_000_000);
    let mut fleet = Fleet::new(1337, None, OverlayBuilder::new(topo).node_config(config));

    for &bad in &BLACKHOLES {
        fleet
            .node_mut(NodeId(bad))
            .set_behavior(Behavior::Blackhole);
    }
    fleet
        .node_mut(NodeId(FLOODER))
        .set_behavior(Behavior::Flood {
            dst: Destination::Unicast(OverlayAddr::new(CONTROL_CENTER, 70)),
            rate_pps: 2000,
            size: 1000,
        });

    // Telemetry: substation -> control center, flooded + priority-fair.
    let telemetry_spec = FlowSpec::best_effort()
        .with_routing(RoutingService::SourceBased(
            SourceRoute::ConstrainedFlooding,
        ))
        .with_link(LinkService::ItPriority);
    // Control: control center -> substation, IT-Reliable over redundant
    // dissemination (a reliable protocol on a single path through a
    // blackhole would stall forever — §IV-B pairs fair scheduling WITH
    // redundant dissemination).
    let control_spec = FlowSpec::reliable()
        .with_link(LinkService::ItReliable)
        .with_routing(RoutingService::SourceBased(
            SourceRoute::ConstrainedFlooding,
        ));

    let commands = Workload::Cbr {
        size: 256,
        interval: SimDuration::from_millis(100),
        count: 200,
        start: SimTime::from_secs(1),
    };
    let to_substation = Destination::Unicast(OverlayAddr::new(SUBSTATION, 71));
    let flow = ClientFlow::new(to_substation, control_spec, commands);
    let center = fleet.client(CONTROL_CENTER, 70, vec![], vec![flow]);
    let readings = Workload::Cbr {
        size: 512,
        interval: SimDuration::from_millis(20),
        count: 1000,
        start: SimTime::from_secs(1),
    };
    let to_center = Destination::Unicast(OverlayAddr::new(CONTROL_CENTER, 70));
    let flow = ClientFlow::new(to_center, telemetry_spec, readings);
    let substation = fleet.client(SUBSTATION, 71, vec![], vec![flow]);
    fleet.run(SimTime::from_secs(30));

    let telemetry_sent = fleet.client_ref(substation).sent(1);
    let center_client = fleet.client_ref(center);
    let telemetry = center_client
        .recv
        .iter()
        .find(|(k, _)| k.src.node == SUBSTATION)
        .map(|(_, r)| r.clone())
        .unwrap_or_default();
    let commands_sent = center_client.sent(1);
    let sub_client = fleet.client_ref(substation);
    let commands = sub_client.recv.values().next().cloned().unwrap_or_default();
    let mut telemetry_lat = telemetry.latency_ms();

    println!(
        "attack: {} blackhole nodes + 1 flooder (2000 pps at the control center)\n",
        BLACKHOLES.len()
    );
    println!(
        "telemetry (flooding + IT-Priority): {}/{} delivered, p99 {:.1} ms, {} app dups",
        telemetry.received,
        telemetry_sent,
        telemetry_lat.quantile(0.99).unwrap_or(f64::NAN),
        telemetry.app_duplicates,
    );
    println!(
        "control  (IT-Reliable)            : {}/{} delivered in order ({} ooo)",
        commands.received, commands_sent, commands.out_of_order,
    );
    let adversary_dropped = fleet.counter("drop.adversary");
    println!("\npackets eaten by the blackholes   : {adversary_dropped}");
    let flooder = fleet.node(NodeId(FLOODER)).obs();
    println!(
        "flooder junk injected             : {}",
        flooder.counter("node.adversary_injected").unwrap_or(0)
    );
    println!("\nDespite compromised overlay nodes with valid credentials, every");
    println!("telemetry reading and every control command made it through.");
    assert_eq!(telemetry.received, telemetry_sent);
    assert_eq!(commands.received, commands_sent);
}
