//! Resilient monitoring and control of a global cloud (§III-B).
//!
//! ```text
//! cargo run --release --example cloud_monitoring
//! ```
//!
//! Sensors in six cities multicast telemetry into the overlay; two operator
//! consoles (east and west) receive every stream without any sensor opening
//! more than one connection. A controller fans out reliable commands to
//! field devices. Mid-run an overlay link fails — sub-second rerouting keeps
//! the monitoring view fresh.

use son_apps::monitoring::{self, score_telemetry};
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::ScenarioEvent;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::Fleet;
use son_topo::NodeId;

const SENSOR_CITIES: [usize; 6] = [1, 3, 4, 7, 8, 10]; // BOS ATL MIA HOU DEN SF
const OPERATORS: [usize; 2] = [0, 11]; // NYC, LA
const DEVICES: [usize; 2] = [6, 9]; // DAL, SEA
const CONTROLLER: usize = 0; // NYC

fn main() {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let mut fleet = Fleet::new(404, None, OverlayBuilder::new(topo.clone()));

    let (every, lasting) = (SimDuration::from_millis(100), SimDuration::from_secs(20));
    let sensors: Vec<_> = SENSOR_CITIES
        .iter()
        .map(|&n| monitoring::sensor(&mut fleet, NodeId(n), 256, every, lasting, false))
        .collect();
    let operators: Vec<_> = OPERATORS
        .iter()
        .map(|&n| monitoring::operator(&mut fleet, NodeId(n)))
        .collect();
    let devices: Vec<_> = DEVICES
        .iter()
        .map(|&n| monitoring::device(&mut fleet, NodeId(n)))
        .collect();
    let command_every = SimDuration::from_millis(500);
    monitoring::controller(
        &mut fleet,
        NodeId(CONTROLLER),
        128,
        command_every,
        30,
        false,
    );

    // Fail an overlay link mid-run: the overlay routes around it.
    let victim = son_topo::shortest_path(&topo, NodeId(4), NodeId(0))
        .unwrap()
        .edges[0];
    for &(ab, ba) in &fleet.overlay.edge_pipes[&victim] {
        fleet
            .sim
            .schedule(SimTime::from_secs(10), ScenarioEvent::DisablePipe(ab));
        fleet
            .sim
            .schedule(SimTime::from_secs(10), ScenarioEvent::DisablePipe(ba));
    }

    fleet.run(SimTime::from_secs(25));

    println!("six sensors -> overlay multicast -> two operator consoles");
    println!("(an overlay link on the MIA->NYC route fails at t=10s)\n");
    for (op_idx, &op) in operators.iter().enumerate() {
        let client = fleet.client_ref(op);
        println!(
            "operator at {}:",
            sc.underlay.city_name(sc.cities[OPERATORS[op_idx]])
        );
        println!(
            "{:>8} {:>13} {:>13} {:>16}",
            "sensor", "completeness", "freshness ms", "max blindness ms"
        );
        for (i, &s) in sensors.iter().enumerate() {
            let sent = fleet.client_ref(s).sent(1);
            let flow = client
                .recv
                .iter()
                .find(|(k, _)| k.src.node == NodeId(SENSOR_CITIES[i]))
                .map(|(_, r)| r.clone())
                .unwrap_or_default();
            let report = score_telemetry(&flow, sent);
            println!(
                "{:>8} {:>12.1}% {:>13.2} {:>16.0}",
                sc.underlay.city_name(sc.cities[SENSOR_CITIES[i]]),
                report.completeness * 100.0,
                report.mean_freshness_ms,
                report.longest_blindness_ms,
            );
        }
        println!();
    }
    for (i, &d) in devices.iter().enumerate() {
        let client = fleet.client_ref(d);
        let got: u64 = client.recv.values().map(|r| r.received).sum();
        println!(
            "device at {:>3}: received {got}/30 control commands (reliable, in order)",
            sc.underlay.city_name(sc.cities[DEVICES[i]])
        );
    }
    println!("\nEvery endpoint holds exactly ONE overlay connection; the mesh of");
    println!("sensor x destination paths — and the sub-second failover — is the");
    println!("overlay's job, not the application's.");
}
