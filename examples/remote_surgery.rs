//! Real-time remote manipulation (§V-A): a surgeon in New York operates a
//! robot in Los Angeles.
//!
//! ```text
//! cargo run --release --example remote_surgery
//! ```
//!
//! Haptic commands cross the continent (~37 ms propagation) under a 65 ms
//! one-way deadline while loss bursts plague the network around the source.
//! We compare the plain shortest path against the paper's combination of
//! single-strike recovery + dissemination-graph routing, both directions
//! (commands east→west, force feedback west→east).

use son_apps::manipulation::{self, HapticProfile, ONE_WAY_DEADLINE};
use son_netsim::loss::LossConfig;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::ClientFlow;
use son_overlay::{Destination, Fleet, FlowSpec, OverlayAddr};
use son_topo::NodeId;

const SURGEON: NodeId = NodeId(0); // NYC
const ROBOT: NodeId = NodeId(11); // LA

fn run(
    spec: FlowSpec,
) -> (
    manipulation::ManipulationReport,
    manipulation::ManipulationReport,
) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    // Bursty loss on the links around both endpoints (the problematic areas).
    let mut builder = OverlayBuilder::new(topo.clone());
    for e in topo.edges() {
        let (a, b) = topo.endpoints(e);
        if [a, b].iter().any(|&v| v == SURGEON || v == ROBOT) {
            builder = builder.edge_loss(
                e,
                LossConfig::bursts(SimDuration::from_millis(190), SimDuration::from_millis(10)),
            );
        }
    }
    let mut fleet = Fleet::new(2026, None, builder);

    let profile = HapticProfile::standard();
    let mut attach = |at: NodeId, to: NodeId, port, peer_port| {
        let dst = Destination::Unicast(OverlayAddr::new(to, peer_port));
        let workload = profile.workload(SimTime::from_secs(1), SimDuration::from_secs(20));
        fleet.client(at, port, vec![], vec![ClientFlow::new(dst, spec, workload)])
    };
    let surgeon = attach(SURGEON, ROBOT, 10, 11);
    let robot = attach(ROBOT, SURGEON, 11, 10);
    fleet.run(SimTime::from_secs(25));

    let score_of = |pid, sent_by| {
        let sent = fleet.client_ref(sent_by).sent(1);
        let recv = fleet
            .client_ref(pid)
            .recv
            .values()
            .next()
            .cloned()
            .unwrap_or_default();
        manipulation::score(&recv, sent)
    };
    (score_of(robot, surgeon), score_of(surgeon, robot))
}

fn main() {
    println!(
        "NYC surgeon <-> LA robot | {} Hz haptics | {} ms one-way deadline",
        HapticProfile::standard().rate_hz,
        ONE_WAY_DEADLINE.as_millis_f64()
    );
    println!("5% bursty loss around both endpoints\n");
    let budget = SimDuration::from_millis(12);
    for (label, spec) in [
        ("shortest path only", manipulation::single_path_spec(budget)),
        (
            "single-strike + dissemination graph",
            manipulation::manipulation_spec(budget),
        ),
    ] {
        let (cmd, fb) = run(spec);
        println!("--- {label} ---");
        println!(
            "  commands : {:>6.2}% on time | mean {:>5.1} ms | {} lost",
            cmd.on_time_frac * 100.0,
            cmd.mean_latency_ms,
            cmd.lost
        );
        println!(
            "  feedback : {:>6.2}% on time | mean {:>5.1} ms | {} lost",
            fb.on_time_frac * 100.0,
            fb.mean_latency_ms,
            fb.lost
        );
        let loop_ok = cmd.on_time_frac * fb.on_time_frac;
        println!(
            "  closed loop within 130 ms RTT: ~{:.2}%\n",
            loop_ok * 100.0
        );
    }
    println!("Targeted redundancy in the problematic areas buys the last fraction of");
    println!("a percent that makes the interaction feel local — with only ~20 ms of");
    println!("slack, there is no time for a second retransmission round.");
}
