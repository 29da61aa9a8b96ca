//! Broadcast-quality video transport over the continental overlay (§III-A).
//!
//! ```text
//! cargo run --release --example video_broadcast
//! ```
//!
//! A stadium feed in Miami is multicast to four broadcast stations across
//! the country over lossy links. We run the same stream twice — best effort
//! vs the Reliable Data Link — and print the decoder-level quality report
//! for each station.

use son_apps::video::{score, VideoProfile};
use son_netsim::loss::LossConfig;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::ClientFlow;
use son_overlay::{Destination, Fleet, FlowSpec, GroupId};
use son_topo::NodeId;

const STATIONS: [(&str, usize); 4] = [("NYC", 0), ("CHI", 5), ("SEA", 9), ("LA", 11)];
const STADIUM: usize = 4; // MIA
const GROUP: GroupId = GroupId(7);

fn run(spec: FlowSpec) -> Vec<(String, f64, f64, f64)> {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let bursts = LossConfig::bursts(SimDuration::from_millis(990), SimDuration::from_millis(10));
    let mut fleet = Fleet::new(99, None, OverlayBuilder::new(topo).default_loss(bursts));

    let stations: Vec<_> = STATIONS
        .iter()
        .map(|&(_, n)| fleet.client(NodeId(n), 80, vec![GROUP], vec![]))
        .collect();

    let profile = VideoProfile::broadcast_sd();
    let feed = profile.workload(SimTime::from_secs(1), SimDuration::from_secs(30));
    let flow = ClientFlow::new(Destination::Multicast(GROUP), spec, feed);
    let tx = fleet.client(NodeId(STADIUM), 81, vec![], vec![flow]);
    fleet.run(SimTime::from_secs(40));

    let sent = fleet.client_ref(tx).sent(1);
    stations
        .iter()
        .zip(STATIONS.iter())
        .map(|(&p, &(name, _))| {
            let client = fleet.client_ref(p);
            let recv = client.recv.values().next().cloned().unwrap_or_default();
            let report = score(&recv, sent, &profile, None);
            (
                name.to_string(),
                report.delivered_frac,
                report.mean_latency_ms,
                report.continuity_100ms,
            )
        })
        .collect()
}

fn main() {
    println!(
        "MIA stadium feed ({} Mbit/s MPEG-TS) -> 4 stations, 1% bursty loss/link\n",
        VideoProfile::broadcast_sd().bitrate_bps / 1_000_000
    );
    for (label, spec) in [
        (
            "BEST EFFORT (native-Internet-like)",
            FlowSpec::best_effort(),
        ),
        (
            "RELIABLE DATA LINK (hop-by-hop recovery)",
            FlowSpec::reliable(),
        ),
    ] {
        println!("--- {label} ---");
        println!(
            "{:>8} {:>10} {:>10} {:>16}",
            "station", "delivered", "mean ms", "continuity@100ms"
        );
        for (name, frac, mean, continuity) in run(spec) {
            println!(
                "{name:>8} {:>9.2}% {mean:>10.2} {:>15.2}%",
                frac * 100.0,
                continuity * 100.0
            );
        }
        println!();
    }
    println!("The overlay's hop-by-hop recovery turns a freezing, lossy feed into");
    println!("broadcast-quality delivery at a few ms of added latency.");
}
