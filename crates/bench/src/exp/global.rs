//! E11 — §II-A: global coverage with a few tens of overlay nodes.
//!
//! "A key property of structured overlay networks is that they require only
//! a few tens of well situated overlay nodes to provide excellent global
//! coverage... about 150ms is sufficient to reach nearly any point on the
//! globe from any other point."
//!
//! A 20-node world overlay over two submarine-cable providers. We report
//! the all-pairs overlay latency distribution (including per-hop processing)
//! and then actually run the hardest flow — live video New York → Sydney
//! under bursty loss with NM-Strikes — to show the paper's live-TV service
//! works at planetary scale.

use son_netsim::loss::LossConfig;
use son_netsim::scenario::{global_20, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{global_overlay, OverlayBuilder, HOP_PROCESSING};
use son_overlay::client::Workload;
use son_overlay::{Fleet, FlowSpec};
use son_topo::{dijkstra, NodeId};

use super::Opts;
use crate::{f, row, table_header};

pub fn run(_: &Opts) {
    let sc = global_20(DEFAULT_CONVERGENCE);
    let (topo, cities) = global_overlay(&sc);
    let hop_ms = HOP_PROCESSING.as_millis_f64();

    // All-pairs overlay latency.
    let mut lat = son_netsim::stats::Percentiles::new();
    let mut worst = (0usize, 0usize, 0.0f64);
    for a in 0..cities.len() {
        let spt = dijkstra(&topo, NodeId(a));
        for b in 0..cities.len() {
            if a == b {
                continue;
            }
            let p = spt.path_to(NodeId(b)).expect("connected");
            let ms = p.cost + hop_ms * p.hops() as f64;
            lat.record(ms);
            if ms > worst.2 {
                worst = (a, b, ms);
            }
        }
    }
    table_header(&[("all-pairs overlay latency", 26), ("ms", 8)]);
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0)] {
        row(&[(label.to_string(), 26), (f(lat.quantile(q).unwrap(), 1), 8)]);
    }
    println!(
        "\nworst pair: {} -> {} at {:.1}ms ({} overlay nodes total)",
        sc.underlay.city_name(cities[worst.0]),
        sc.underlay.city_name(cities[worst.1]),
        worst.2,
        cities.len()
    );

    // Live video NYC -> SYD with NM-Strikes under 1% bursty loss.
    let nyc = NodeId(cities.iter().position(|&c| c == sc.city("NYC")).unwrap());
    let syd = NodeId(cities.iter().position(|&c| c == sc.city("SYD")).unwrap());
    let mut fleet = Fleet::new(
        111,
        None,
        OverlayBuilder::new(topo).default_loss(LossConfig::bursts(
            SimDuration::from_millis(990),
            SimDuration::from_millis(10),
        )),
    );
    fleet.flow(
        nyc,
        syd,
        FlowSpec::live_video(SimDuration::from_millis(200)),
        Workload::Cbr {
            size: 1316,
            interval: SimDuration::from_millis(2),
            count: 10_000,
            start: SimTime::from_secs(1),
        },
    );
    fleet.run(SimTime::from_secs(30));
    let (sent, recv) = (fleet.sent(0), fleet.recv(0));
    let mut l = recv.latency_ms();
    println!("\nlive video NYC -> SYD (200ms bound, 1% bursty loss/link):");
    println!(
        "  delivered within bound: {:.2}%  (p50 {:.1}ms, max {:.1}ms)",
        100.0 * recv.received as f64 / sent as f64 * l.fraction_within(200.0).unwrap_or(0.0),
        l.quantile(0.5).unwrap_or(f64::NAN),
        l.max().unwrap_or(f64::NAN),
    );
    println!();
    println!("Shape check (paper): 20 well-situated nodes cover the globe with worst");
    println!("pairs near the 150ms mark, and the live-TV service holds its 200ms bound");
    println!("even on the longest path.");
}
