//! E4 — §II-D: the latency cost of the overlay is small.
//!
//! "The latency costs of structured overlay networks are small: since
//! overlay node locations are carefully selected, the latency overhead of
//! using a multi-hop indirect overlay path rather than the direct Internet
//! path is small. Furthermore, the computational costs to traverse up and
//! down the network stack... amount to less than 1ms additional latency per
//! intermediate overlay node."
//!
//! For every ordered city pair on the continental-US scenario we compare the
//! best *direct* single-provider underlay latency against the multi-hop
//! overlay path (short links + per-hop processing) and report the stretch
//! distribution. The per-hop claim (<1 ms per hop) is measured on the socket
//! path by `son-exp udp_parity`'s `added_per_hop_p50_us`.

use super::Opts;
use crate::{f, row, table_header};
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::SimTime;
use son_netsim::underlay::Attachment;
use son_overlay::builder::{continental_overlay, HOP_PROCESSING};
use son_topo::{dijkstra, NodeId};

pub fn run(_: &Opts) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    let mut ul = sc.underlay.clone();
    let hop_ms = HOP_PROCESSING.as_millis_f64();

    let mut stretches = son_netsim::stats::Percentiles::new();
    let mut added_ms = son_netsim::stats::Percentiles::new();
    let mut hops_all = son_netsim::stats::Percentiles::new();
    let mut worst: Option<(usize, usize, f64)> = None;

    for a in 0..cities.len() {
        let spt = dijkstra(&topo, NodeId(a));
        for b in 0..cities.len() {
            if a == b {
                continue;
            }
            // Direct path: best single provider.
            let direct = sc
                .isps
                .iter()
                .filter_map(|&isp| {
                    ul.resolve(SimTime::ZERO, Attachment::OnNet(isp), cities[a], cities[b])
                        .ok()
                        .map(|p| p.latency.as_millis_f64())
                })
                .fold(f64::INFINITY, f64::min);
            // Overlay path: shortest overlay route + per-hop processing at
            // each traversed node (including endpoints' stacks).
            let path = spt.path_to(NodeId(b)).expect("overlay connected");
            let overlay_ms = path.cost + hop_ms * path.hops() as f64;
            let stretch = overlay_ms / direct;
            stretches.record(stretch);
            added_ms.record(overlay_ms - direct);
            hops_all.record(path.hops() as f64);
            if worst.as_ref().is_none_or(|&(_, _, s)| stretch > s) {
                worst = Some((a, b, stretch));
            }
        }
    }

    table_header(&[
        ("metric", 28),
        ("p50", 8),
        ("mean", 8),
        ("p95", 8),
        ("max", 8),
    ]);
    let pr = |name: &str, p: &mut son_netsim::stats::Percentiles| {
        row(&[
            (name.to_string(), 28),
            (f(p.quantile(0.5).unwrap(), 3), 8),
            (f(p.mean().unwrap(), 3), 8),
            (f(p.quantile(0.95).unwrap(), 3), 8),
            (f(p.max().unwrap(), 3), 8),
        ]);
    };
    pr("path stretch (x)", &mut stretches);
    pr("added latency (ms)", &mut added_ms);
    pr("overlay hops", &mut hops_all);

    if let Some((a, b, s)) = worst {
        println!(
            "\nworst pair: {} -> {} at {:.3}x",
            sc.underlay.city_name(cities[a]),
            sc.underlay.city_name(cities[b]),
            s
        );
    }
    println!(
        "per-hop processing charged: {:.3} ms (paper: <1 ms)",
        hop_ms
    );
    println!();
    println!("Shape check (paper): overlay stretch stays small (typically <1.2x) because");
    println!("overlay links follow the same fiber; the processing cost per intermediate");
    println!("node is far below 1ms of added latency. Run `cargo bench` for the measured");
    println!("per-packet forwarding cost on this machine.");
}
