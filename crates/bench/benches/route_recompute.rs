//! Route-recomputation cost at 16/64/256 overlay nodes: what one node pays
//! per real topology change (SPT rebuild into the dense next-hop table),
//! per flow setup (k-disjoint paths, dissemination graph), and per snapshot
//! freeze — the sub-second rerouting budget, measured.
//!
//! `spt_graph_hashmap_*` is the pre-snapshot Dijkstra over the pointer-based
//! `Graph`; `spt_csr_dense_*` is the CSR index Dijkstra with reused scratch
//! buffers that [`son_overlay::routing::Forwarding`] now runs.
//!
//! `snapshot_rebuild/{64,256,512}` is the part of a rebuild neither of those
//! nor a `Forwarding::install` covers: `ConnectivityMonitor::snapshot()`
//! after a version bump, tallying a full LSDB (every node's LSA over the
//! scale curve's ring-with-chords) into the next view's weights.

use criterion::{criterion_group, criterion_main, Criterion};
use son_bench::ring_with_chords;
use son_bench::scale::scale_topology;
use son_netsim::time::SimTime;
use son_overlay::packet::{LinkAdvert, Lsa};
use son_overlay::state::connectivity::{ConnectivityConfig, ConnectivityMonitor};
use son_topo::csr::{Spt, SptScratch};
use son_topo::{dijkstra, k_node_disjoint_paths, robust_dissemination_graph, Graph, NodeId};

/// What `origin` advertises over `g`: every incident link up at `latency_ms`.
fn lsa_of(g: &Graph, origin: NodeId, seq: u64, latency_ms: f64) -> Lsa {
    Lsa {
        origin,
        seq,
        links: g
            .neighbors(origin)
            .map(|(_, edge)| LinkAdvert {
                edge,
                up: true,
                latency_ms,
                loss: 0.0,
            })
            .collect(),
    }
}

fn bench_snapshot_rebuild(c: &mut Criterion) {
    for n in [64usize, 256, 512] {
        let g = scale_topology(n, 10.0);
        let links = g
            .neighbors(NodeId(0))
            .map(|(_, e)| (e, 1, g.weight(e)))
            .collect();
        let mut mon =
            ConnectivityMonitor::new(NodeId(0), g.clone(), links, ConnectivityConfig::default());
        let mut out = Vec::new();
        for origin in 1..n {
            mon.on_lsa(
                SimTime::ZERO,
                lsa_of(&g, NodeId(origin), 1, 10.0),
                None,
                &mut out,
            );
        }
        let mut seq = 1;
        c.bench_function(&format!("snapshot_rebuild/{n}"), |b| {
            b.iter(|| {
                // A changed LSA moves the version, so the next snapshot is a
                // real rebuild; the LSA itself costs ~0.1 us.
                seq += 1;
                out.clear();
                let latency_ms = if seq % 2 == 0 { 12.0 } else { 10.0 };
                mon.on_lsa(
                    SimTime::ZERO,
                    lsa_of(&g, NodeId(1), seq, latency_ms),
                    None,
                    &mut out,
                );
                std::hint::black_box(mon.snapshot())
            })
        });
    }
}

fn bench_route_recompute(c: &mut Criterion) {
    for (n, chord_every) in [(16usize, 4usize), (64, 8), (256, 0)] {
        let g = ring_with_chords(n, 10.0, chord_every);
        let snap = g.freeze();
        let mut scratch = SptScratch::new();
        let mut spt = Spt::empty();
        let (src, dst) = (NodeId(0), NodeId(n / 2 - 1));

        c.bench_function(&format!("spt_graph_hashmap_{n}"), |b| {
            b.iter(|| std::hint::black_box(dijkstra(&g, src)))
        });

        c.bench_function(&format!("spt_csr_dense_{n}"), |b| {
            b.iter(|| {
                snap.spt_with_into(src, |e| snap.weight(e), &mut scratch, &mut spt);
                std::hint::black_box(spt.next_hop(dst))
            })
        });

        c.bench_function(&format!("freeze_snapshot_{n}"), |b| {
            b.iter(|| std::hint::black_box(g.freeze()))
        });

        c.bench_function(&format!("k_disjoint_k2_{n}"), |b| {
            b.iter(|| std::hint::black_box(k_node_disjoint_paths(&g, src, dst, 2)))
        });

        c.bench_function(&format!("dissemination_rebuild_{n}"), |b| {
            b.iter(|| std::hint::black_box(robust_dissemination_graph(&g, src, dst)))
        });
    }
}

criterion_group!(benches, bench_route_recompute, bench_snapshot_rebuild);
criterion_main!(benches);
