//! Property-based tests on the overlay's protocol state machines.
//!
//! Each property drives the state machines directly with proptest-generated
//! inputs: send sizes and acks, loss positions, arrival orders, sources and
//! copies. Invariants checked:
//!
//! * Reliable Data Link: link seqs are dense and acks only shrink the
//!   buffer (exactly-once delivery under any loss, duplication and reorder
//!   is `link_arq.rs`'s property, over both users of the ARQ core).
//! * FEC: any loss pattern with at most `r` losses per block is fully
//!   recovered with zero feedback.
//! * Session ordered delivery: any arrival permutation is delivered in
//!   strictly increasing sequence order with nothing lost.
//! * IT-Priority: round-robin never starves an active source, and per-source
//!   buffers never exceed their cap.
//! * De-duplication: across arbitrary interleavings, each (flow, seq) is
//!   accepted exactly once.

use proptest::prelude::*;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::addr::{Destination, FlowKey, OverlayAddr, VirtualPort};
use son_overlay::dedup::DedupTable;
use son_overlay::linkproto::{FecLink, ItPriorityLink, LinkAction, LinkProto, ReliableLink};
use son_overlay::packet::{DataPacket, LinkCtl};
use son_overlay::service::{FecParams, FlowSpec, LinkService};
use son_overlay::session::{SessionAction, SessionTable};
use son_topo::NodeId;

fn pkt(src_node: usize, flow_seq: u64) -> DataPacket {
    DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(src_node), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(9), 2)),
        ),
        flow_seq,
        origin: NodeId(src_node),
        spec: FlowSpec::reliable(),
        mask: None,
        resolved_dst: None,
        link_seq: 0,
        created_at: SimTime::ZERO,
        size: 100,
        payload: bytes::Bytes::new(),
        ttl: 32,
        auth_tag: 0,
        trace: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn fec_recovers_any_r_losses_per_block(
        // One loss position per 5-packet block, or none.
        loss_pos in proptest::collection::vec(proptest::option::of(0usize..5), 6),
    ) {
        let params = FecParams { k: 5, r: 1 };
        let mut sender = FecLink::new(params);
        let mut receiver = FecLink::new(params);
        let mut out = Vec::new();
        let total = 30u64;
        for i in 0..total {
            let mut p = pkt(0, i + 1);
            p.spec.link = LinkService::Fec(params);
            sender.on_send(SimTime::ZERO, p, &mut out);
        }
        let mut delivered = Vec::new();
        let mut data_idx = 0usize;
        let mut rout = Vec::new();
        for action in out {
            match action {
                LinkAction::Transmit(p) => {
                    let block = data_idx / 5;
                    let in_block = data_idx % 5;
                    data_idx += 1;
                    if loss_pos.get(block).copied().flatten() == Some(in_block) {
                        continue; // lost
                    }
                    receiver.on_data(SimTime::ZERO, p, &mut rout);
                }
                LinkAction::TransmitCtl(c) => receiver.on_ctl(SimTime::ZERO, c, &mut rout),
                _ => {}
            }
        }
        for action in rout {
            if let LinkAction::Deliver(p) = action {
                delivered.push(p.flow_seq);
            }
        }
        delivered.sort_unstable();
        prop_assert_eq!(delivered, (1..=total).collect::<Vec<_>>());
    }

    fn session_ordered_delivery_is_in_order_and_complete(
        perm in Just(()).prop_perturb(|(), mut rng| {
            use proptest::prelude::RngCore;
            let mut v: Vec<u64> = (1..=30).collect();
            for i in (1..v.len()).rev() {
                let j = (rng.next_u32() as usize) % (i + 1);
                v.swap(i, j);
            }
            v
        }),
    ) {
        let mut table = SessionTable::new(NodeId(9));
        let mut actions = Vec::new();
        table.connect(VirtualPort(2), son_netsim::process::ProcessId(1), &mut actions).unwrap();
        let spec = FlowSpec::reliable();
        let mut delivered = Vec::new();
        for (i, &seq) in perm.iter().enumerate() {
            let mut p = pkt(0, seq);
            p.spec = spec;
            let mut out = Vec::new();
            table.deliver(
                SimTime::from_millis(i as u64),
                p,
                &[VirtualPort(2)],
                &mut out,
            );
            for a in out {
                if let SessionAction::ToClient {
                    event: son_overlay::packet::SessionEvent::Deliver { seq, .. },
                    ..
                } = a
                {
                    delivered.push(seq);
                }
            }
        }
        prop_assert_eq!(delivered, (1..=30u64).collect::<Vec<_>>(),
            "arrival order {:?}", perm);
    }

    fn it_priority_never_starves_active_sources(
        arrivals in proptest::collection::vec(0usize..4, 40..120),
    ) {
        // Paced scheduler; four sources send per the arrival pattern.
        let mut link = ItPriorityLink::new(64, Some(8_000_000));
        let mut now = SimTime::ZERO;
        let mut actions = Vec::new();
        for &src in &arrivals {
            link.on_send(now, pkt(src, 1), &mut actions);
        }
        // Drain the scheduler, recording transmit order.
        let mut sent_by: [u64; 4] = [0; 4];
        for _ in 0..10_000 {
            let mut timer = None;
            for a in actions.drain(..) {
                match a {
                    LinkAction::Transmit(p) => sent_by[p.flow.src.node.0] += 1,
                    LinkAction::Timer { delay, token } if token == 0 => timer = Some((delay, token)),
                    _ => {}
                }
            }
            let Some((delay, token)) = timer else { break };
            now += delay;
            link.on_timer(now, token, &mut actions);
        }
        let offered: [u64; 4] = {
            let mut o = [0u64; 4];
            for &s in &arrivals {
                o[s] += 1;
            }
            o
        };
        // Everything offered within the per-source cap must be transmitted.
        for s in 0..4 {
            prop_assert_eq!(sent_by[s], offered[s].min(64),
                "source {} starved: {:?} of {:?}", s, sent_by, offered);
        }
    }

    fn dedup_accepts_each_seq_exactly_once(
        copies in proptest::collection::vec((1u64..50, 1usize..4), 10..80),
    ) {
        let mut table = DedupTable::new();
        let flow = pkt(0, 1).flow;
        let mut accepted = std::collections::BTreeSet::new();
        for &(seq, n) in &copies {
            for _ in 0..n {
                if table.first_sighting(flow, seq) {
                    prop_assert!(accepted.insert(seq), "seq {seq} accepted twice");
                }
            }
        }
        let expected: std::collections::BTreeSet<u64> =
            copies.iter().map(|&(s, _)| s).collect();
        prop_assert_eq!(accepted, expected);
    }

    fn reliable_link_seqs_are_strictly_increasing(
        sizes in proptest::collection::vec(1usize..2000, 1..50),
    ) {
        let mut link = ReliableLink::new(SimDuration::from_millis(10));
        let mut out = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let mut p = pkt(0, i as u64 + 1);
            p.size = size;
            link.on_send(SimTime::ZERO, p, &mut out);
        }
        let seqs: Vec<u64> = out
            .iter()
            .filter_map(|a| match a {
                LinkAction::Transmit(p) => Some(p.link_seq),
                _ => None,
            })
            .collect();
        prop_assert_eq!(seqs.len(), sizes.len());
        prop_assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    fn reliable_acks_shrink_unacked_monotonically(
        ack_cums in proptest::collection::vec(0u64..30, 1..20),
    ) {
        let mut link = ReliableLink::new(SimDuration::from_millis(10));
        let mut out = Vec::new();
        for i in 0..25u64 {
            link.on_send(SimTime::ZERO, pkt(0, i + 1), &mut out);
        }
        let mut prev = link.unacked_len();
        let mut high = 0u64;
        for &cum in &ack_cums {
            link.on_ctl(
                SimTime::ZERO,
                LinkCtl::ReliableAck { cum, selective: vec![] },
                &mut out,
            );
            let len = link.unacked_len();
            if cum > high {
                high = cum;
                prop_assert!(len <= prev);
            } else {
                prop_assert_eq!(len, prev, "stale ack must not change state");
            }
            prev = len;
        }
    }
}

// --- routing / connectivity invariants (incremental recomputation) -------

mod routing_props {
    use std::sync::Arc;

    use proptest::prelude::*;
    use son_netsim::time::SimTime;
    use son_overlay::packet::{Adverts, LinkAdvert, Lsa};
    use son_overlay::routing::Forwarding;
    use son_overlay::state::connectivity::{ConnAction, ConnectivityConfig, ConnectivityMonitor};
    use son_topo::{EdgeId, Graph, NodeId, SptScratch, TopoSnapshot};

    /// Square 0-1-2-3 plus a pendant node 4 hanging off node 2: updates to
    /// the pendant edge e4 never move routes among 0..=3.
    fn topo5() -> Graph {
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 10.0); // e0
        g.add_edge(NodeId(1), NodeId(2), 10.0); // e1
        g.add_edge(NodeId(2), NodeId(3), 10.0); // e2
        g.add_edge(NodeId(3), NodeId(0), 10.0); // e3
        g.add_edge(NodeId(2), NodeId(4), 10.0); // e4 (pendant)
        g
    }

    /// The monitor as node 0 sees it (incident links e0 and e3).
    fn monitor0() -> ConnectivityMonitor {
        ConnectivityMonitor::new(
            NodeId(0),
            topo5(),
            vec![(EdgeId(0), 1, 10.0), (EdgeId(3), 1, 10.0)],
            ConnectivityConfig::default(),
        )
    }

    fn lsa_from_2(seq: u64, lat: f64, loss: f64, pendant_lat: f64) -> Lsa {
        Lsa {
            origin: NodeId(2),
            seq,
            links: Adverts::from([
                LinkAdvert {
                    edge: EdgeId(1),
                    up: true,
                    latency_ms: lat,
                    loss,
                },
                LinkAdvert {
                    edge: EdgeId(2),
                    up: true,
                    latency_ms: lat,
                    loss,
                },
                LinkAdvert {
                    edge: EdgeId(4),
                    up: true,
                    latency_ms: pendant_lat,
                    loss,
                },
            ]),
        }
    }

    /// An 8-node ring with the four diameters as chords: 12 edges, every
    /// node of degree 3, many equal-cost paths for tie-breaks to bite on.
    fn ring8() -> Graph {
        let mut g = Graph::new(8);
        for i in 0..8 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 8), 10.0);
        }
        for i in 0..4 {
            g.add_edge(NodeId(i), NodeId(i + 4), 17.0);
        }
        g
    }

    /// The same edges and weights in a graph that shares nothing with `g`.
    fn rebuilt(g: &Graph) -> Graph {
        let mut fresh = Graph::new(g.node_count());
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            fresh.add_edge(a, b, g.weight(e));
        }
        fresh
    }

    fn weight_bits(snap: &TopoSnapshot) -> Vec<u64> {
        snap.graph()
            .edges()
            .map(|e| snap.weight(e).to_bits())
            .collect()
    }

    proptest! {
        /// A newer LSA with byte-identical link state is a no-op end to
        /// end: no version bump, no topology-view rebuild (same `Arc`), no
        /// forwarding invalidation, no SPT recomputation.
        fn noop_lsa_invalidates_nothing(
            lat in 1.0f64..50.0,
            loss in 0.0f64..0.5,
            pendant_lat in 1.0f64..50.0,
        ) {
            let mut mon = monitor0();
            let mut out = Vec::new();
            mon.on_lsa(SimTime::ZERO, lsa_from_2(1, lat, loss, pendant_lat), None, &mut out);
            let mut fwd = Forwarding::new(NodeId(0), topo5());
            fwd.install(mon.snapshot(), mon.version());
            let _ = fwd.multicast_out_edges(NodeId(2), &[NodeId(0), NodeId(3)]);

            let version = mon.version();
            let graph_builds = mon.graph_builds();
            let spt_builds = fwd.spt_builds();
            let installs = fwd.installs();
            let snap_before = mon.snapshot();

            // Same advertised state, newer sequence number (the periodic
            // refresh every node emits).
            let mut out = Vec::new();
            mon.on_lsa(SimTime::ZERO, lsa_from_2(2, lat, loss, pendant_lat), None, &mut out);

            prop_assert_eq!(mon.version(), version, "no-op LSA must not bump version");
            prop_assert!(
                !out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)),
                "no reroute signal on a no-op LSA"
            );
            let snap_after = mon.snapshot();
            prop_assert!(
                Arc::ptr_eq(&snap_before, &snap_after),
                "no graph rebuild: the cached snapshot is returned as-is"
            );
            prop_assert_eq!(mon.graph_builds(), graph_builds);

            fwd.install(snap_after, mon.version());
            prop_assert_eq!(fwd.installs(), installs, "no cache invalidation");
            prop_assert_eq!(fwd.spt_builds(), spt_builds, "no SPT recomputation");
        }

        /// Re-originating our own LSA without any link change (the periodic
        /// refresh) floods but does not bump the version.
        fn noop_refresh_originate_keeps_version(reps in 1usize..5) {
            let mut mon = monitor0();
            let mut out = Vec::new();
            mon.originate(None, &mut out);
            let version = mon.version();
            for _ in 0..reps {
                let mut out = Vec::new();
                mon.originate(None, &mut out);
                prop_assert!(
                    out.iter().any(|a| matches!(a, ConnAction::Flood { .. })),
                    "refresh still floods (peers may have missed the last)"
                );
                prop_assert!(
                    !out.iter().any(|a| matches!(a, ConnAction::TopologyChanged))
                );
            }
            prop_assert_eq!(mon.version(), version);
        }

        /// An update to an unrelated edge (the pendant e4) leaves every
        /// answer for untouched destinations byte-identical, across the
        /// full invalidate-and-rebuild path.
        fn unrelated_edge_update_preserves_untouched_answers(
            lat in 1.0f64..50.0,
            pendant_before in 1.0f64..50.0,
            pendant_after in 1.0f64..50.0,
        ) {
            let mut mon = monitor0();
            let mut out = Vec::new();
            mon.on_lsa(SimTime::ZERO, lsa_from_2(1, lat, 0.0, pendant_before), None, &mut out);
            let mut fwd = Forwarding::new(NodeId(0), topo5());
            fwd.install(mon.snapshot(), mon.version());

            let untouched = [NodeId(1), NodeId(2), NodeId(3)];
            let hops_before: Vec<_> =
                untouched.iter().map(|&d| fwd.unicast_next_hop(d)).collect();
            let mcast_before = fwd
                .multicast_out_edges(NodeId(2), &[NodeId(0), NodeId(3)])
                .to_vec();
            let anycast_before = fwd.anycast_resolve(&[NodeId(1), NodeId(3)]);

            // Node 2 re-advertises with only the pendant edge changed.
            let mut out = Vec::new();
            mon.on_lsa(SimTime::ZERO, lsa_from_2(2, lat, 0.0, pendant_after), None, &mut out);
            fwd.install(mon.snapshot(), mon.version());
            if pendant_after != pendant_before {
                prop_assert!(
                    out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)),
                    "a real change must still reroute"
                );
            }

            let hops_after: Vec<_> =
                untouched.iter().map(|&d| fwd.unicast_next_hop(d)).collect();
            prop_assert_eq!(hops_before, hops_after);
            prop_assert_eq!(
                mcast_before.as_slice(),
                fwd.multicast_out_edges(NodeId(2), &[NodeId(0), NodeId(3)])
            );
            prop_assert_eq!(anycast_before, fwd.anycast_resolve(&[NodeId(1), NodeId(3)]));
        }

        /// Anycast resolves to a member at the least path cost from the
        /// ingress node, whatever the weights, members and ingress.
        fn anycast_target_is_a_nearest_member(
            weights in proptest::collection::vec(1u32..50, 12),
            member_seed in proptest::collection::vec(any::<bool>(), 8),
            me in 0usize..8,
        ) {
            let g = ring8().with_weights(weights.into_iter().map(f64::from).collect());
            let members: Vec<NodeId> =
                g.nodes().filter(|v| member_seed[v.0]).collect();
            prop_assume!(!members.is_empty());
            let target = Forwarding::new(NodeId(me), g.clone()).anycast_resolve(&members).unwrap();
            prop_assert!(members.contains(&target));
            let sp = son_topo::dijkstra(&g, NodeId(me));
            let best = members.iter().map(|&m| sp.dist(m).unwrap()).fold(f64::INFINITY, f64::min);
            prop_assert!((sp.dist(target).unwrap() - best).abs() < 1e-9);
        }

        /// The forwarding engine keeps only a first-hop edge per
        /// destination, yet answers exactly what a full tree does: from
        /// every root, with every edge up and with a third of them down, the
        /// next hop is the full tree's, and anycast and multicast from the
        /// root itself, which read the tree cache, match the tree too.
        fn next_hop_row_answers_what_a_full_tree_does(
            weights in proptest::collection::vec(1u32..50, 12),
            down_keys in proptest::collection::vec(any::<u32>(), 12),
            member_seed in proptest::collection::vec(any::<bool>(), 8),
        ) {
            let plain = ring8().with_weights(weights.iter().copied().map(f64::from).collect());
            // The third of the edges with the smallest keys go down (the
            // connectivity monitor advertises a down link at 1e12).
            let mut by_key: Vec<usize> = (0..12).collect();
            by_key.sort_by_key(|&e| (down_keys[e], e));
            let mut degraded = plain.clone();
            for &e in &by_key[..4] {
                degraded.set_weight(EdgeId(e), 1e12);
            }
            let members: Vec<NodeId> = plain.nodes().filter(|v| member_seed[v.0]).collect();
            for g in [plain, degraded] {
                for me in g.nodes() {
                    let mut fwd = Forwarding::new(me, g.clone());
                    let full = son_topo::dijkstra_with(&g, me, |e| {
                        let w = g.weight(e);
                        if w >= 1e9 { f64::INFINITY } else { w }
                    });
                    for dst in g.nodes() {
                        let hop = full.next_hop(dst).map(|(_, e)| e);
                        prop_assert_eq!(fwd.unicast_next_hop(dst), hop, "{} -> {}", me, dst);
                        prop_assert_eq!(fwd.reaches(dst), dst == me || hop.is_some());
                    }

                    let nearest = if members.contains(&me) {
                        Some(me)
                    } else {
                        members
                            .iter()
                            .filter_map(|&m| full.dist(m).map(|d| (d, m)))
                            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                            .map(|(_, m)| m)
                    };
                    prop_assert_eq!(fwd.anycast_resolve(&members), nearest, "anycast from {}", me);

                    let downstream: Vec<EdgeId> = full
                        .tree_mask(&members)
                        .iter()
                        .filter(|&e| {
                            let (a, b) = g.endpoints(e);
                            let far = if a == me { b } else { a };
                            (a == me || b == me) && full.parent(far) == Some((me, e))
                        })
                        .collect();
                    prop_assert_eq!(
                        fwd.multicast_out_edges(me, &members),
                        downstream.as_slice(),
                        "multicast from {}", me
                    );
                }
            }
        }

        /// Whatever the LSDB holds — links up and down, loss, adverts from
        /// one side only, withdrawn and evicted origins, a suspended local
        /// link, adverts for edges that do not exist — the snapshot's weights
        /// are bit-identical to the reference graph's, the trees over them
        /// are the same from every root, every snapshot shares the configured
        /// shape, and building the next one leaves the last one alone.
        fn snapshot_equals_the_reference_view(
            ops in proptest::collection::vec(
                (
                    0u8..8,
                    1usize..8,
                    proptest::collection::vec((0u8..4, 0u8..4, 0.5f64..40.0, 0.0f64..0.6), 3),
                ),
                1..24,
            ),
        ) {
            let topo = ring8();
            let incident: Vec<EdgeId> = topo.neighbors(NodeId(0)).map(|(_, e)| e).collect();
            let mut mon = ConnectivityMonitor::new(
                NodeId(0),
                topo.clone(),
                incident.iter().map(|&e| (e, 1, topo.weight(e))).collect(),
                ConnectivityConfig::default(),
            );
            let mut last = mon.snapshot();
            let mut scratch = SptScratch::new();
            for (step, (kind, origin, adverts)) in ops.into_iter().enumerate() {
                let now = SimTime::from_millis(100 * step as u64);
                let mut out = Vec::new();
                match kind {
                    // A remote origin (re-)advertises some of its links.
                    0..=4 => {
                        let mut links: Vec<LinkAdvert> = topo
                            .neighbors(NodeId(origin))
                            .zip(&adverts)
                            .filter(|(_, &(skip, ..))| skip != 0 || kind == 4)
                            .map(|((_, edge), &(_, down, latency_ms, loss))| LinkAdvert {
                                edge,
                                // Kind 4 is a graceful withdrawal: all down.
                                up: down != 0 && kind != 4,
                                latency_ms,
                                loss,
                            })
                            .collect();
                        if kind == 3 {
                            links.push(LinkAdvert {
                                edge: EdgeId(topo.edge_count() + origin),
                                up: false,
                                latency_ms: 1.0,
                                loss: 0.0,
                            });
                        }
                        let lsa = Lsa {
                            origin: NodeId(origin),
                            seq: 1 + step as u64,
                            links: links.into(),
                        };
                        mon.on_lsa(now, lsa, None, &mut out);
                    }
                    5 => mon.evict_origin(NodeId(origin), now, &mut out),
                    6 => mon.suspend_link(origin % incident.len(), &mut out),
                    _ => mon.release_link(origin % incident.len(), &mut out),
                }

                let last_bits = weight_bits(&last);
                let snap = mon.snapshot();
                let reference = TopoSnapshot::new(rebuilt(&mon.current_graph()));
                prop_assert_eq!(weight_bits(&snap), weight_bits(&reference), "step {}", step);
                for root in topo.nodes() {
                    let got = snap.spt(root, &mut scratch);
                    let want = reference.spt(root, &mut scratch);
                    for v in topo.nodes() {
                        prop_assert_eq!(got.parent(v), want.parent(v), "{} -> {}", root, v);
                        prop_assert_eq!(got.next_hop(v), want.next_hop(v), "{} -> {}", root, v);
                    }
                }
                prop_assert!(snap.graph().shares_shape_with(&topo));
                prop_assert!(snap.graph().shares_shape_with(last.graph()));
                prop_assert_eq!(weight_bits(&last), last_bits, "the previous view moved");
                last = snap;
            }
        }
    }
}
