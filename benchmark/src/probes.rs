//! Per-layer probes: one public function of one layer, called from outside,
//! timed over five batches of a fixed operation count behind
//! `std::hint::black_box`, reported as the median ns per operation. They
//! run in the traced run only, each batch under a span of its own.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use son_netsim::driver::{Driver, Transport};
use son_netsim::event::{EventQueue, TieKey};
use son_netsim::link::PipeId;
use son_netsim::process::{Process, ProcessId, TimerId};
use son_netsim::rng::SimRng;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::Ctx;
use son_netsim::time::{SimDuration, SimTime};
use son_netsim::underlay::{Attachment, UEdgeId};
use son_node::{UdpTransport, VnetTransport};
use son_obs::snapshot::SnapshotProducer;
use son_obs::{LatencyHistogram, PerfRegistry, Registry};
use son_overlay::auth::KeyRegistry;
use son_overlay::builder::continental_overlay;
use son_overlay::dedup::DedupTable;
use son_overlay::linkproto::{
    FecLink, ItPriorityLink, LinkAction, LinkProto, RealtimeLink, ReliableLink,
};
use son_overlay::packet::{Control, DataPacket, LinkAdvert, Lsa};
use son_overlay::routing::Forwarding;
use son_overlay::service::FecParams;
use son_overlay::state::connectivity::{ConnectivityConfig, ConnectivityMonitor};
use son_overlay::wire;
use son_overlay::{
    ClientOp, Destination, FlowKey, FlowSpec, LinkService, NodeConfig, OverlayAddr, OverlayNode,
    RealtimeParams, Wire,
};
use son_topo::{k_node_disjoint_paths, EdgeId, Graph, NodeId, SptScratch, TopoSnapshot};

use crate::sim;
use crate::spans::Spans;
use crate::stats;

/// Batches per probe; the figure reported is their median.
pub const BATCHES: usize = 5;

/// Runs the probes and collects `(metric name, median ns per op)`.
pub struct Probes<'a> {
    spans: &'a mut Spans,
    /// Divides every operation count (`--quick`).
    shrink: usize,
    pub results: Vec<(&'static str, f64)>,
}

impl<'a> Probes<'a> {
    pub fn new(spans: &'a mut Spans, quick: bool) -> Self {
        Probes {
            spans,
            shrink: if quick { 20 } else { 1 },
            results: Vec::new(),
        }
    }

    /// Times [`BATCHES`] batches; `batch(ops)` does `ops` operations and
    /// returns the seconds they took (set-up inside it stays untimed).
    fn probe(&mut self, name: &'static str, ops: usize, mut batch: impl FnMut(usize) -> f64) {
        let ops = (ops / self.shrink).max(16);
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let id = self.spans.enter(name);
                let secs = batch(ops);
                self.spans.exit(id);
                secs * 1e9 / ops as f64
            })
            .collect();
        self.results
            .push((name, stats::median(&per_op).expect("five batches")));
    }

    /// Every probe except the sharded-engine one.
    pub fn run_all(&mut self) {
        self.event_queue();
        self.wire_codec();
        self.node_chain();
        self.routing_and_topo();
        self.link_protocols();
        self.dedup_auth();
        self.observability();
        self.transports();
    }

    fn event_queue(&mut self) {
        const DEPTH: usize = 4096;
        // Increments are drawn before the clock starts.
        let steps: Vec<u64> = {
            let mut rng = SimRng::seed(1);
            (0..DEPTH).map(|_| rng.uniform_u64(1, 2_000_000)).collect()
        };
        self.probe("netsim.event.hold_ns.d4096", 200_000, |ops| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for (i, &s) in steps.iter().enumerate() {
                q.schedule(SimTime::from_nanos(s), i as u64);
            }
            let t = Instant::now();
            for i in 0..ops {
                let (at, payload) = q.pop().expect("steady depth");
                q.schedule(at + SimDuration::from_nanos(steps[i % DEPTH]), payload);
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(q.len());
            secs
        });
        self.probe("netsim.event.keyed_hold_ns.d4096", 100_000, |ops| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for (i, &s) in steps.iter().enumerate() {
                let at = SimTime::from_nanos(s);
                q.schedule_keyed(at, TieKey::root(SimTime::ZERO, i as u64), i as u64);
            }
            let t = Instant::now();
            for i in 0..ops {
                let (at, key, _, payload) = q.pop_full().expect("steady depth");
                let next = at + SimDuration::from_nanos(steps[i % DEPTH]);
                q.schedule_keyed(next, key.child(at, 0), payload);
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(q.len());
            secs
        });
        self.probe("netsim.event.cancel_ns", 50_000, |ops| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..64 {
                q.schedule(SimTime::from_secs(1_000), i);
            }
            // Far-future timers that get cancelled: the retransmission
            // timer pattern tombstone compaction exists for.
            let ids: Vec<_> = (0..ops)
                .map(|i| q.schedule(SimTime::from_millis(10 + i as u64), i as u64))
                .collect();
            let t = Instant::now();
            for id in ids {
                std::hint::black_box(q.cancel(id));
            }
            std::hint::black_box(q.peek_time());
            t.elapsed().as_secs_f64()
        });
    }

    fn wire_codec(&mut self) {
        let data1000 = Wire::Data(data_packet(1, 1000, true));
        let data64 = Wire::Data(data_packet(1, 64, true));
        let lsa = Wire::Control(Control::Lsa(Lsa {
            origin: NodeId(1),
            seq: 7,
            links: (0..4)
                .map(|e| LinkAdvert {
                    edge: EdgeId(e),
                    up: true,
                    latency_ms: 9.25,
                    loss: 0.0,
                })
                .collect(),
        }));
        let frame = wire::encode(&data1000).expect("data frames encode");
        self.probe("overlay.wire.encode_ns.data1000", 200_000, |ops| {
            let mut buf = Vec::with_capacity(2048);
            let t = Instant::now();
            for _ in 0..ops {
                buf.clear();
                wire::encode_into(std::hint::black_box(&data1000), &mut buf).expect("encodes");
                std::hint::black_box(buf.len());
            }
            t.elapsed().as_secs_f64()
        });
        self.probe("overlay.wire.decode_ns.data1000", 200_000, |ops| {
            let t = Instant::now();
            for _ in 0..ops {
                std::hint::black_box(wire::decode(std::hint::black_box(&frame)).expect("decodes"));
            }
            t.elapsed().as_secs_f64()
        });
        for (name, w) in [
            ("overlay.wire.recode_ns.data1000", &data1000),
            ("overlay.wire.recode_ns.data64", &data64),
            ("overlay.wire.recode_ns.lsa", &lsa),
        ] {
            self.probe(name, 200_000, |ops| {
                let t = Instant::now();
                for _ in 0..ops {
                    std::hint::black_box(wire::recode(std::hint::black_box(w)).expect("recodes"));
                }
                t.elapsed().as_secs_f64()
            });
        }
    }

    /// Ingress, transit and egress `on_message` of a three-node chain, with
    /// no engine underneath.
    fn node_chain(&mut self) {
        const OPS: usize = 20_000;
        let ops = (OPS / self.shrink).max(16);
        let mut per_stage: [Vec<f64>; 3] = Default::default();
        for _ in 0..BATCHES {
            let id = self.spans.enter("overlay.node.chain");
            let mut chain = Chain::new();
            let secs = chain.pump(ops);
            self.spans.exit(id);
            for (stage, s) in per_stage.iter_mut().zip(secs) {
                stage.push(s * 1e9 / ops as f64);
            }
        }
        for (name, v) in [
            "overlay.node.ingress_ns",
            "overlay.node.transit_ns",
            "overlay.node.egress_ns",
        ]
        .into_iter()
        .zip(&per_stage)
        {
            self.results
                .push((name, stats::median(v).expect("five batches")));
        }
    }

    fn routing_and_topo(&mut self) {
        let (g12, _) = continental_overlay(&continental_us(DEFAULT_CONVERGENCE));
        let g512 = sim::scale_topology(sim::SCALE_N, 10.0);

        let fwd = Forwarding::new(NodeId(0), g12.clone());
        self.probe("overlay.routing.next_hop_ns", 2_000_000, |ops| {
            let t = Instant::now();
            for i in 0..ops {
                let dst = NodeId(1 + i % 11);
                std::hint::black_box(fwd.unicast_next_hop(std::hint::black_box(dst)));
            }
            t.elapsed().as_secs_f64()
        });
        self.probe("topo.disjoint.k2_ns.n12", 2_000, |ops| {
            let t = Instant::now();
            for i in 0..ops {
                let (a, b) = (NodeId(i % 6), NodeId(6 + i % 6));
                std::hint::black_box(k_node_disjoint_paths(&g12, a, b, 2));
            }
            t.elapsed().as_secs_f64()
        });
        self.probe("topo.csr.freeze_ns.n512", 200, |ops| {
            let graphs: Vec<Graph> = (0..ops).map(|_| g512.clone()).collect();
            let t = Instant::now();
            for g in graphs {
                std::hint::black_box(TopoSnapshot::new(g));
            }
            t.elapsed().as_secs_f64()
        });
        for (name, g, ops) in [
            ("topo.csr.spt_ns.n12", &g12, 50_000),
            ("topo.csr.spt_ns.n512", &g512, 1_000),
        ] {
            let snap = TopoSnapshot::new(g.clone());
            let n = g.node_count();
            self.probe(name, ops, |ops| {
                let mut scratch = SptScratch::new();
                let t = Instant::now();
                for i in 0..ops {
                    std::hint::black_box(snap.spt(NodeId(i % n), &mut scratch));
                }
                t.elapsed().as_secs_f64()
            });
        }
        let snap = Arc::new(TopoSnapshot::new(g512.clone()));
        self.probe("overlay.routing.install_ns.n512", 1_000, |ops| {
            let mut fwd = Forwarding::new(NodeId(0), g512.clone());
            let t = Instant::now();
            for v in 0..ops {
                fwd.install(Arc::clone(&snap), v as u64 + 1);
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(fwd.installs());
            secs
        });

        // Node 0 hears node 1 re-advertise its links: identically (the
        // periodic refresh), then with a latency that changes every time.
        let incident: Vec<EdgeId> = g512.neighbors(NodeId(1)).map(|(_, e)| e).collect();
        let lsa = |seq: u64, latency_ms: f64| Lsa {
            origin: NodeId(1),
            seq,
            links: incident
                .iter()
                .map(|&edge| LinkAdvert {
                    edge,
                    up: true,
                    latency_ms,
                    loss: 0.0,
                })
                .collect(),
        };
        for (name, changing, ops) in [
            ("overlay.connectivity.on_lsa_noop_ns.n512", false, 100_000),
            ("overlay.connectivity.on_lsa_change_ns.n512", true, 100_000),
        ] {
            self.probe(name, ops, |ops| {
                let links = g512
                    .neighbors(NodeId(0))
                    .map(|(_, e)| (e, 1, g512.weight(e)))
                    .collect();
                let mut mon = ConnectivityMonitor::new(
                    NodeId(0),
                    g512.clone(),
                    links,
                    ConnectivityConfig::default(),
                );
                let stream: Vec<Lsa> = (0..ops)
                    .map(|i| {
                        lsa(
                            i as u64 + 1,
                            if changing && i % 2 == 1 { 12.0 } else { 10.0 },
                        )
                    })
                    .collect();
                let mut out = Vec::new();
                let t = Instant::now();
                for l in stream {
                    out.clear();
                    mon.on_lsa(SimTime::ZERO, l, None, &mut out);
                    std::hint::black_box(out.len());
                }
                t.elapsed().as_secs_f64()
            });
        }
    }

    fn link_protocols(&mut self) {
        fn endpoint(service: LinkService) -> Box<dyn LinkProto> {
            match service {
                LinkService::Realtime(p) => Box::new(RealtimeLink::new(p)),
                LinkService::ItPriority => Box::new(ItPriorityLink::new(64, None)),
                LinkService::Fec(p) => Box::new(FecLink::new(p)),
                _ => Box::new(ReliableLink::new(SimDuration::from_millis(30))),
            }
        }
        let services = [
            ("overlay.linkproto.reliable_cycle_ns", LinkService::Reliable),
            (
                "overlay.linkproto.realtime_cycle_ns",
                LinkService::Realtime(RealtimeParams::live_tv()),
            ),
            (
                "overlay.linkproto.itpriority_cycle_ns",
                LinkService::ItPriority,
            ),
            (
                "overlay.linkproto.fec_cycle_ns",
                LinkService::Fec(FecParams::light()),
            ),
        ];
        for (name, service) in services {
            self.probe(name, 50_000, |ops| {
                let (mut tx, mut rx) = (endpoint(service), endpoint(service));
                let packets: Vec<DataPacket> = (0..ops as u64)
                    .map(|seq| {
                        let mut p = data_packet(seq + 1, 1000, false);
                        p.spec = p.spec.with_link(service);
                        p
                    })
                    .collect();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let t = Instant::now();
                for (i, pkt) in packets.into_iter().enumerate() {
                    // One packet per simulated millisecond: on_send, the
                    // peer's on_data, and whatever control comes back.
                    let now = SimTime::from_millis(i as u64);
                    tx.on_send(now, pkt, &mut a);
                    for action in a.drain(..) {
                        match action {
                            LinkAction::Transmit(p) => rx.on_data(now, p, &mut b),
                            LinkAction::TransmitCtl(c) => rx.on_ctl(now, c, &mut b),
                            _ => {}
                        }
                    }
                    for action in b.drain(..) {
                        if let LinkAction::TransmitCtl(c) = action {
                            tx.on_ctl(now, c, &mut a);
                        }
                    }
                    a.clear();
                }
                let secs = t.elapsed().as_secs_f64();
                std::hint::black_box((tx.stats(), rx.stats()));
                secs
            });
        }
    }

    fn dedup_auth(&mut self) {
        let flow = flow_key();
        self.probe("overlay.dedup.first_sighting_ns", 1_000_000, |ops| {
            let mut table = DedupTable::new();
            let t = Instant::now();
            for seq in 0..ops as u64 {
                std::hint::black_box(table.first_sighting(flow, std::hint::black_box(seq)));
            }
            t.elapsed().as_secs_f64()
        });
        let keys = KeyRegistry::new(12, 0x5eed);
        self.probe("overlay.auth.tag_verify_ns", 1_000_000, |ops| {
            let t = Instant::now();
            for seq in 0..ops as u64 {
                let tag = keys.tag(NodeId(0), flow, seq, 1000);
                std::hint::black_box(keys.verify(NodeId(0), flow, seq, 1000, tag));
            }
            t.elapsed().as_secs_f64()
        });
    }

    fn observability(&mut self) {
        self.probe("obs.registry.inc_ns", 5_000_000, |ops| {
            let mut reg = Registry::new();
            let id = reg.counter("probe.counter", &[("node", "0")]);
            let t = Instant::now();
            for _ in 0..ops {
                reg.inc(std::hint::black_box(id));
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(reg.counter_value(id));
            secs
        });
        self.probe("obs.hist.record_ns", 5_000_000, |ops| {
            let mut h = LatencyHistogram::new();
            let t = Instant::now();
            for i in 0..ops as u64 {
                h.record(std::hint::black_box(1_000 + i % 50_000));
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(h.count());
            secs
        });
        self.probe("obs.perf.enter_exit_ns", 500_000, |ops| {
            // Sampling off: every span pays both clock reads.
            let perf = PerfRegistry::new(true);
            let t = Instant::now();
            for _ in 0..ops {
                let token = perf.enter("probe.span");
                perf.exit(token);
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(perf.total_count());
            secs
        });
        let node = chain_node(1);
        self.probe("obs.snapshot.produce_encode_ns", 2_000, |ops| {
            let mut producer = SnapshotProducer::new(1);
            let health = node.telemetry_health();
            let t = Instant::now();
            for i in 0..ops as u64 {
                let snap = producer.produce(i, i, node.obs().registry(), &health);
                std::hint::black_box(snap.encode().expect("snapshot encodes"));
            }
            t.elapsed().as_secs_f64()
        });
    }

    fn transports(&mut self) {
        fn ping<T: Transport>(a: &mut T, b: &mut T, frame: &[u8], ops: usize) -> f64 {
            let t = Instant::now();
            for _ in 0..ops {
                a.send_to(1, frame).expect("loopback send");
                loop {
                    if let Some(got) = b.recv_from().expect("loopback recv") {
                        std::hint::black_box(got);
                        break;
                    }
                }
            }
            t.elapsed().as_secs_f64()
        }
        for (name, bytes) in [
            ("node.udp.send_recv_ns.b64", 64),
            ("node.udp.send_recv_ns.b1000", 1000),
        ] {
            self.probe(name, 5_000, |ops| {
                let probe = |_| std::net::UdpSocket::bind("127.0.0.1:0")?.local_addr();
                let addrs: Vec<_> = (0..2)
                    .map(probe)
                    .collect::<std::io::Result<_>>()
                    .expect("loopback ports");
                let mut a = UdpTransport::bind(addrs[0], vec![None, Some(addrs[1])])
                    .expect("bind loopback");
                let mut b = UdpTransport::bind(addrs[1], vec![Some(addrs[0]), None])
                    .expect("bind loopback");
                ping(&mut a, &mut b, &vec![0xAB; bytes], ops)
            });
        }
        self.probe("node.vnet.send_recv_ns", 100_000, |ops| {
            let mut nets = VnetTransport::mesh(2, &[(0, 1)]);
            let mut b = nets.pop().expect("two endpoints");
            let mut a = nets.pop().expect("two endpoints");
            ping(&mut a, &mut b, &[0xAB; 1000], ops)
        });
    }

    /// `sim_fwd_churn` for three simulated seconds on the sharded engine
    /// (two shards) against the same on the sequential one.
    pub fn sharded_engine(&mut self, seed: u64, tid: u32) {
        let plan = sim::plan(sim::SimWorkload::FwdChurn, seed, 3);
        let id = self.spans.enter("netsim.shard.k2");
        let seq = sim::run_rep(&plan, false, 1, self.spans, tid);
        let mut built = sim::build(&plan, false, 2);
        let t = Instant::now();
        built.sim.run_until(plan.horizon);
        let sharded_s = t.elapsed().as_secs_f64();
        self.spans.exit(id);
        assert_eq!(
            built.sim.fingerprint(),
            seq.harvest.fingerprint,
            "the sharded engine must replay the sequential run"
        );
        self.results.push((
            "netsim.shard.wall_ratio_vs_seq.k2",
            sharded_s / seq.run_wall_s,
        ));
        self.results.push((
            "netsim.shard.windows.k2",
            built.sim.shard_stats().windows as f64,
        ));
    }
}

fn flow_key() -> FlowKey {
    FlowKey::new(
        OverlayAddr::new(NodeId(0), 50),
        Destination::Unicast(OverlayAddr::new(NodeId(2), 70)),
    )
}

/// A best-effort data packet of `size` bytes; `real_payload` carries that
/// many bytes, otherwise the size is virtual (what the workloads' clients
/// send).
fn data_packet(flow_seq: u64, size: usize, real_payload: bool) -> DataPacket {
    DataPacket {
        flow: flow_key(),
        flow_seq,
        origin: NodeId(0),
        spec: FlowSpec::best_effort(),
        mask: None,
        resolved_dst: None,
        link_seq: 0,
        created_at: SimTime::ZERO,
        size,
        payload: if real_payload {
            Bytes::from(vec![0xAB; size])
        } else {
            Bytes::new()
        },
        ttl: 32,
        auth_tag: 0,
        trace: None,
    }
}

/// What a handler did through its `Ctx`, kept in arrival order. The clock
/// is frozen and timers are accepted but never fire.
struct FifoDriver {
    now: SimTime,
    rngs: Vec<SimRng>,
    /// `(pipe, frame)` link sends.
    sent: Vec<(PipeId, Wire)>,
    /// `(to, message)` local IPC.
    direct: Vec<(ProcessId, Wire)>,
    timers: u64,
}

impl Driver<Wire> for FifoDriver {
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self, pid: ProcessId) -> &mut SimRng {
        &mut self.rngs[pid.0]
    }
    fn send(&mut self, _pid: ProcessId, pipe: PipeId, msg: Wire) {
        self.sent.push((pipe, msg));
    }
    fn send_direct(&mut self, _pid: ProcessId, to: ProcessId, _delay: SimDuration, msg: Wire) {
        self.direct.push((to, msg));
    }
    fn set_timer(&mut self, _pid: ProcessId, _delay: SimDuration, _token: u64) -> TimerId {
        self.timers += 1;
        TimerId::from_raw(self.timers)
    }
    fn cancel_timer(&mut self, _pid: ProcessId, _timer: TimerId) -> bool {
        true
    }
    fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId> {
        Some(PipeId(pipe.0 ^ 1))
    }
    fn pipe_dst(&self, _pipe: PipeId) -> ProcessId {
        ProcessId(usize::MAX)
    }
    fn rebind_pipe(&mut self, _pipe: PipeId, _attachment: Attachment) {}
    fn pipe_route(&mut self, _pipe: PipeId) -> Option<Vec<UEdgeId>> {
        None
    }
    fn count(&mut self, _name: &str) {}
    fn count_add(&mut self, _name: &str, _n: u64) {}
}

const CHAIN: usize = 3;
/// Pids of the sender and receiver clients (the daemons are 0, 1, 2).
const TX_CLIENT: ProcessId = ProcessId(3);
const RX_CLIENT: ProcessId = ProcessId(4);

fn chain_topology() -> Graph {
    let mut g = Graph::new(CHAIN);
    for i in 0..CHAIN - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1), 1.0);
    }
    g
}

/// Pipe carrying frames from node `from` to node `to` of the chain: the
/// pair of edge `e` is `(2e, 2e + 1)`, the even one running up the chain.
fn chain_pipe(from: usize, to: usize) -> PipeId {
    PipeId(2 * from.min(to) + usize::from(from > to))
}

/// One daemon of the chain, wired as `NodeRuntime::new` wires it.
fn chain_node(me: usize) -> OverlayNode {
    let topo = chain_topology();
    let mut node = OverlayNode::new(
        NodeId(me),
        topo.clone(),
        KeyRegistry::new(CHAIN, 0x5eed),
        NodeConfig::default(),
    );
    let mut links = Vec::new();
    let mut in_regs = Vec::new();
    for (neighbor, e) in topo.neighbors(NodeId(me)) {
        in_regs.push((chain_pipe(neighbor.0, me), links.len(), 0));
        links.push((
            e,
            neighbor,
            vec![chain_pipe(me, neighbor.0)],
            topo.weight(e),
        ));
    }
    node.wire_links(links);
    for (pipe, link, provider) in in_regs {
        node.register_in_pipe(pipe, link, provider);
    }
    node
}

struct Chain {
    nodes: Vec<OverlayNode>,
    driver: FifoDriver,
}

impl Chain {
    /// Three started daemons whose start-up control traffic has been
    /// exchanged, a sender client on node 0 with one open best-effort flow
    /// to a receiver client on node 2.
    fn new() -> Self {
        let mut chain = Chain {
            nodes: (0..CHAIN).map(chain_node).collect(),
            driver: FifoDriver {
                now: SimTime::from_millis(1),
                rngs: (0..5)
                    .map(|p| SimRng::seed(7).fork_idx("proc", p))
                    .collect(),
                sent: Vec::new(),
                direct: Vec::new(),
                timers: 0,
            },
        };
        for i in 0..CHAIN {
            let mut ctx = Ctx::from_driver(&mut chain.driver, ProcessId(i));
            chain.nodes[i].on_start(&mut ctx);
        }
        chain.settle();
        chain.deliver(
            0,
            TX_CLIENT,
            None,
            Wire::FromClient(ClientOp::Connect { port: 50 }),
        );
        chain.deliver(
            2,
            RX_CLIENT,
            None,
            Wire::FromClient(ClientOp::Connect { port: 70 }),
        );
        chain.deliver(
            0,
            TX_CLIENT,
            None,
            Wire::FromClient(ClientOp::OpenFlow {
                local_flow: 1,
                dst: Destination::Unicast(OverlayAddr::new(NodeId(2), 70)),
                spec: FlowSpec::best_effort(),
            }),
        );
        chain.settle();
        chain
    }

    fn deliver(&mut self, node: usize, from: ProcessId, pipe: Option<PipeId>, msg: Wire) {
        let mut ctx = Ctx::from_driver(&mut self.driver, ProcessId(node));
        self.nodes[node].on_message(&mut ctx, from, pipe, msg);
    }

    /// Delivers queued link frames until none is left; client IPC is dropped.
    fn settle(&mut self) {
        while !self.driver.sent.is_empty() {
            for (pipe, msg) in std::mem::take(&mut self.driver.sent) {
                // Pipe 2e runs from node e to e+1, pipe 2e+1 back.
                let (from, to) = if pipe.0 % 2 == 0 {
                    (pipe.0 / 2, pipe.0 / 2 + 1)
                } else {
                    (pipe.0 / 2 + 1, pipe.0 / 2)
                };
                self.deliver(to, ProcessId(from), Some(pipe), msg);
            }
        }
        self.driver.direct.clear();
    }

    /// Pushes `ops` 1000-byte packets through the chain one stage at a
    /// time; returns the seconds spent in the ingress, transit and egress
    /// node's `on_message`.
    fn pump(&mut self, ops: usize) -> [f64; 3] {
        let sends: Vec<Wire> = (0..ops)
            .map(|_| {
                Wire::FromClient(ClientOp::Send {
                    local_flow: 1,
                    size: 1000,
                    payload: Bytes::new(),
                })
            })
            .collect();
        let mut secs = [0.0; 3];
        let mut stage_in: Vec<(PipeId, Wire)> = Vec::new();
        let t = Instant::now();
        for msg in sends {
            self.deliver(0, TX_CLIENT, None, msg);
        }
        secs[0] = t.elapsed().as_secs_f64();
        for (stage, (node, from)) in [(1usize, 0usize), (2, 1)].into_iter().enumerate() {
            stage_in.clear();
            stage_in.append(&mut self.driver.sent);
            assert_eq!(stage_in.len(), ops, "every packet reaches node {node}");
            let t = Instant::now();
            for (pipe, msg) in stage_in.drain(..) {
                self.deliver(node, ProcessId(from), Some(pipe), msg);
            }
            secs[stage + 1] = t.elapsed().as_secs_f64();
        }
        let delivered = self
            .driver
            .direct
            .iter()
            .filter(|(to, _)| *to == RX_CLIENT)
            .count();
        assert_eq!(delivered, ops, "every packet reaches the receiver client");
        self.driver.direct.clear();
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_pipes_pair_up() {
        assert_eq!(chain_pipe(0, 1), PipeId(0));
        assert_eq!(chain_pipe(1, 0), PipeId(1));
        assert_eq!(chain_pipe(1, 2), PipeId(2));
        assert_eq!(chain_pipe(2, 1), PipeId(3));
    }

    #[test]
    fn every_probe_reports_a_positive_figure_once() {
        let mut spans = Spans::new();
        let mut probes = Probes::new(&mut spans, true);
        probes.run_all();
        let mut names: Vec<_> = probes.results.iter().map(|(n, _)| *n).collect();
        assert!(
            probes.results.iter().all(|&(_, v)| v > 0.0),
            "{:?}",
            probes.results
        );
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a probe name is used once");
    }
}
