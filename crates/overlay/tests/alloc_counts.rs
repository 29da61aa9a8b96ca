//! Allocation counts on the per-hop paths. On the LSA path a fresh decode
//! allocates the advert slice once, at its exact size, and a decode that
//! can reuse the sender's slice allocates nothing; a data packet whose
//! payload is virtual (the simulator's clients send sizes, not bytes)
//! crosses a hop without allocating, and so does a warm reliable link's
//! loss-free send/ack cycle. A hop across a warm simulated pipe — encode
//! into a pooled buffer, queue, decode at the receiver — allocates nothing
//! for either, and neither does a best-effort packet crossing a warm
//! daemon: frame in, link protocol, route, frame out. (Its own test binary:
//! the counting allocator is process-wide, the count is per thread.)

use bytes::Bytes;
use son_netsim::driver::Driver;
use son_netsim::link::{PipeConfig, PipeId};
use son_netsim::process::{Outgoing, Process, ProcessId, TimerId};
use son_netsim::rng::SimRng;
use son_netsim::sim::{Ctx, Simulation};
use son_netsim::time::{SimDuration, SimTime};
use son_netsim::underlay::{Attachment, UEdgeId};
use son_obs::alloc::{thread_allocations, CountingAlloc};
use son_overlay::auth::KeyRegistry;
use son_overlay::linkproto::{ItReliableLink, LinkAction, LinkProto, ReliableLink};
use son_overlay::packet::{Adverts, ClientOp, Control, DataPacket, LinkAdvert, Lsa, Wire};
use son_overlay::wire::{decode, encode, recode};
use son_overlay::{Destination, FlowKey, FlowSpec, NodeConfig, OverlayAddr, OverlayNode};
use son_topo::{EdgeId, Graph, NodeId};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocations();
    let out = f();
    (thread_allocations() - before, out)
}

fn lsa() -> Wire {
    Wire::Control(Control::Lsa(Lsa {
        origin: NodeId(3),
        seq: 9,
        links: (0..5)
            .map(|e| LinkAdvert {
                edge: EdgeId(e),
                up: true,
                latency_ms: 10.25,
                loss: 0.02,
            })
            .collect(),
    }))
}

#[test]
fn an_lsa_is_allocated_once_per_decode_and_never_per_hop() {
    let lsa = lsa();
    let frame = encode(&lsa).unwrap();
    let (fresh, decoded) = allocations_in(|| decode(&frame).unwrap());
    assert_eq!(decoded, lsa);
    assert_eq!(fresh, 1, "a datagram's adverts are one allocation");

    // Warm this thread's scratch buffer, then a hop through the codec
    // allocates nothing: the neighbor is handed the sender's slice.
    drop(recode(&lsa).unwrap());
    let (per_hop, hopped) = allocations_in(|| recode(&lsa).unwrap());
    assert_eq!(per_hop, 0);
    match (&hopped, &lsa) {
        (Wire::Control(Control::Lsa(got)), Wire::Control(Control::Lsa(sent))) => {
            assert!(Adverts::ptr_eq(&got.links, &sent.links));
        }
        _ => unreachable!("an LSA recodes to an LSA"),
    }
}

/// An advert list is one allocation however it is built, empty or not,
/// and a clone of it is none.
#[test]
fn an_advert_list_is_one_allocation() {
    let advert = |e| LinkAdvert {
        edge: EdgeId(e),
        up: true,
        latency_ms: 5.0,
        loss: 0.0,
    };
    for len in [0, 1, 7] {
        let (built, list) = allocations_in(|| (0..len).map(advert).collect::<Adverts>());
        assert_eq!((built, list.len()), (1, len), "collected");
        let (copied, copy) = allocations_in(|| Adverts::from(&list[..]));
        assert_eq!((copied, copy), (1, list.clone()), "copied");
        let (cloned, clone) = allocations_in(|| list.clone());
        assert_eq!(cloned, 0);
        assert!(Adverts::ptr_eq(&clone, &list));
    }
}

fn data_packet(spec: FlowSpec, flow_seq: u64) -> DataPacket {
    DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(0), 50),
            Destination::Unicast(OverlayAddr::new(NodeId(2), 70)),
        ),
        flow_seq,
        origin: NodeId(0),
        spec,
        mask: None,
        resolved_dst: None,
        link_seq: 9,
        created_at: SimTime::from_millis(3),
        size: 1000,
        payload: Bytes::new(),
        ttl: 32,
        auth_tag: 0,
        trace: None,
    }
}

#[test]
fn a_data_packet_with_a_virtual_payload_crosses_a_hop_without_allocating() {
    let data = Wire::Data(data_packet(FlowSpec::best_effort(), 4));
    drop(recode(&data).unwrap());
    let (per_hop, hopped) = allocations_in(|| recode(&data).unwrap());
    assert_eq!(hopped, data);
    assert_eq!(per_hop, 0, "an empty payload owns no allocation");
}

/// A warm link pair's loss-free cycle: `on_send`, the peer's `on_data`, the
/// ack back and, for IT-Reliable, the consumption and the grant back. The
/// ARQ core reuses its buffers, so the cycle allocates nothing.
#[test]
fn a_warm_reliable_link_cycle_allocates_nothing() {
    let rto = SimDuration::from_millis(30);
    for name in ["reliable", "it_reliable"] {
        let make = || -> Box<dyn LinkProto> {
            match name {
                "reliable" => Box::new(ReliableLink::new(rto)),
                _ => Box::new(ItReliableLink::new(rto, None)),
            }
        };
        let (mut tx, mut rx) = (make(), make());
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        let mut cycle = |seq: u64| {
            let now = SimTime::from_millis(seq);
            tx.on_send(now, data_packet(FlowSpec::reliable(), seq), &mut a);
            for action in a.drain(..) {
                if let LinkAction::Transmit(p) = action {
                    rx.on_data(now, p, &mut b);
                }
            }
            for action in b.drain(..) {
                match action {
                    LinkAction::TransmitCtl(ctl) => tx.on_ctl(now, ctl, &mut c),
                    LinkAction::Deliver(p) => rx.on_consumed(now, p.flow, &mut c),
                    _ => {}
                }
            }
            for action in c.drain(..) {
                if let LinkAction::TransmitCtl(ctl) = action {
                    tx.on_ctl(now, ctl, &mut a);
                }
            }
            a.clear();
        };
        (0..64).for_each(&mut cycle);
        let (allocations, ()) = allocations_in(|| (64..1064).for_each(&mut cycle));
        assert_eq!(allocations, 0, "{name}");
        assert_eq!(tx.queue_depth(), 0, "{name}: everything acked");
    }
}

/// One end of a simulated hop: poked (a message from no pipe), it puts its
/// frame on `out`; a frame arriving over a pipe becomes its frame.
struct HopEnd {
    frame: Wire,
    out: Option<PipeId>,
}

impl Process<Wire> for HopEnd {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        _: ProcessId,
        pipe: Option<PipeId>,
        msg: Wire,
    ) {
        match (pipe, self.out) {
            (None, Some(out)) => ctx.send_ref(out, &self.frame),
            _ => self.frame = msg,
        }
    }
}

/// Sends `frame` across a simulated pipe three times and counts the
/// allocations of the third hop, the engine's buffers warm by then; returns
/// the count with what the sender and the receiver hold afterwards.
fn warm_sim_hop(frame: Wire) -> (u64, Wire, Wire) {
    let mut sim: Simulation<Wire> = Simulation::new(3);
    let poke = || Wire::FromClient(ClientOp::Disconnect);
    let tx = sim.add_process(HopEnd { frame, out: None });
    let rx = sim.add_process(HopEnd {
        frame: poke(),
        out: None,
    });
    let pipe = sim.pipe(
        tx,
        rx,
        PipeConfig::with_latency(SimDuration::from_millis(2)),
    );
    sim.proc_mut::<HopEnd>(tx).unwrap().out = Some(pipe);
    let mut allocations = 0;
    for hop in 1..=3 {
        let at = SimTime::from_millis(10 * hop);
        sim.post(at, tx, poke());
        (allocations, _) = allocations_in(|| sim.run_until(at + SimDuration::from_millis(5)));
    }
    let end = |id| sim.proc_ref::<HopEnd>(id).unwrap().frame.clone();
    (allocations, end(tx), end(rx))
}

/// Once warm, an LSA crosses a simulated pipe without allocating, and the
/// receiver holds the sender's advert list, not a copy of it.
#[test]
fn a_warm_sim_hop_of_an_lsa_allocates_nothing_and_shares_the_list() {
    let (allocations, sent, got) = warm_sim_hop(lsa());
    assert_eq!(got, sent);
    assert_eq!(allocations, 0);
    match (&got, &sent) {
        (Wire::Control(Control::Lsa(got)), Wire::Control(Control::Lsa(sent))) => {
            assert!(Adverts::ptr_eq(&got.links, &sent.links));
        }
        _ => unreachable!("an LSA arrives as an LSA"),
    }
}

/// Once warm, a data frame with a virtual payload crosses a simulated pipe
/// without allocating.
#[test]
fn a_warm_sim_hop_of_a_virtual_payload_allocates_nothing() {
    let (allocations, sent, got) =
        warm_sim_hop(Wire::Data(data_packet(FlowSpec::best_effort(), 4)));
    assert_eq!(got, sent);
    assert_eq!(allocations, 0);
}

/// A driver that keeps what a daemon puts on its pipes as the bytes a
/// pipe would carry, in buffers it hands back for reuse: frames sent, in
/// order, with their pipes. Timers are accepted and never fire.
struct FrameTap {
    now: SimTime,
    rng: SimRng,
    sent: Vec<(PipeId, Vec<u8>)>,
    spare: Vec<Vec<u8>>,
}

impl FrameTap {
    /// Hands every kept frame's buffer back for reuse.
    fn recycle(&mut self) {
        self.spare.extend(self.sent.drain(..).map(|(_, mut frame)| {
            frame.clear();
            frame
        }));
    }
}

impl Driver<Wire> for FrameTap {
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self, _: ProcessId) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, pid: ProcessId, pipe: PipeId, msg: Wire) {
        self.send_ref(pid, pipe, &msg);
    }
    fn send_ref(&mut self, _: ProcessId, pipe: PipeId, msg: &dyn Outgoing<Wire>) {
        let mut frame = self.spare.pop().unwrap_or_default();
        msg.encode(&mut frame);
        self.sent.push((pipe, frame));
    }
    fn send_direct(&mut self, _: ProcessId, _: ProcessId, _: SimDuration, _: Wire) {}
    fn set_timer(&mut self, _: ProcessId, _: SimDuration, _: u64) -> TimerId {
        TimerId::from_raw(0)
    }
    fn cancel_timer(&mut self, _: ProcessId, _: TimerId) -> bool {
        false
    }
    fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId> {
        Some(PipeId(pipe.0 ^ 1))
    }
    fn pipe_dst(&self, _: PipeId) -> ProcessId {
        ProcessId(usize::MAX)
    }
    fn rebind_pipe(&mut self, _: PipeId, _: Attachment) {}
    fn pipe_route(&mut self, _: PipeId) -> Option<Vec<UEdgeId>> {
        None
    }
    fn count(&mut self, _: &str) {}
    fn count_add(&mut self, _: &str, _: u64) {}
}

/// Once warm, a best-effort packet crosses the middle daemon of a chain
/// 0 - 1 - 2 — its frame decoded, handed to the link protocol, routed and
/// handed to the next link protocol, whose frame goes out — without
/// allocating, and the frame that leaves is the codec's encoding of the
/// packet one hop on: one TTL less, the out-link's sequence number.
#[test]
fn a_warm_best_effort_transit_hop_allocates_nothing_and_sends_the_codec_bytes() {
    let mut chain = Graph::new(3);
    let to_0 = chain.add_edge(NodeId(0), NodeId(1), 10.0);
    let to_2 = chain.add_edge(NodeId(1), NodeId(2), 10.0);
    // Pipe 2e runs up the chain over edge e, pipe 2e + 1 back down.
    let (from_0, out_to_0, out_to_2) = (PipeId(0), PipeId(1), PipeId(2));
    let mut node = OverlayNode::new(
        NodeId(1),
        chain,
        KeyRegistry::new(3, 0x5eed),
        NodeConfig::default(),
    );
    node.wire_links(vec![
        (to_0, NodeId(0), vec![out_to_0], 10.0),
        (to_2, NodeId(2), vec![out_to_2], 10.0),
    ]);
    node.register_in_pipe(from_0, 0, 0);
    node.register_in_pipe(PipeId(3), 1, 0);
    let mut tap = FrameTap {
        now: SimTime::from_millis(1),
        rng: SimRng::seed(7),
        sent: Vec::new(),
        spare: Vec::new(),
    };
    node.on_start(&mut Ctx::from_driver(&mut tap, ProcessId(1)));
    tap.recycle();

    let packet = |seq: u64| DataPacket {
        link_seq: seq,
        ..data_packet(FlowSpec::best_effort(), seq)
    };
    let (warm, measured) = (64, 1000);
    let frames: Vec<Vec<u8>> = (1..=(warm + measured) as u64)
        .map(|seq| encode(&Wire::Data(packet(seq))).unwrap())
        .collect();
    let expected: Vec<Vec<u8>> = (1..=(warm + measured) as u64)
        .map(|seq| {
            let onward = DataPacket {
                ttl: 31,
                ..packet(seq)
            };
            encode(&Wire::Data(onward)).unwrap()
        })
        .collect();
    let mut hop = |tap: &mut FrameTap, i: usize| {
        tap.now = SimTime::from_millis(2 + i as u64);
        let mut ctx = Ctx::from_driver(tap, ProcessId(1));
        assert!(node.on_frame(&mut ctx, ProcessId(0), from_0, &frames[i], &None));
        assert_eq!(tap.sent.len(), 1, "packet {i} goes out once");
        let (pipe, frame) = &tap.sent[0];
        assert_eq!(*pipe, out_to_2, "packet {i} goes on towards node 2");
        assert!(
            *frame == expected[i],
            "packet {i} leaves as the codec encodes it"
        );
        tap.recycle();
    };
    (0..warm).for_each(|i| hop(&mut tap, i));
    let (allocations, ()) =
        allocations_in(|| (warm..warm + measured).for_each(|i| hop(&mut tap, i)));
    assert_eq!(allocations, 0);
}
