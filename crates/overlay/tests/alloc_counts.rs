//! Allocation counts on the per-hop paths. On the LSA path a fresh decode
//! allocates the advert slice once, at its exact size, and a decode that
//! can reuse the sender's slice allocates nothing; a data packet whose
//! payload is virtual (the simulator's clients send sizes, not bytes)
//! crosses a hop without allocating, and so does a warm reliable link's
//! loss-free send/ack cycle. (Its own test binary: the counting allocator
//! is process-wide, the count is per thread.)

use bytes::Bytes;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::alloc::{thread_allocations, CountingAlloc};
use son_overlay::linkproto::{ItReliableLink, LinkAction, LinkProto, ReliableLink};
use son_overlay::packet::{Adverts, Control, DataPacket, LinkAdvert, Lsa, Wire};
use son_overlay::wire::{decode, encode, recode};
use son_overlay::{Destination, FlowKey, FlowSpec, OverlayAddr};
use son_topo::{EdgeId, NodeId};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocations();
    let out = f();
    (thread_allocations() - before, out)
}

#[test]
fn an_lsa_is_allocated_once_per_decode_and_never_per_hop() {
    let lsa = Wire::Control(Control::Lsa(Lsa {
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
    }));
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
