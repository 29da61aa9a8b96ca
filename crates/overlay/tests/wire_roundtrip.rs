//! Wire-codec round-trip properties: `decode(encode(w)) == w` for every
//! link-protocol frame and control packet the overlay can put on a link,
//! plus byte-exact size assertions where the charged cost model documents
//! a concrete figure (24-byte hello/receipt frames, 10-byte trace context,
//! 32-byte source-route mask, the FEC repair formula).

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;
use son_netsim::link::{PipeConfig, PipeId};
use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::{Ctx, Simulation};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::trace::{TraceContext, TRACE_CONTEXT_BYTES};
use son_overlay::addr::{DestKey, FlowKey, GroupId, OverlayAddr};
use son_overlay::packet::{
    Adverts, Control, DataPacket, GroupUpdate, LinkAdvert, LinkCtl, Lsa, MemberInfo, MemberStatus,
    Wire, DATA_HEADER_BYTES, MASK_BYTES,
};
use son_overlay::service::{
    FecParams, FlowSpec, LinkService, Priority, RealtimeParams, RoutingService, SourceRoute,
};
use son_overlay::wire::{
    decode, decode_control, decode_ctl, decode_data, decode_reusing, encode, frame_kind, recode,
    FrameKind, WireError, FRAME_HEADER_BYTES,
};
use son_topo::{EdgeId, EdgeMask, NodeId};

fn gen_addr(rng: &mut TestRng) -> OverlayAddr {
    OverlayAddr::new(
        NodeId(rng.gen_range(0usize..5000)),
        rng.gen_range(0u16..200),
    )
}

fn gen_flow_key(rng: &mut TestRng) -> FlowKey {
    let src = gen_addr(rng);
    let dst = match rng.gen_range(0u8..3) {
        0 => DestKey::Unicast(gen_addr(rng)),
        1 => DestKey::Multicast(GroupId(rng.gen_range(0u32..1000))),
        _ => DestKey::Anycast(GroupId(rng.gen_range(0u32..1000))),
    };
    FlowKey { src, dst }
}

fn gen_mask(rng: &mut TestRng) -> EdgeMask {
    let n = rng.gen_range(0usize..12);
    EdgeMask::from_edges((0..n).map(|_| EdgeId(rng.gen_range(0usize..256))))
}

fn gen_spec(rng: &mut TestRng) -> FlowSpec {
    let routing = match rng.gen_range(0u8..6) {
        0 => RoutingService::LinkState,
        1 => RoutingService::SourceBased(SourceRoute::DisjointPaths(rng.gen_range(1u8..4))),
        2 => RoutingService::SourceBased(SourceRoute::OverlappingPaths(rng.gen_range(1u8..4))),
        3 => RoutingService::SourceBased(SourceRoute::DisseminationGraph),
        4 => RoutingService::SourceBased(SourceRoute::ConstrainedFlooding),
        _ => RoutingService::SourceBased(SourceRoute::Static(gen_mask(rng))),
    };
    let link = match rng.gen_range(0u8..7) {
        0 => LinkService::BestEffort,
        1 => LinkService::Reliable,
        2 => LinkService::Realtime(RealtimeParams {
            n_requests: rng.gen_range(1u8..5),
            m_retransmissions: rng.gen_range(1u8..5),
            budget: SimDuration::from_millis(rng.gen_range(1u64..500)),
        }),
        3 => LinkService::ItPriority,
        4 => LinkService::ItReliable,
        5 => LinkService::Fifo,
        _ => LinkService::Fec(FecParams {
            k: rng.gen_range(1u8..20),
            r: rng.gen_range(1u8..5),
        }),
    };
    FlowSpec {
        routing,
        link,
        ordered: rng.gen_range(0u8..2) == 1,
        deadline: if rng.gen_range(0u8..2) == 1 {
            Some(SimDuration::from_millis(rng.gen_range(1u64..1000)))
        } else {
            None
        },
        priority: Priority(rng.gen_range(0u8..8)),
    }
}

fn gen_data(rng: &mut TestRng, payload_stripped: bool) -> DataPacket {
    let segments = [(); 3].map(|()| rng.gen_range(0u8..2) == 1);
    gen_data_with(rng, segments, payload_stripped)
}

/// A data packet with the mask, resolved-destination and trace segments
/// present as `segments` says.
fn gen_data_with(rng: &mut TestRng, segments: [bool; 3], payload_stripped: bool) -> DataPacket {
    let [mask, resolved, trace] = segments;
    let payload = if payload_stripped {
        Bytes::new()
    } else {
        let n = rng.gen_range(0usize..64);
        Bytes::from(
            (0..n)
                .map(|_| rng.gen_range(0u16..256) as u8)
                .collect::<Vec<u8>>(),
        )
    };
    DataPacket {
        flow: gen_flow_key(rng),
        flow_seq: rng.gen_range(0u64..u64::MAX),
        origin: NodeId(rng.gen_range(0usize..5000)),
        spec: gen_spec(rng),
        mask: mask.then(|| gen_mask(rng)),
        resolved_dst: resolved.then(|| NodeId(rng.gen_range(0usize..5000))),
        link_seq: rng.gen_range(0u64..u64::MAX),
        created_at: SimTime::from_nanos(rng.gen_range(0u64..u64::MAX / 2)),
        size: rng.gen_range(0usize..100_000),
        payload,
        ttl: rng.gen_range(0u16..256) as u8,
        auth_tag: rng.gen_range(0u64..u64::MAX),
        trace: trace.then(|| TraceContext {
            id: rng.gen_range(0u64..u64::MAX),
            hop: rng.gen_range(0u16..256) as u8,
        }),
    }
}

fn gen_seqs(rng: &mut TestRng) -> Vec<u64> {
    let n = rng.gen_range(0usize..20);
    (0..n).map(|_| rng.gen_range(0u64..u64::MAX)).collect()
}

/// The number of [`LinkCtl`] kinds [`gen_ctl_of`] makes.
const CTL_KINDS: u8 = 5;

fn gen_ctl(rng: &mut TestRng) -> LinkCtl {
    let kind = rng.gen_range(0..CTL_KINDS);
    gen_ctl_of(rng, kind)
}

fn gen_ctl_of(rng: &mut TestRng, kind: u8) -> LinkCtl {
    match kind {
        0 => LinkCtl::ReliableAck {
            cum: rng.gen_range(0u64..u64::MAX),
            selective: gen_seqs(rng),
        },
        1 => LinkCtl::ReliableNack {
            missing: gen_seqs(rng),
        },
        2 => LinkCtl::RtRequest {
            seqs: gen_seqs(rng),
            strike: rng.gen_range(0u8..4),
        },
        3 => LinkCtl::Credit {
            flow: gen_flow_key(rng),
            granted_upto: rng.gen_range(0u64..u64::MAX),
        },
        _ => {
            let n = rng.gen_range(0usize..6);
            LinkCtl::FecRepair {
                block_start: rng.gen_range(0u64..u64::MAX),
                index: rng.gen_range(0u8..8),
                covered: (0..n).map(|_| gen_data(rng, true)).collect(),
            }
        }
    }
}

fn gen_members(rng: &mut TestRng) -> Vec<MemberInfo> {
    let n = rng.gen_range(0usize..10);
    (0..n)
        .map(|_| MemberInfo {
            node: NodeId(rng.gen_range(0usize..5000)),
            incarnation: rng.gen_range(0u64..u64::MAX),
            status: match rng.gen_range(0u8..3) {
                0 => MemberStatus::Up,
                1 => MemberStatus::Down,
                _ => MemberStatus::Left,
            },
        })
        .collect()
}

fn gen_adverts(rng: &mut TestRng) -> Vec<LinkAdvert> {
    let n = rng.gen_range(0usize..10);
    (0..n)
        .map(|_| LinkAdvert {
            edge: EdgeId(rng.gen_range(0usize..256)),
            up: rng.gen_range(0u8..2) == 1,
            latency_ms: rng.gen_range(0.0f64..500.0),
            loss: rng.gen_range(0.0f64..1.0),
        })
        .collect()
}

/// The number of [`Control`] kinds [`gen_control_of`] makes.
const CONTROL_KINDS: u8 = 9;

fn gen_control(rng: &mut TestRng) -> Control {
    let kind = rng.gen_range(0..CONTROL_KINDS);
    gen_control_of(rng, kind)
}

fn gen_control_of(rng: &mut TestRng, kind: u8) -> Control {
    match kind {
        0 => Control::Hello {
            seq: rng.gen_range(0u64..u64::MAX),
            sent_at: SimTime::from_nanos(rng.gen_range(0u64..u64::MAX / 2)),
        },
        1 => Control::HelloAck {
            seq: rng.gen_range(0u64..u64::MAX),
            echo_sent_at: SimTime::from_nanos(rng.gen_range(0u64..u64::MAX / 2)),
        },
        2 => Control::Lsa(Lsa {
            origin: NodeId(rng.gen_range(0usize..5000)),
            seq: rng.gen_range(0u64..u64::MAX),
            links: gen_adverts(rng).into(),
        }),
        3 => {
            let n = rng.gen_range(0usize..10);
            Control::GroupUpdate(GroupUpdate {
                origin: NodeId(rng.gen_range(0usize..5000)),
                seq: rng.gen_range(0u64..u64::MAX),
                groups: (0..n).map(|_| GroupId(rng.gen_range(0u32..1000))).collect(),
            })
        }
        4 => Control::WatchReceipt {
            received: rng.gen_range(0u64..u64::MAX),
            progressed: rng.gen_range(0u64..u64::MAX),
        },
        5 => Control::Join {
            node: NodeId(rng.gen_range(0usize..5000)),
            incarnation: rng.gen_range(0u64..u64::MAX),
        },
        6 => Control::JoinAck {
            members: gen_members(rng),
        },
        7 => Control::Leave {
            node: NodeId(rng.gen_range(0usize..5000)),
            incarnation: rng.gen_range(0u64..u64::MAX),
        },
        _ => Control::MembershipUpdate {
            origin: NodeId(rng.gen_range(0usize..5000)),
            seq: rng.gen_range(0u64..u64::MAX),
            members: gen_members(rng),
        },
    }
}

/// What the sender of an LSA might hold when the frame is decoded: the
/// adverts themselves, or something that differs in length, in one field of
/// one advert, or in everything.
fn gen_sender(rng: &mut TestRng, sent: &[LinkAdvert]) -> Adverts {
    let mut held = sent.to_vec();
    match rng.gen_range(0u8..6) {
        0 | 1 => {}
        2 => {
            held.pop();
        }
        3 => held.extend(gen_adverts(rng).first().copied()),
        4 => {
            if !held.is_empty() {
                let ad = &mut held[rng.gen_range(0..sent.len())];
                match rng.gen_range(0u8..4) {
                    0 => ad.edge = EdgeId(ad.edge.0 + 1),
                    1 => ad.up = !ad.up,
                    2 => ad.latency_ms += 0.25,
                    _ => ad.loss = (ad.loss + 0.02) % 1.0,
                }
            }
        }
        _ => held = gen_adverts(rng),
    }
    held.into()
}

fn advert_bits(links: &[LinkAdvert]) -> Vec<(usize, bool, u64, u64)> {
    links
        .iter()
        .map(|ad| (ad.edge.0, ad.up, ad.latency_ms.to_bits(), ad.loss.to_bits()))
        .collect()
}

fn lsa_links(w: &Wire) -> &Adverts {
    match w {
        Wire::Control(Control::Lsa(lsa)) => &lsa.links,
        other => panic!("not an LSA: {other:?}"),
    }
}

/// Byte offset of advert `i`'s latency in an encoded LSA frame: frame
/// header, origin, seq and count, then 21 bytes per advert (edge, up,
/// latency, loss).
fn latency_at(i: usize) -> usize {
    FRAME_HEADER_BYTES + 4 + 8 + 2 + 21 * i + 5
}

fn round_trips(w: &Wire) -> bool {
    let bytes = encode(w).expect("link frame must encode");
    decode(&bytes).expect("encoded frame must decode") == *w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn data_frames_round_trip(w in any::<u64>().prop_perturb(|_, mut rng| Wire::Data(gen_data(&mut rng, false)))) {
        prop_assert!(round_trips(&w));
    }

    fn link_ctl_frames_round_trip(w in any::<u64>().prop_perturb(|_, mut rng| Wire::Ctl {
        slot: rng.gen_range(0u8..7),
        ctl: gen_ctl(&mut rng),
    })) {
        prop_assert!(round_trips(&w));
    }

    fn control_frames_round_trip(w in any::<u64>().prop_perturb(|_, mut rng| Wire::Control(gen_control(&mut rng)))) {
        prop_assert!(round_trips(&w));
    }

    /// The sender's allocation is a hint about where the result may live,
    /// never about what it is: whatever the sender holds, the reusing decode
    /// returns what `decode` returns on the same bytes — a forged advert is
    /// still refused — and shares the sender's allocation exactly when the
    /// decoded adverts are bit for bit what the sender holds.
    fn reuse_hint_is_an_allocation_hint_never_a_value(
        case in any::<u64>().prop_perturb(|_, mut rng| {
            let sent = gen_adverts(&mut rng);
            let sender = gen_sender(&mut rng, &sent);
            let forged = (rng.gen_range(0..sent.len().max(1)), rng.gen_range(0u8..3));
            (sent, sender, forged, gen_control(&mut rng))
        }),
    ) {
        let (sent, sender, (forged_at, forgery), other) = case;
        let frame = encode(&Wire::Control(Control::Lsa(Lsa {
            origin: NodeId(7),
            seq: 3,
            links: sent.iter().copied().collect(),
        })))
        .unwrap();
        let plain = decode(&frame).unwrap();
        let reused = decode_reusing(&frame, Some(&sender)).unwrap();
        prop_assert_eq!(&reused, &plain);
        prop_assert_eq!(advert_bits(lsa_links(&reused)), advert_bits(&sent));
        prop_assert_eq!(
            Adverts::ptr_eq(lsa_links(&reused), &sender),
            advert_bits(&sender) == advert_bits(&sent)
        );

        if !sent.is_empty() {
            let mut bad = frame;
            let latency = [f64::NAN, f64::INFINITY, -1.0][forgery as usize];
            bad[latency_at(forged_at)..][..8].copy_from_slice(&latency.to_bits().to_le_bytes());
            prop_assert_eq!(decode(&bad), Err(WireError::BadValue("link advert")));
            prop_assert_eq!(
                decode_reusing(&bad, Some(&sender)),
                Err(WireError::BadValue("link advert"))
            );
        }

        // Any other frame decodes as if no hint had been given.
        let frame = encode(&Wire::Control(other)).unwrap();
        prop_assert_eq!(decode_reusing(&frame, Some(&sender)), decode(&frame));
    }
}

/// Any link frame the generators make: data, link control (acks, FEC
/// repairs, …) or control (LSAs, hellos, membership, …).
fn gen_wire(rng: &mut TestRng) -> Wire {
    match rng.gen_range(0u8..3) {
        0 => Wire::Data(gen_data(rng, false)),
        1 => Wire::Ctl {
            slot: rng.gen_range(0u8..7),
            ctl: gen_ctl(rng),
        },
        _ => Wire::Control(gen_control(rng)),
    }
}

/// What `decode` accepted is a frame it can be handed again: it encodes,
/// and the encoding decodes to the same value.
fn accepted_is_stable(bytes: &[u8]) -> Result<(), String> {
    match decode(bytes) {
        Err(_) => Ok(()),
        Ok(w) => match encode(&w).map(|again| decode(&again)) {
            Ok(Ok(back)) if back == w => Ok(()),
            other => Err(format!(
                "{bytes:?} decoded to {w:?}, re-encoded to {other:?}"
            )),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode` answers whatever it is handed without a panic: noise, noise
    /// behind a valid header of any kind, every strict prefix of a valid
    /// frame (always refused) and every single-byte change of one (× 4
    /// values). The daemon's receive path runs the same inputs behind its
    /// datagram framing (`son-node`'s `no_datagram_panics_the_receive_path`).
    fn decode_never_panics_on_noise_truncation_or_mutation(
        frame in any::<u64>().prop_perturb(|_, mut rng| encode(&gen_wire(&mut rng)).unwrap()),
        noise in collection::vec(any::<u8>(), 0..300),
        kind in any::<u8>(),
    ) {
        prop_assert!(accepted_is_stable(&noise).is_ok());
        let mut framed = frame[..FRAME_HEADER_BYTES].to_vec();
        framed[2] = kind;
        framed[4..].copy_from_slice(&u32::try_from(noise.len()).unwrap().to_le_bytes());
        framed.extend_from_slice(&noise);
        let stable = accepted_is_stable(&framed);
        prop_assert!(stable.is_ok(), "{stable:?}");

        for len in 0..frame.len() {
            prop_assert!(decode(&frame[..len]).is_err(), "a {len}-byte prefix decoded");
        }
        for at in 0..frame.len() {
            for byte in [0x00, 0xff, frame[at] ^ 0x80, frame[at].wrapping_add(1)] {
                let mut bad = frame.clone();
                bad[at] = byte;
                let stable = accepted_is_stable(&bad);
                prop_assert!(stable.is_ok(), "{stable:?}");
            }
        }
    }
}

/// `-0.0 == 0.0`, but they are different bytes on the wire: a sender holding
/// one is not handed back for a frame carrying the other.
#[test]
fn reuse_compares_bits_not_values() {
    let advert = |latency_ms| LinkAdvert {
        edge: EdgeId(2),
        up: true,
        latency_ms,
        loss: 0.0,
    };
    let lsa = |latency_ms| {
        Wire::Control(Control::Lsa(Lsa {
            origin: NodeId(1),
            seq: 1,
            links: Adverts::from([advert(latency_ms)]),
        }))
    };
    let sender: Adverts = Adverts::from([advert(-0.0)]);
    let decoded = decode_reusing(&encode(&lsa(0.0)).unwrap(), Some(&sender)).unwrap();
    assert!(!Adverts::ptr_eq(lsa_links(&decoded), &sender));
    assert_eq!(
        lsa_links(&decoded)[0].latency_ms.to_bits(),
        0.0f64.to_bits()
    );
    let decoded = decode_reusing(&encode(&lsa(-0.0)).unwrap(), Some(&sender)).unwrap();
    assert!(Adverts::ptr_eq(lsa_links(&decoded), &sender));
}

fn base_packet() -> DataPacket {
    DataPacket {
        flow: FlowKey {
            src: OverlayAddr::new(NodeId(1), 50),
            dst: DestKey::Unicast(OverlayAddr::new(NodeId(2), 70)),
        },
        flow_seq: 7,
        origin: NodeId(1),
        spec: FlowSpec::reliable(),
        mask: None,
        resolved_dst: None,
        link_seq: 3,
        created_at: SimTime::from_millis(5),
        size: 100,
        payload: Bytes::new(),
        ttl: 32,
        auth_tag: 9,
        trace: None,
    }
}

/// Hello, HelloAck, and WatchReceipt frames are exactly the 24 bytes the
/// cost model charges for them: 8-byte header + two `u64` fields.
#[test]
fn fixed_control_frames_match_charged_size() {
    use son_netsim::process::SimMessage;
    for c in [
        Control::Hello {
            seq: 1,
            sent_at: SimTime::from_millis(2),
        },
        Control::HelloAck {
            seq: 1,
            echo_sent_at: SimTime::from_millis(2),
        },
        Control::WatchReceipt {
            received: 10,
            progressed: 9,
        },
    ] {
        let w = Wire::Control(c);
        let bytes = encode(&w).unwrap();
        assert_eq!(bytes.len(), 24, "{w:?}");
        assert_eq!(bytes.len(), w.wire_size(), "{w:?}");
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + 16);
    }
}

/// Membership frames encode to exactly the bytes the cost model charges
/// (frame header included, matching the Hello convention): Join/Leave are
/// 20 bytes (8-byte header + node + incarnation), JoinAck and
/// MembershipUpdate scale linearly at 13 bytes per member entry.
#[test]
fn membership_frames_match_charged_size_exactly() {
    use son_netsim::process::SimMessage;
    let members = |n: usize| -> Vec<MemberInfo> {
        (0..n)
            .map(|i| MemberInfo {
                node: NodeId(i),
                incarnation: i as u64,
                status: MemberStatus::Up,
            })
            .collect()
    };
    let cases = [
        (
            Control::Join {
                node: NodeId(3),
                incarnation: 2,
            },
            20,
        ),
        (
            Control::Leave {
                node: NodeId(3),
                incarnation: 2,
            },
            20,
        ),
        (
            Control::JoinAck {
                members: members(0),
            },
            10,
        ),
        (
            Control::JoinAck {
                members: members(5),
            },
            10 + 13 * 5,
        ),
        (
            Control::MembershipUpdate {
                origin: NodeId(1),
                seq: 9,
                members: members(0),
            },
            22,
        ),
        (
            Control::MembershipUpdate {
                origin: NodeId(1),
                seq: 9,
                members: members(3),
            },
            22 + 13 * 3,
        ),
    ];
    for (c, total) in cases {
        let w = Wire::Control(c);
        let bytes = encode(&w).unwrap();
        assert_eq!(bytes.len(), total, "{w:?}");
        assert_eq!(bytes.len(), w.wire_size(), "{w:?}");
        assert!(bytes.len() > FRAME_HEADER_BYTES);
        assert!(round_trips(&w));
    }
}

/// Encoded bytes of a flow key: the source address (node `u32`, port
/// `u16`), a destination tag, then an address or a group id.
fn flow_key_bytes(flow: &FlowKey) -> usize {
    6 + 1
        + if matches!(flow.dst, DestKey::Unicast(_)) {
            6
        } else {
            4
        }
}

/// Encoded bytes of a flow spec: routing tag (+ source-route tag and its
/// argument), link tag (+ its parameters), ordered, deadline flag (+ the
/// deadline), priority.
fn spec_bytes(spec: &FlowSpec) -> usize {
    let routing = match spec.routing {
        RoutingService::LinkState => 1,
        RoutingService::SourceBased(SourceRoute::Static(_)) => 2 + MASK_BYTES,
        RoutingService::SourceBased(
            SourceRoute::DisjointPaths(_) | SourceRoute::OverlappingPaths(_),
        ) => 3,
        RoutingService::SourceBased(_) => 2,
    };
    let link = match spec.link {
        LinkService::Realtime(_) => 11,
        LinkService::Fec(_) => 3,
        _ => 1,
    };
    routing + link + 1 + if spec.deadline.is_some() { 9 } else { 1 } + 1
}

/// The bytes `encode` writes for each kind of link frame, against what the
/// pipes charge for it (`SimMessage::wire_size`). Hello, HelloAck,
/// WatchReceipt and the membership frames charge exactly their bytes. The
/// other kinds are charged the cost model's figure, which leaves out or
/// rounds parts of the frame; the difference is pinned here kind by kind,
/// so a layout change shows up, and so does a change of a charge (which
/// would move `pipe.bytes`, link timing and every fingerprint).
#[test]
fn every_link_frame_kind_pins_its_bytes_against_its_charge() {
    use son_netsim::process::SimMessage;
    let mut rng = TestRng::for_case("every_link_frame_kind_pins_its_bytes", 0);
    for _ in 0..64 {
        for kind in 0..CONTROL_KINDS {
            let w = Wire::Control(gen_control_of(&mut rng, kind));
            let (bytes, charged) = (encode(&w).unwrap().len(), w.wire_size());
            let Wire::Control(c) = &w else { unreachable!() };
            let (want_bytes, want_charged) = match c {
                Control::Lsa(lsa) => (22 + 21 * lsa.links.len(), 16 + 13 * lsa.links.len()),
                Control::GroupUpdate(gu) => (22 + 4 * gu.groups.len(), 16 + 4 * gu.groups.len()),
                _ => (charged, charged),
            };
            assert_eq!((bytes, charged), (want_bytes, want_charged), "{w:?}");
        }
        for kind in 0..CTL_KINDS {
            let w = Wire::Ctl {
                slot: 1,
                ctl: gen_ctl_of(&mut rng, kind),
            };
            let (bytes, charged) = (encode(&w).unwrap().len(), w.wire_size());
            let Wire::Ctl { ctl, .. } = &w else {
                unreachable!()
            };
            // Frame header and the ctl tag byte come first, as the charge's
            // leading 1 + 8 would have them, but the charges' fixed parts
            // are rounded up.
            let (want_bytes, want_charged) = match ctl {
                LinkCtl::ReliableAck { selective, .. } => {
                    (21 + 8 * selective.len(), 25 + 8 * selective.len())
                }
                LinkCtl::ReliableNack { missing } => {
                    (13 + 8 * missing.len(), 17 + 8 * missing.len())
                }
                LinkCtl::RtRequest { seqs, .. } => (14 + 8 * seqs.len(), 18 + 8 * seqs.len()),
                LinkCtl::Credit { flow, .. } => (17 + flow_key_bytes(flow), 37),
                LinkCtl::FecRepair { covered, .. } => (
                    20 + covered
                        .iter()
                        .map(|p| {
                            1 + encode(&Wire::Data(p.clone())).unwrap().len() - FRAME_HEADER_BYTES
                        })
                        .sum::<usize>(),
                    1 + 16
                        + covered.iter().map(DataPacket::wire_size).max().unwrap_or(0)
                        + DATA_HEADER_BYTES * covered.len(),
                ),
            };
            assert_eq!((bytes, charged), (want_bytes, want_charged), "{w:?}");
        }
        for bits in 0u8..16 {
            let segments = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let mut p = gen_data_with(&mut rng, segments, bits & 8 != 0);
            if bits & 8 == 0 {
                // A real payload: the packet's size is its bytes.
                p.size = p.payload.len();
            }
            let w = Wire::Data(p);
            let (bytes, charged) = (encode(&w).unwrap().len(), w.wire_size());
            let Wire::Data(p) = &w else { unreachable!() };
            let (mask, resolved, trace) = (
                p.mask.is_some(),
                p.resolved_dst.is_some(),
                p.trace.is_some(),
            );
            // Header, flow key, flow seq, origin, spec, segments, link seq,
            // created-at, size, payload length, payload, ttl, auth tag.
            let want_bytes = FRAME_HEADER_BYTES
                + flow_key_bytes(&p.flow)
                + 8
                + 4
                + spec_bytes(&p.spec)
                + usize::from(mask) * MASK_BYTES
                + usize::from(resolved) * 4
                + 8
                + 8
                + 4
                + 4
                + p.payload.len()
                + 1
                + 8
                + usize::from(trace) * TRACE_CONTEXT_BYTES;
            let want_charged = DATA_HEADER_BYTES
                + usize::from(mask) * MASK_BYTES
                + usize::from(trace) * TRACE_CONTEXT_BYTES
                + p.size;
            assert_eq!((bytes, charged), (want_bytes, want_charged), "{w:?}");
        }
    }
}

/// A present trace context costs exactly `TRACE_CONTEXT_BYTES` (10) on the
/// wire — the flag-bit-signalled id + widened hop — and an absent one
/// costs nothing, matching what the accounting model charges.
#[test]
fn trace_segment_costs_exactly_its_documented_bytes() {
    let without = encode(&Wire::Data(base_packet())).unwrap();
    let mut traced = base_packet();
    traced.trace = Some(TraceContext { id: 42, hop: 3 });
    let with = encode(&Wire::Data(traced)).unwrap();
    assert_eq!(with.len() - without.len(), TRACE_CONTEXT_BYTES);
    assert_eq!(TRACE_CONTEXT_BYTES, 10);
}

/// A present source-route mask costs exactly its 32 charged bytes (4 LE
/// words for 256 edge bits); absence costs nothing.
#[test]
fn mask_segment_costs_exactly_its_charged_bytes() {
    let without = encode(&Wire::Data(base_packet())).unwrap();
    let mut masked = base_packet();
    masked.mask = Some(EdgeMask::from_edges([EdgeId(0), EdgeId(63), EdgeId(255)]));
    let with = encode(&Wire::Data(masked)).unwrap();
    assert_eq!(with.len() - without.len(), MASK_BYTES);
    assert_eq!(MASK_BYTES, 32);
}

/// A mask crosses the wire a word at a time, in the packet's mask and in
/// a static source route alike: the bits at both ends of a word survive.
#[test]
fn mask_words_round_trip_at_the_word_edges() {
    let edges = [0, 63, 64, 255].map(EdgeId);
    let mask = EdgeMask::from_edges(edges);
    let mut masked = base_packet();
    masked.mask = Some(mask);
    masked.spec.routing = RoutingService::SourceBased(SourceRoute::Static(mask));
    let w = Wire::Data(masked);
    assert!(round_trips(&w));
    let Ok(Wire::Data(back)) = decode(&encode(&w).unwrap()) else {
        panic!("a data frame must decode as one");
    };
    assert_eq!(back.mask.unwrap().iter().collect::<Vec<_>>(), edges);
    assert_eq!(mask.words(), [1 | 1 << 63, 1, 0, 1 << 63]);
    assert_eq!(EdgeMask::from_words(mask.words()), mask);
}

/// The FEC repair cost model: 16 bytes of repair header, one max-size
/// covered packet (the repair symbol), plus one data header per covered
/// packet — and the encoded frame round-trips.
#[test]
fn fec_repair_matches_documented_formula_and_round_trips() {
    let covered: Vec<DataPacket> = (0..3)
        .map(|i| {
            let mut p = base_packet();
            p.link_seq = i;
            p.size = 100 + 50 * i as usize;
            p
        })
        .collect();
    let max = covered.iter().map(DataPacket::wire_size).max().unwrap();
    let repair = LinkCtl::FecRepair {
        block_start: 0,
        index: 0,
        covered,
    };
    assert_eq!(repair.wire_size(), 16 + max + DATA_HEADER_BYTES * 3);
    let w = Wire::Ctl {
        slot: 6,
        ctl: repair,
    };
    assert!(round_trips(&w));
}

/// Payload bytes survive the codec verbatim.
#[test]
fn payload_contents_round_trip() {
    let mut p = base_packet();
    p.payload = Bytes::from_static(b"structured overlay");
    p.size = p.payload.len();
    let w = Wire::Data(p);
    let decoded = decode(&encode(&w).unwrap()).unwrap();
    match decoded {
        Wire::Data(d) => assert_eq!(&d.payload[..], b"structured overlay"),
        other => panic!("decoded wrong variant: {other:?}"),
    }
}

/// One frame of every kind a daemon puts on a link: data frames with every
/// combination of the mask, resolved-destination and trace segments, each
/// with a real and with a virtual payload; every [`LinkCtl`]; every
/// [`Control`], LSA and membership frames included.
fn every_frame_kind(rng: &mut TestRng) -> Vec<Wire> {
    let mut frames = Vec::new();
    for bits in 0u8..16 {
        let segments = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
        frames.push(Wire::Data(gen_data_with(rng, segments, bits & 8 != 0)));
    }
    for kind in 0..CTL_KINDS {
        let slot = rng.gen_range(0u8..7);
        frames.push(Wire::Ctl {
            slot,
            ctl: gen_ctl_of(rng, kind),
        });
    }
    for kind in 0..CONTROL_KINDS {
        frames.push(Wire::Control(gen_control_of(rng, kind)));
    }
    frames
}

/// Puts its frames on `out` at start, borrowed, as a daemon does.
struct Sender {
    out: PipeId,
    frames: Vec<Wire>,
}

impl Process<Wire> for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        for frame in &self.frames {
            ctx.send_ref(self.out, frame);
        }
    }

    fn on_message(&mut self, _: &mut Ctx<'_, Wire>, _: ProcessId, _: Option<PipeId>, _: Wire) {}
}

/// Keeps what arrives over a pipe, in order.
struct Receiver {
    got: Vec<Wire>,
}

impl Process<Wire> for Receiver {
    fn on_message(&mut self, _: &mut Ctx<'_, Wire>, _: ProcessId, pipe: Option<PipeId>, msg: Wire) {
        assert!(pipe.is_some(), "only pipe traffic is sent");
        self.got.push(msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator carries a frame's bytes and decodes them at the
    /// receiver: what arrives is exactly what the codec round trip makes of
    /// the frame sent, down to an LSA sharing the sender's adverts. The
    /// per-kind decoders a daemon receives with (`decode_data`,
    /// `decode_ctl`, `decode_control`) give what `decode` wraps in a
    /// `Wire`, and refuse the other kinds.
    fn a_sim_pipe_delivers_what_the_codec_round_trips(
        frames in any::<u64>().prop_perturb(|_, mut rng| every_frame_kind(&mut rng))
    ) {
        let mut sim: Simulation<Wire> = Simulation::new(1);
        let rx = sim.add_process(Receiver { got: Vec::new() });
        let tx = sim.add_process(Sender { out: PipeId(0), frames: frames.clone() });
        prop_assert_eq!(sim.pipe(tx, rx, PipeConfig::with_latency(SimDuration::from_millis(1))), PipeId(0));
        sim.run_until_idle();
        let got = &sim.proc_ref::<Receiver>(rx).unwrap().got;
        prop_assert_eq!(got.len(), frames.len());
        for (got, sent) in got.iter().zip(&frames) {
            prop_assert_eq!(got, &recode(sent).unwrap());
            if let Wire::Control(Control::Lsa(_)) = sent {
                prop_assert!(Adverts::ptr_eq(lsa_links(got), lsa_links(sent)));
            }
            // Each kind's own decoder gives what `decode` wraps, and
            // refuses the other kinds.
            let bytes = encode(sent).unwrap();
            let (data, ctl, control) = (
                decode_data(&bytes),
                decode_ctl(&bytes),
                decode_control(&bytes, None),
            );
            match sent {
                Wire::Data(packet) => prop_assert_eq!(data.as_ref().ok(), Some(packet)),
                Wire::Ctl { slot, ctl: sent_ctl } => {
                    prop_assert_eq!(ctl.clone().ok(), Some((*slot, sent_ctl.clone())));
                }
                Wire::Control(c) => prop_assert_eq!(control.as_ref().ok(), Some(c)),
                other => panic!("not a link frame: {other:?}"),
            }
            for (kind, error) in [
                (FrameKind::Data, data.err()),
                (FrameKind::Ctl, ctl.err()),
                (FrameKind::Control, control.err()),
            ] {
                if Some(kind) == frame_kind(&bytes) {
                    prop_assert_eq!(error, None);
                } else {
                    prop_assert!(matches!(error, Some(WireError::BadTag { what: "kind", .. })));
                }
            }
        }
    }
}
