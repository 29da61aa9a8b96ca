//! The ARQ core under both reliable links, driven through the `LinkProto`
//! surface: one table-driven suite and one property over `ReliableLink` and
//! `ItReliableLink` alike, the IT-Reliable persist probe, and what one
//! forged sequence number may cost NM-Strikes.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::linkproto::fair::IT_RELIABLE_WINDOW;
use son_overlay::linkproto::{
    ItReliableLink, LinkAction, LinkEvent, LinkProto, RealtimeLink, ReliableLink,
};
use son_overlay::packet::{DataPacket, LinkCtl};
use son_overlay::service::RealtimeParams;
use son_overlay::{Destination, FlowKey, FlowSpec, OverlayAddr};
use son_topo::NodeId;

const RTO: SimDuration = SimDuration::from_millis(20);
/// What the receiver remembers above its cumulative point.
const RX_WINDOW: u64 = 4096;
/// The NACK and SACK caps.
const CAP: usize = 64;

/// Builds a fresh link.
type Make = fn() -> Box<dyn LinkProto>;

/// The two users of the core, unpaced.
const USERS: [(&str, Make); 2] = [
    ("reliable", || Box::new(ReliableLink::new(RTO))),
    ("it_reliable", || Box::new(ItReliableLink::new(RTO, None))),
];

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A packet of flow `flow` with a unique `flow_seq`.
fn pkt(flow: usize, flow_seq: u64) -> DataPacket {
    DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(flow), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(9), 2)),
        ),
        flow_seq,
        origin: NodeId(flow),
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

/// A packet as it arrives carrying `link_seq`.
fn arriving(link_seq: u64) -> DataPacket {
    DataPacket {
        link_seq,
        ..pkt(0, link_seq)
    }
}

fn sent_seqs(out: &[LinkAction]) -> Vec<u64> {
    out.iter()
        .filter_map(|a| match a {
            LinkAction::Transmit(p) => Some(p.link_seq),
            _ => None,
        })
        .collect()
}

fn delivered(out: &[LinkAction]) -> usize {
    out.iter()
        .filter(|a| matches!(a, LinkAction::Deliver(_)))
        .count()
}

fn acks(out: &[LinkAction]) -> Vec<(u64, Vec<u64>)> {
    out.iter()
        .filter_map(|a| match a {
            LinkAction::TransmitCtl(LinkCtl::ReliableAck { cum, selective }) => {
                Some((*cum, selective.clone()))
            }
            _ => None,
        })
        .collect()
}

fn nacks(out: &[LinkAction]) -> Vec<Vec<u64>> {
    out.iter()
        .filter_map(|a| match a {
            LinkAction::TransmitCtl(LinkCtl::ReliableNack { missing }) => Some(missing.clone()),
            _ => None,
        })
        .collect()
}

fn timers(out: &[LinkAction]) -> Vec<(SimDuration, u32)> {
    out.iter()
        .filter_map(|a| match a {
            LinkAction::Timer { delay, token } => Some((*delay, *token)),
            _ => None,
        })
        .collect()
}

fn observed(out: &[LinkAction], want: fn(&LinkEvent) -> bool) -> usize {
    out.iter()
        .filter(|a| matches!(a, LinkAction::Observe(e) if want(e)))
        .count()
}

fn ack(cum: u64, selective: Vec<u64>) -> LinkCtl {
    LinkCtl::ReliableAck { cum, selective }
}

/// Runs `case` on a fresh instance of each user.
fn for_both(case: impl Fn(&str, &mut dyn LinkProto)) {
    for (name, make) in USERS {
        case(name, make().as_mut());
    }
}

#[test]
fn sends_number_densely_behind_one_timer_and_an_idle_link_holds_nothing() {
    for_both(|name, link| {
        assert_eq!(link.queue_bytes(), 0, "{name}: idle link allocated");
        let mut out = Vec::new();
        for i in 0..3 {
            link.on_send(ms(i), pkt(0, i), &mut out);
        }
        assert_eq!(sent_seqs(&out), [1, 2, 3], "{name}");
        assert_eq!(timers(&out).len(), 1, "{name}: one timer per link");
        assert_eq!(timers(&out)[0].0, RTO, "{name}");
        assert_eq!(link.queue_depth(), 3, "{name}");
    });
}

#[test]
fn in_order_arrival_is_delivered_and_acked() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(1), &mut out);
        assert_eq!(delivered(&out), 1, "{name}");
        assert_eq!(acks(&out), [(1, vec![])], "{name}");
        assert!(nacks(&out).is_empty(), "{name}");
    });
}

#[test]
fn a_gap_is_nacked_at_once_and_the_arrival_forwarded_out_of_order() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(1), &mut out);
        out.clear();
        link.on_data(SimTime::ZERO, arriving(4), &mut out);
        assert_eq!(delivered(&out), 1, "{name}");
        assert_eq!(nacks(&out), [vec![2, 3]], "{name}");
        assert_eq!(acks(&out), [(1, vec![4])], "{name}");
        let lost = observed(&out, |e| matches!(e, LinkEvent::LossDetected));
        assert_eq!(lost, 2, "{name}");
    });
}

#[test]
fn a_filled_gap_reports_its_recovery_latency() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(1), &mut out);
        link.on_data(ms(10), arriving(3), &mut out);
        out.clear();
        link.on_data(ms(18), arriving(2), &mut out);
        let recovered: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                LinkAction::Observe(LinkEvent::Recovered { after }) => Some(*after),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, [SimDuration::from_millis(8)], "{name}");
        out.clear();
        link.on_data(ms(20), arriving(4), &mut out);
        assert_eq!(observed(&out, |_| true), 0, "{name}: nothing to report");
    });
}

#[test]
fn reordered_arrivals_advance_the_cumulative_ack() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for seq in [2, 3, 1] {
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        assert_eq!(delivered(&out), 3, "{name}: all forwarded at once");
        assert_eq!(acks(&out).last(), Some(&(3, vec![])), "{name}");
    });
}

#[test]
fn a_duplicate_is_reacked_not_redelivered() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(1), &mut out);
        out.clear();
        link.on_data(SimTime::ZERO, arriving(1), &mut out);
        assert_eq!(delivered(&out), 0, "{name}");
        assert_eq!(acks(&out), [(1, vec![])], "{name}");
        assert_eq!(link.stats().dup_received, 1, "{name}");
    });
}

#[test]
fn acks_release_cumulative_and_selective() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for i in 0..5 {
            link.on_send(SimTime::ZERO, pkt(0, i), &mut out);
        }
        link.on_ctl(SimTime::ZERO, ack(2, vec![4]), &mut out);
        assert_eq!(link.queue_depth(), 2, "{name}: 3 and 5 remain");
        // A stale ack changes nothing.
        link.on_ctl(SimTime::ZERO, ack(1, vec![]), &mut out);
        assert_eq!(link.queue_depth(), 2, "{name}");
    });
}

#[test]
fn a_nack_resends_only_the_unacked_and_leaves_the_deadline() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for i in 0..3 {
            link.on_send(SimTime::ZERO, pkt(0, i), &mut out);
        }
        let (_, token) = timers(&out)[0];
        out.clear();
        link.on_ctl(ms(5), ack(1, vec![]), &mut out);
        link.on_ctl(
            ms(5),
            LinkCtl::ReliableNack {
                missing: vec![1, 2],
            },
            &mut out,
        );
        assert_eq!(sent_seqs(&out), [2], "{name}");
        let resent = observed(&out, |e| matches!(e, LinkEvent::Retransmit));
        assert_eq!(resent, 1, "{name}");
        // The NACK did not move seq 2's deadline: the timer resends it with 3.
        out.clear();
        link.on_timer(SimTime::ZERO + RTO, token, &mut out);
        assert_eq!(sent_seqs(&out), [2, 3], "{name}");
        assert_eq!(link.stats().retransmitted, 3, "{name}");
    });
}

#[test]
fn the_one_timer_resends_what_is_due_and_rearms_at_the_next_deadline() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_send(ms(0), pkt(0, 0), &mut out);
        link.on_send(ms(5), pkt(0, 1), &mut out);
        let (_, token) = timers(&out)[0];
        assert_eq!(timers(&out).len(), 1, "{name}");
        out.clear();
        // Seq 1 is due at 20 ms, seq 2 at 25 ms, seq 1 again at 40 ms.
        link.on_timer(ms(20), token, &mut out);
        assert_eq!(sent_seqs(&out), [1], "{name}");
        assert_eq!(
            timers(&out),
            [(SimDuration::from_millis(5), token)],
            "{name}"
        );
        out.clear();
        link.on_timer(ms(25), token, &mut out);
        assert_eq!(sent_seqs(&out), [2], "{name}");
        assert_eq!(
            timers(&out),
            [(SimDuration::from_millis(15), token)],
            "{name}"
        );
        // Once everything is acked the timer lapses and is not re-armed.
        out.clear();
        link.on_ctl(ms(30), ack(2, vec![]), &mut out);
        link.on_timer(ms(40), token, &mut out);
        assert!(out.is_empty(), "{name}: {out:?}");
        assert_eq!(link.queue_depth(), 0, "{name}");
    });
}

/// A crashed process loses its pending timers and keeps its state: the
/// next event on the link arms a new timer instead of waiting for one that
/// will never fire, and the lost one, should it fire late, is ignored.
#[test]
fn a_lost_timer_is_replaced_at_the_next_event() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_send(ms(0), pkt(0, 0), &mut out);
        let (_, token) = timers(&out)[0];
        out.clear();
        link.on_ctl(ms(50), ack(0, vec![]), &mut out);
        assert_eq!(timers(&out), [(SimDuration::ZERO, token)], "{name}");
        out.clear();
        link.on_timer(ms(50), token, &mut out);
        assert_eq!(sent_seqs(&out), [1], "{name}");
        out.clear();
        link.on_timer(ms(55), token, &mut out);
        assert!(out.is_empty(), "{name}: {out:?}");
    });
}

/// The one case the window does not heal: a receiver that lost its state
/// (a daemon restarted from scratch) while its peer had link seqs up to 99
/// acked. Nothing on the wire says where the peer stands, so the receiver
/// takes what fits above its fresh `cum = 0`, never moves `cum`, and then
/// refuses everything; the peer retransmits for good.
#[test]
fn a_receiver_that_lost_its_state_fills_its_window_and_then_refuses() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for seq in 100..100 + RX_WINDOW {
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        assert_eq!(delivered(&out) as u64, RX_WINDOW - 100, "{name}");
        assert_eq!(link.stats().dropped, 100, "{name}");
        assert_eq!(acks(&out).last().map(|a| a.0), Some(0), "{name}");
    });
}

#[test]
fn a_foreign_timer_token_is_a_no_op() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_timer(SimTime::ZERO, 999, &mut out);
        link.on_send(SimTime::ZERO, pkt(0, 0), &mut out);
        out.clear();
        link.on_timer(SimTime::ZERO + RTO, 999, &mut out);
        assert!(out.is_empty(), "{name}: {out:?}");
    });
}

#[test]
fn nack_and_sack_lists_are_capped() {
    for_both(|name, link| {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(201), &mut out);
        assert_eq!(nacks(&out)[0].len(), CAP, "{name}");
        for seq in (203..600).step_by(2) {
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        let (cum, selective) = acks(&out).pop().unwrap();
        assert_eq!((cum, selective.len()), (0, CAP), "{name}");
        assert_eq!(selective[..3], [201, 203, 205], "{name}");
    });
}

/// The receiver's window is a ring: ten thousand arrivals, each pair
/// swapped, wrap it twice, and what it remembers stays exact.
#[test]
fn the_receive_window_slides_over_many_wraps() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for seq in (1..10_000).step_by(2) {
            link.on_data(SimTime::ZERO, arriving(seq + 1), &mut out);
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        assert_eq!(delivered(&out), 10_000, "{name}");
        assert_eq!(acks(&out).last(), Some(&(10_000, vec![])), "{name}");
        out.clear();
        for seq in [9_999, 10_000 + RX_WINDOW, 10_000 + RX_WINDOW - 1] {
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        assert_eq!(
            delivered(&out),
            1,
            "{name}: a duplicate, a refusal, the edge"
        );
        assert_eq!(
            acks(&out)[1],
            (10_000, vec![10_000 + RX_WINDOW - 1]),
            "{name}"
        );
    });
}

/// What the old ARQ overflowed on: `cum + 1` of an ack at `u64::MAX` and
/// `high + 1` of an arrival at it. An arrival beyond the window is refused,
/// neither delivered nor acked, and counted.
#[test]
fn extreme_sequence_numbers_never_panic() {
    for_both(|name, link| {
        let mut out = Vec::new();
        for seq in [0, u64::MAX, RX_WINDOW, u64::MAX - 1] {
            link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        }
        assert_eq!(delivered(&out), 0, "{name}");
        assert_eq!(link.stats().dup_received, 1, "{name}: seq 0");
        assert_eq!(link.stats().dropped, 3, "{name}: beyond the window");
        out.clear();
        link.on_data(SimTime::ZERO, arriving(RX_WINDOW - 1), &mut out);
        assert_eq!(delivered(&out), 1, "{name}: the window's last seq");
        for i in 0..3 {
            link.on_send(SimTime::ZERO, pkt(0, i), &mut out);
        }
        let extremes = vec![0, u64::MAX];
        link.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableNack {
                missing: extremes.clone(),
            },
            &mut out,
        );
        link.on_ctl(SimTime::ZERO, ack(0, extremes), &mut out);
        assert_eq!(link.queue_depth(), 3, "{name}");
        link.on_ctl(SimTime::ZERO, ack(u64::MAX, vec![u64::MAX]), &mut out);
        assert_eq!(link.queue_depth(), 0, "{name}");
    });
}

// --- a two-ended harness ---------------------------------------------------

/// What is in flight or pending between the two ends.
#[derive(Debug, Clone)]
enum Event {
    Send(DataPacket),
    Data(DataPacket),
    Ctl { ctl: LinkCtl, from_consumed: bool },
    Timer(u32),
}

/// What happens to each frame put on the wire, in order; frames beyond the
/// schedule arrive after 1 ms.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Lost,
    Twice(u64),
    After(u64),
}

fn fate() -> impl Strategy<Value = Fate> {
    (0u8..8, 0u64..30).prop_map(|(kind, ms)| match kind {
        0 => Fate::Lost,
        1 => Fate::Twice(ms),
        _ => Fate::After(ms),
    })
}

/// Forged frames the sender and the receiver may get at any time.
fn forged(kind: u8) -> (usize, Event) {
    let extremes = vec![0, u64::MAX];
    match kind % 4 {
        0 => (1, Event::Data(arriving(0))),
        1 => (1, Event::Data(arriving(u64::MAX))),
        2 => (
            0,
            Event::Ctl {
                ctl: ack(0, extremes),
                from_consumed: false,
            },
        ),
        _ => (
            0,
            Event::Ctl {
                ctl: LinkCtl::ReliableNack { missing: extremes },
                from_consumed: false,
            },
        ),
    }
}

#[derive(Debug, Default)]
struct Outcome {
    /// `flow_seq`s delivered upward at the receiver, in order.
    delivered: Vec<u64>,
    /// Packets the sender still holds.
    left: usize,
    /// The most timers ever pending at one end.
    most_pending: usize,
    probes: usize,
    grants_lost: usize,
    finished: bool,
}

/// End 0 sends `n` packets over `flows` flows, one a millisecond while its
/// flow is not paused, to end 1.
/// The receiver consumes everything it delivers, so IT-Reliable grants
/// flow back. With `drop_grants`, every grant the receiver sends after the
/// sender's first window is lost, and only persist probes move the stream.
fn run(
    make: Make,
    n: u64,
    flows: usize,
    fates: &[Fate],
    forgeries: &[(u64, u8)],
    drop_grants: bool,
) -> Outcome {
    let mut ends = [make(), make()];
    let mut queue: BTreeMap<(SimTime, u64), (usize, Event)> = BTreeMap::new();
    let mut order = 0u64;
    let mut at = |queue: &mut BTreeMap<_, _>, t: SimTime, to: usize, e: Event| {
        order += 1;
        queue.insert((t, order), (to, e));
    };
    for i in 0..n {
        at(
            &mut queue,
            ms(i),
            0,
            Event::Send(pkt(i as usize % flows, i + 1)),
        );
    }
    for &(t, kind) in forgeries {
        let (to, e) = forged(kind);
        at(&mut queue, ms(t), to, e);
    }
    let (mut fates, mut highest_sent) = (fates.iter(), 0);
    let mut pending = [0usize; 2];
    let mut paused = BTreeSet::new();
    let mut outcome = Outcome::default();
    for _ in 0..200_000 {
        let Some(((now, _), (end, event))) = queue.pop_first() else {
            outcome.finished = true;
            break;
        };
        let mut out = Vec::new();
        match event {
            // A paused source holds its packet back, as a client does.
            Event::Send(p) if paused.contains(&p.flow) => {
                at(
                    &mut queue,
                    now + SimDuration::from_millis(1),
                    end,
                    Event::Send(p),
                );
            }
            Event::Send(p) => ends[end].on_send(now, p, &mut out),
            Event::Data(p) => ends[end].on_data(now, p, &mut out),
            Event::Ctl { ctl, .. } => ends[end].on_ctl(now, ctl, &mut out),
            Event::Timer(token) => {
                pending[end] -= 1;
                ends[end].on_timer(now, token, &mut out);
            }
        }
        let mut wires = Vec::new();
        for action in out {
            match action {
                LinkAction::Transmit(p) => {
                    if end == 0 {
                        highest_sent = highest_sent.max(p.link_seq);
                    }
                    wires.push(Event::Data(p));
                }
                LinkAction::TransmitCtl(ctl) => {
                    let probe = matches!(
                        ctl,
                        LinkCtl::Credit {
                            granted_upto: 0,
                            ..
                        }
                    );
                    outcome.probes += usize::from(probe);
                    wires.push(Event::Ctl {
                        ctl,
                        from_consumed: false,
                    });
                }
                LinkAction::Deliver(p) => {
                    outcome.delivered.push(p.flow_seq);
                    // Everything delivered is consumed at once.
                    let mut grants = Vec::new();
                    ends[end].on_consumed(now, p.flow, &mut grants);
                    for grant in grants {
                        if let LinkAction::TransmitCtl(ctl) = grant {
                            wires.push(Event::Ctl {
                                ctl,
                                from_consumed: true,
                            });
                        }
                    }
                }
                LinkAction::PauseFlow(flow) => {
                    paused.insert(flow);
                }
                LinkAction::ResumeFlow(flow) => {
                    paused.remove(&flow);
                }
                LinkAction::Timer { delay, token } => {
                    pending[end] += 1;
                    outcome.most_pending = outcome.most_pending.max(pending[end]);
                    at(&mut queue, now + delay, end, Event::Timer(token));
                }
                _ => {}
            }
        }
        for wire in wires {
            let grant_lost = drop_grants
                && highest_sent >= u64::from(IT_RELIABLE_WINDOW)
                && matches!(
                    wire,
                    Event::Ctl {
                        from_consumed: true,
                        ..
                    }
                );
            match fates.next().copied().unwrap_or(Fate::After(0)) {
                _ if grant_lost => outcome.grants_lost += 1,
                Fate::Lost => {}
                Fate::Twice(extra) => {
                    let late = now + SimDuration::from_millis(8 + extra);
                    at(&mut queue, late, 1 - end, wire.clone());
                    at(&mut queue, now + SimDuration::from_millis(1), 1 - end, wire);
                }
                Fate::After(extra) => {
                    let when = now + SimDuration::from_millis(1 + extra);
                    at(&mut queue, when, 1 - end, wire);
                }
            }
        }
    }
    outcome.left = ends[0].queue_depth();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever is lost, duplicated, reordered or forged, each packet is
    /// delivered upward exactly once, the sender's buffer drains, and each
    /// end has at most one timer pending; a debug build also checks that
    /// the receiver's state stays inside its window.
    #[test]
    fn both_users_deliver_exactly_once_under_any_schedule(
        user in 0usize..2,
        n in 1u64..80,
        flows in 1usize..3,
        fates in proptest::collection::vec(fate(), 0..300),
        forgeries in proptest::collection::vec((0u64..100, any::<u8>()), 0..6),
    ) {
        let (name, make) = USERS[user];
        let mut outcome = run(make, n, flows, &fates, &forgeries, false);
        prop_assert!(outcome.finished, "{name}: never went quiet");
        outcome.delivered.sort_unstable();
        prop_assert_eq!(outcome.delivered, (1..=n).collect::<Vec<_>>(), "{}", name);
        prop_assert_eq!(outcome.left, 0, "{}: buffer did not drain", name);
        prop_assert!(outcome.most_pending <= 1, "{name}: {} timers pending", outcome.most_pending);
    }
}

/// Every grant after the sender's first window is lost: the stream still
/// completes, moved only by persist probes.
#[test]
fn it_reliable_completes_on_persist_probes_when_every_grant_is_lost() {
    let (_, make) = USERS[1];
    let mut outcome = run(make, 100, 1, &[], &[], true);
    assert!(outcome.finished);
    outcome.delivered.sort_unstable();
    assert_eq!(outcome.delivered, (1..=100).collect::<Vec<_>>());
    // At least 100 - 2 × 16 packets waited for a probe's answer.
    assert!(
        outcome.grants_lost >= 68,
        "{} grants lost",
        outcome.grants_lost
    );
    assert!(
        outcome.probes >= 68 / IT_RELIABLE_WINDOW as usize,
        "{}",
        outcome.probes
    );
    assert!(outcome.most_pending <= 1);
}

/// NM-Strikes remembers the 8,192 seqs up to its high mark across ring
/// wraps: a copy inside that memory is a duplicate, one below it is
/// forwarded as a late arrival.
#[test]
fn realtime_dedup_memory_follows_the_high_mark() {
    let mut link = RealtimeLink::new(RealtimeParams::live_tv());
    let mut out = Vec::new();
    for seq in 1..=20_000 {
        link.on_data(SimTime::ZERO, arriving(seq), &mut out);
    }
    assert_eq!(delivered(&out), 20_000);
    out.clear();
    for seq in [20_000, 20_000 - 8_191, 20_000 - 8_192] {
        link.on_data(SimTime::ZERO, arriving(seq), &mut out);
    }
    assert_eq!(delivered(&out), 1, "only the seq the memory has let go");
    assert_eq!(link.stats().dup_received, 2);
}

/// NM-Strikes reports a gap the moment it sees one, and one neighbour
/// frame far ahead of the high mark costs it a bounded number of strikes
/// and timers, not one per skipped seq.
#[test]
fn a_forged_realtime_seq_costs_a_bounded_gap() {
    let params = RealtimeParams::live_tv();
    let mut link = RealtimeLink::new(params);
    let mut out = Vec::new();
    link.on_data(SimTime::ZERO, arriving(2), &mut out);
    assert_eq!(observed(&out, |e| matches!(e, LinkEvent::LossDetected)), 1);
    for seq in [1 << 40, u64::MAX] {
        let mut out = Vec::new();
        link.on_data(SimTime::ZERO, arriving(seq), &mut out);
        let lost = observed(&out, |e| matches!(e, LinkEvent::LossDetected));
        assert!(lost <= CAP, "{lost} gaps scheduled");
        assert!(timers(&out).len() <= CAP * usize::from(params.n_requests));
        assert_eq!(delivered(&out), 1);
    }
    let mut out = Vec::new();
    link.on_data(SimTime::ZERO, arriving(u64::MAX), &mut out);
    assert_eq!(delivered(&out), 0, "a duplicate of the high mark");
    assert!(link.queue_bytes() < 64 << 10, "{} B", link.queue_bytes());
}

fn rt_request(seqs: impl IntoIterator<Item = u64>) -> LinkCtl {
    LinkCtl::RtRequest {
        seqs: seqs.into_iter().collect(),
        strike: 0,
    }
}

/// A request for seqs the NM-Strikes sender has not sent yet is no
/// request: once they are sent, the genuine request for one of them is
/// still answered.
#[test]
fn a_realtime_request_for_unsent_seqs_swallows_no_later_request() {
    let mut link = RealtimeLink::new(RealtimeParams::live_tv());
    let mut out = Vec::new();
    link.on_send(ms(0), pkt(0, 1), &mut out);
    link.on_ctl(ms(0), rt_request(2..=5), &mut out);
    assert_eq!(sent_seqs(&out), [1], "nothing to resend yet");
    for flow_seq in 2..=5 {
        link.on_send(ms(1), pkt(0, flow_seq), &mut out);
    }
    out.clear();
    link.on_ctl(ms(2), rt_request([3]), &mut out);
    assert_eq!(sent_seqs(&out), [3], "the genuine request is answered");
}

/// A million forged future seqs in one request leave the NM-Strikes sender
/// holding exactly what an unforged twin holds after the same sends.
#[test]
fn forged_future_realtime_requests_grow_no_sender_state() {
    let params = RealtimeParams::live_tv();
    let (mut forged, mut honest) = (RealtimeLink::new(params), RealtimeLink::new(params));
    let mut out = Vec::new();
    for link in [&mut forged, &mut honest] {
        link.on_send(ms(0), pkt(0, 1), &mut out);
    }
    forged.on_ctl(ms(0), rt_request(2..2 + 1_000_000), &mut out);
    for flow_seq in 2..=195 {
        for link in [&mut forged, &mut honest] {
            link.on_send(ms(flow_seq), pkt(0, flow_seq), &mut out);
        }
    }
    assert_eq!(forged.queue_bytes(), honest.queue_bytes());
}
