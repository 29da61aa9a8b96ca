//! The FEC and NM-Strikes link protocols against reference models that keep
//! everything: an FEC end that stores every repair it accepts with a
//! `BTreeSet` of the seqs it holds, and an NM-Strikes sender whose history
//! is a `HashMap` purged by `retain`. Whatever arrives, each protocol acts
//! exactly as its model does; and a forger can make the FEC receiver hold
//! at most one header list per block.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::DropClass;
use son_overlay::linkproto::{
    FecLink, LinkAction, LinkEvent, LinkProto, LinkProtoStats, RealtimeLink,
};
use son_overlay::packet::{DataPacket, LinkCtl};
use son_overlay::service::{FecParams, FlowSpec, LinkService, RealtimeParams};
use son_overlay::{Destination, FlowKey, OverlayAddr};
use son_topo::NodeId;

/// How many blocks the FEC receiver remembers behind its newest data, and
/// how far ahead of it a repair may start.
const BLOCK_MEMORY: u64 = 64;
/// How long the NM-Strikes sender keeps what it sent, in budgets.
const HISTORY_BUDGETS: u64 = 2;
/// The NM-Strikes receiver's dedup memory, in seqs.
const DELIVERED_MEMORY: u64 = 8192;

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A packet with a unique `flow_seq`.
fn pkt(flow_seq: u64) -> DataPacket {
    DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(0), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(9), 2)),
        ),
        flow_seq,
        origin: NodeId(0),
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

/// The payload-free header of the packet sent as `link_seq`.
fn header(link_seq: u64) -> DataPacket {
    DataPacket {
        link_seq,
        ..pkt(link_seq)
    }
}

/// A packet sent under FEC code `params`.
fn fec_pkt(flow_seq: u64, params: FecParams) -> DataPacket {
    let mut p = pkt(flow_seq);
    p.spec.link = LinkService::Fec(params);
    p
}

fn repair(block_start: u64, covered: Vec<DataPacket>) -> LinkCtl {
    LinkCtl::FecRepair {
        block_start,
        index: 0,
        covered,
    }
}

#[derive(Debug)]
struct ModelBlock {
    have: BTreeSet<u64>,
    repairs: Vec<Vec<DataPacket>>,
    first_seen: SimTime,
}

/// The FEC protocol as it was while every accepted repair was stored.
#[derive(Debug)]
struct FecModel {
    params: FecParams,
    next_seq: u64,
    block: Vec<DataPacket>,
    blocks: BTreeMap<u64, ModelBlock>,
    newest: u64,
    stats: LinkProtoStats,
    recovered: u64,
}

impl FecModel {
    fn new(params: FecParams) -> Self {
        FecModel {
            params,
            next_seq: 0,
            block: Vec::new(),
            blocks: BTreeMap::new(),
            newest: 0,
            stats: LinkProtoStats::default(),
            recovered: 0,
        }
    }

    fn k(&self) -> u64 {
        u64::from(self.params.k)
    }

    fn block_start(&self, seq: u64) -> u64 {
        (seq.saturating_sub(1) / self.k()) * self.k() + 1
    }

    fn entry(&mut self, start: u64, now: SimTime) -> &mut ModelBlock {
        self.blocks.entry(start).or_insert_with(|| ModelBlock {
            have: BTreeSet::new(),
            repairs: Vec::new(),
            first_seen: now,
        })
    }

    fn repair_fits(&self, block_start: u64, covered: &[DataPacket]) -> bool {
        let k = self.k();
        let ceiling = self
            .block_start(self.newest)
            .saturating_add(BLOCK_MEMORY * k);
        let end = block_start.saturating_add(k);
        block_start != 0
            && (block_start - 1).is_multiple_of(k)
            && block_start <= ceiling
            && covered.len() as u64 <= k
            && covered
                .iter()
                .all(|p| (block_start..end).contains(&p.link_seq))
            && self
                .blocks
                .get(&block_start)
                .map_or(0, |b| b.repairs.len() as u64)
                < k
    }

    fn try_recover(&mut self, now: SimTime, start: u64, out: &mut Vec<LinkAction>) {
        let k = self.k();
        let Some(state) = self.blocks.get_mut(&start) else {
            return;
        };
        let have = state.have.len() as u64;
        let repairs = state.repairs.len() as u64;
        if have >= k || have + repairs < k || state.repairs.is_empty() {
            return;
        }
        let since_first = now.saturating_since(state.first_seen);
        for p in state.repairs[0].clone() {
            if state.have.insert(p.link_seq) {
                self.recovered += 1;
                self.stats.received += 1;
                out.push(LinkAction::Observe(LinkEvent::Recovered {
                    after: since_first,
                }));
                out.push(LinkAction::Deliver(p));
            }
        }
    }

    fn prune(&mut self) {
        let horizon = self
            .block_start(self.newest)
            .saturating_sub(BLOCK_MEMORY * self.k());
        self.blocks = self.blocks.split_off(&horizon);
    }

    fn refuse(&mut self, out: &mut Vec<LinkAction>) {
        self.stats.dropped += 1;
        out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::BufferFull)));
    }

    fn on_send(&mut self, mut p: DataPacket, out: &mut Vec<LinkAction>) {
        if let LinkService::Fec(params) = p.spec.link {
            if params.validate().is_ok() && self.block.is_empty() {
                self.params = params;
            }
        }
        self.next_seq += 1;
        p.link_seq = self.next_seq;
        self.stats.sent += 1;
        out.push(LinkAction::Transmit(p.clone()));
        p.payload = bytes::Bytes::new();
        self.block.push(p);
        if self.block.len() >= usize::from(self.params.k) {
            let block_start = self.next_seq + 1 - self.k();
            for index in 0..self.params.r {
                self.stats.retransmitted += 1;
                out.push(LinkAction::Observe(LinkEvent::Retransmit));
                out.push(LinkAction::TransmitCtl(LinkCtl::FecRepair {
                    block_start,
                    index,
                    covered: self.block.clone(),
                }));
            }
            self.block.clear();
        }
    }

    fn on_data(&mut self, now: SimTime, p: DataPacket, out: &mut Vec<LinkAction>) {
        if p.link_seq == 0 {
            self.refuse(out);
            return;
        }
        self.newest = self.newest.max(p.link_seq);
        let start = self.block_start(p.link_seq);
        if !self.entry(start, now).have.insert(p.link_seq) {
            self.stats.dup_received += 1;
            return;
        }
        self.stats.received += 1;
        out.push(LinkAction::Deliver(p));
        self.try_recover(now, start, out);
        self.prune();
    }

    fn on_ctl(&mut self, now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        let LinkCtl::FecRepair {
            block_start,
            covered,
            ..
        } = ctl
        else {
            return;
        };
        if !self.repair_fits(block_start, &covered) {
            self.refuse(out);
            return;
        }
        self.entry(block_start, now).repairs.push(covered);
        self.try_recover(now, block_start, out);
        self.prune();
    }
}

/// What reaches the FEC end under test.
#[derive(Debug, Clone)]
enum FecEvent {
    /// A frame from the honest sender.
    Data(DataPacket),
    Ctl(LinkCtl),
    /// The end under test sends a packet itself, which may switch its code.
    Send(DataPacket),
}

/// How the wire treats an honest frame: lost, delivered twice, or
/// delivered once, each copy up to ten frames late.
#[derive(Debug, Clone, Copy)]
struct Fate {
    kind: u8,
    late: u64,
    later: u64,
}

fn fec_params() -> impl Strategy<Value = FecParams> {
    (1u8..7, 1u8..4).prop_map(|(k, r)| FecParams { k, r })
}

/// A forged repair built from a kind and two numbers: a misaligned start,
/// a start near or past the horizon ahead, a short covered list, a list
/// reaching past its block, an honest-looking list repeated past `k`
/// repairs, or an empty list.
fn forged(kind: u8, a: u64, b: u64, k: u64, blocks: u64) -> Vec<LinkCtl> {
    let start = 1 + (a % blocks.max(1)) * k;
    let seqs = start..start + k;
    match kind % 6 {
        0 => vec![repair(start + 1 + b % k, vec![header(start)])],
        1 => {
            let start = 1 + (blocks + BLOCK_MEMORY - 3 + b % 6) * k;
            vec![repair(start, (start..start + k).map(header).collect())]
        }
        2 => vec![repair(
            start,
            seqs.filter(|s| b >> (s - start) & 1 == 1)
                .map(header)
                .collect(),
        )],
        3 => vec![repair(start, (start..=start + k).map(header).collect())],
        4 => vec![repair(start, seqs.map(header).collect()); k as usize + 1],
        _ => vec![repair(start, Vec::new())],
    }
}

/// The honest stream of `n` packets, sent under `first` and then, from
/// packet `switch_at` on, under `second`, as it arrives after `fates`, with
/// forgeries and sends of the end under test mixed in.
fn fec_schedule(
    n: u64,
    (first, second, switch_at): (FecParams, FecParams, u64),
    fates: &[Fate],
    extras: &[(u64, u8, u64, u64)],
) -> Vec<FecEvent> {
    let mut tx = FecLink::new(first);
    let mut frames = Vec::new();
    for i in 1..=n {
        let params = if i < switch_at { first } else { second };
        let mut out = Vec::new();
        tx.on_send(SimTime::ZERO, fec_pkt(i, params), &mut out);
        for action in out {
            match action {
                LinkAction::Transmit(p) => frames.push(FecEvent::Data(p)),
                LinkAction::TransmitCtl(ctl) => frames.push(FecEvent::Ctl(ctl)),
                _ => {}
            }
        }
    }
    let mut arrivals: BTreeMap<(u64, u64), FecEvent> = BTreeMap::new();
    let mut order = 0;
    let mut at = |slot: u64, event: FecEvent| {
        order += 1;
        arrivals.insert((slot, order), event);
    };
    let blocks = n / u64::from(first.k.min(second.k)) + 1;
    for (i, frame) in frames.into_iter().enumerate() {
        let slot = i as u64 * 4;
        let fate = fates.get(i).copied().unwrap_or(Fate {
            kind: 2,
            late: 0,
            later: 0,
        });
        match fate.kind % 8 {
            0 => {}
            1 => {
                at(slot + fate.late, frame.clone());
                at(slot + fate.later, frame);
            }
            _ => at(slot + fate.late, frame),
        }
    }
    for &(slot, kind, a, b) in extras {
        let code = if b % 2 == 0 { first } else { second };
        if kind % 8 == 7 {
            at(slot, FecEvent::Send(fec_pkt(1_000 + slot, code)));
            continue;
        }
        for ctl in forged(kind, a, b / 2, u64::from(code.k), blocks) {
            at(slot, FecEvent::Ctl(ctl));
        }
    }
    arrivals.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever is lost, duplicated, reordered or forged, and whichever
    /// code the end under test switches to, the FEC end emits exactly the
    /// model's actions and ends with its stats.
    fn fec_acts_as_the_model_that_stores_every_repair(
        n in 1u64..120,
        codes in (fec_params(), fec_params(), 0u64..120),
        fates in proptest::collection::vec(
            (any::<u8>(), 0u64..40, 0u64..40).prop_map(|(kind, late, later)| Fate { kind, late, later }),
            0..200,
        ),
        extras in proptest::collection::vec((0u64..500, any::<u8>(), any::<u64>(), any::<u64>()), 0..24),
    ) {
        let schedule = fec_schedule(n, codes, &fates, &extras);
        let mut link = FecLink::new(codes.0);
        let mut model = FecModel::new(codes.0);
        for (step, event) in schedule.into_iter().enumerate() {
            let now = ms(step as u64);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            match event {
                FecEvent::Data(p) => {
                    link.on_data(now, p.clone(), &mut got);
                    model.on_data(now, p, &mut want);
                }
                FecEvent::Ctl(ctl) => {
                    link.on_ctl(now, ctl.clone(), &mut got);
                    model.on_ctl(now, ctl, &mut want);
                }
                FecEvent::Send(p) => {
                    link.on_send(now, p.clone(), &mut got);
                    model.on_send(p, &mut want);
                }
            }
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {}", step);
        }
        prop_assert_eq!(link.stats(), model.stats);
        prop_assert_eq!(link.recovered(), model.recovered);
    }
}

/// A forger that sends every block the receiver would keep as many
/// repairs as it accepts pins at most one header list per block, not `k`.
#[test]
fn forged_repairs_pin_at_most_one_header_list_per_block() {
    const K: u8 = 8;
    let k = u64::from(K);
    let mut link = FecLink::new(FecParams { k: K, r: 1 });
    let newest = BLOCK_MEMORY * k + 1;
    let mut out = Vec::new();
    link.on_data(SimTime::ZERO, header(newest), &mut out);
    // The blocks from BLOCK_MEMORY behind the newest data to BLOCK_MEMORY
    // ahead of it.
    let starts: Vec<u64> = (0..=2 * BLOCK_MEMORY).map(|b| 1 + b * k).collect();
    let bound = starts.len() * (usize::from(K) * size_of::<DataPacket>() + 128);
    for round in 1..=k {
        out.clear();
        for &start in &starts {
            let covered = (start..start + k)
                .filter(|&s| s != newest)
                .map(header)
                .collect();
            link.on_ctl(SimTime::ZERO, repair(start, covered), &mut out);
        }
        let refused = out
            .iter()
            .filter(|a| matches!(a, LinkAction::Observe(LinkEvent::Drop(_))))
            .count();
        assert_eq!(refused, 0, "round {round}: every repair fits");
        assert!(
            link.queue_bytes() <= bound,
            "round {round}: {} B held, bound {bound} B",
            link.queue_bytes()
        );
    }
}

/// The NM-Strikes sender as it was while its history was a `HashMap`
/// purged by `retain`, with requests for unsent seqs ignored.
struct HistoryModel {
    params: RealtimeParams,
    next_seq: u64,
    history: HashMap<u64, (DataPacket, SimTime)>,
    requested: BTreeSet<u64>,
}

impl HistoryModel {
    fn send(&mut self, now: SimTime, mut p: DataPacket) -> DataPacket {
        self.next_seq += 1;
        p.link_seq = self.next_seq;
        self.history.insert(self.next_seq, (p.clone(), now));
        if self.next_seq.is_multiple_of(64) {
            let horizon = self.params.budget.saturating_mul(HISTORY_BUDGETS);
            self.history
                .retain(|_, (_, sent)| now.saturating_since(*sent) <= horizon);
            let keep_from = self.next_seq.saturating_sub(4 * DELIVERED_MEMORY);
            self.requested = self.requested.split_off(&keep_from);
        }
        p
    }

    /// The packets resent at once, and the seq of each later copy armed.
    fn request(&mut self, seqs: &[u64]) -> (Vec<DataPacket>, Vec<u64>) {
        let (mut now, mut later) = (Vec::new(), Vec::new());
        for &seq in seqs {
            if seq > self.next_seq || !self.requested.insert(seq) {
                continue;
            }
            let Some((p, _)) = self.history.get(&seq) else {
                continue;
            };
            now.push(p.clone());
            later.extend((1..self.params.m_retransmissions).map(|_| seq));
        }
        (now, later)
    }
}

#[derive(Debug, Clone)]
enum RtOp {
    /// Send one packet this many milliseconds after the previous op.
    Send(u64),
    /// A request for seqs at these offsets from the newest one sent,
    /// with `u64::MAX` and 0 among them.
    Request(Vec<i64>),
    /// Fire the pending retransmit timer at this index.
    Fire(usize),
}

fn rt_op() -> impl Strategy<Value = RtOp> {
    (
        0u8..10,
        0u64..12,
        proptest::collection::vec(-200i64..4, 1..6),
        any::<usize>(),
    )
        .prop_map(|(kind, gap, offsets, index)| match kind {
            0..=5 => RtOp::Send(gap),
            6 | 7 => RtOp::Request(offsets),
            _ => RtOp::Fire(index),
        })
}

fn link_seqs(packets: &[DataPacket]) -> Vec<(u64, u64)> {
    packets.iter().map(|p| (p.link_seq, p.flow_seq)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With send times rising, requests in and out of range and retransmit
    /// timers firing, the NM-Strikes sender's ring history transmits
    /// exactly what the `HashMap` history does.
    fn realtime_history_ring_acts_as_a_hash_map_history(
        budget_ms in 5u64..60,
        m_retransmissions in 1u8..4,
        ops in proptest::collection::vec(rt_op(), 1..700),
    ) {
        let params = RealtimeParams {
            n_requests: 2,
            m_retransmissions,
            budget: SimDuration::from_millis(budget_ms),
        };
        let mut link = RealtimeLink::new(params);
        let mut model = HistoryModel {
            params,
            next_seq: 0,
            history: HashMap::new(),
            requested: BTreeSet::new(),
        };
        let (mut now, mut flow_seq) = (SimTime::ZERO, 0);
        let mut pending: Vec<(u32, u64)> = Vec::new();
        for op in ops {
            let mut out = Vec::new();
            let want = match op {
                RtOp::Send(gap) => {
                    now += SimDuration::from_millis(gap);
                    flow_seq += 1;
                    link.on_send(now, pkt(flow_seq), &mut out);
                    vec![model.send(now, pkt(flow_seq))]
                }
                RtOp::Request(offsets) => {
                    let mut seqs: Vec<u64> = offsets
                        .iter()
                        .map(|&o| model.next_seq.saturating_add_signed(o))
                        .collect();
                    seqs.extend([0, u64::MAX]);
                    link.on_ctl(now, LinkCtl::RtRequest { seqs: seqs.clone(), strike: 0 }, &mut out);
                    let (sent, later) = model.request(&seqs);
                    let tokens: Vec<u32> = out
                        .iter()
                        .filter_map(|a| match a {
                            LinkAction::Timer { token, .. } => Some(*token),
                            _ => None,
                        })
                        .collect();
                    prop_assert_eq!(tokens.len(), later.len());
                    pending.extend(tokens.into_iter().zip(later));
                    sent
                }
                RtOp::Fire(index) => {
                    if pending.is_empty() {
                        continue;
                    }
                    let (token, seq) = pending.swap_remove(index % pending.len());
                    link.on_timer(now, token, &mut out);
                    model.history.get(&seq).map(|(p, _)| p.clone()).into_iter().collect()
                }
            };
            let got: Vec<DataPacket> = out
                .into_iter()
                .filter_map(|a| match a {
                    LinkAction::Transmit(p) => Some(p),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(link_seqs(&got), link_seqs(&want));
        }
    }
}
