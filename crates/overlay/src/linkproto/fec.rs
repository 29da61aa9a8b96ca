//! Forward error correction link protocol — the OverQoS-style ablation.
//!
//! The paper's related work contrasts its reactive recovery protocols with
//! OverQoS \[10\], which uses "a combination of forward error correction and
//! packet retransmissions". This protocol is the pure-FEC point in that
//! design space: every block of `k` data packets is followed by `r` repair
//! packets, and any `k` of the `k + r` transmissions reconstruct the block
//! (a systematic MDS code, e.g. Reed–Solomon; the simulator carries the
//! covered headers in the repair packet rather than actual code symbols).
//!
//! Compared with NM-Strikes: overhead is **fixed** at `(k+r)/k` whether or
//! not loss occurs, no feedback channel is needed, and recovery latency is
//! bounded by the block duration — but bursts longer than `r` packets within
//! a block defeat it, and the overhead is paid even on clean links.

use std::collections::BTreeMap;

use son_netsim::time::SimTime;
use son_obs::DropClass;

use crate::packet::{DataPacket, LinkCtl};
use crate::service::{FecParams, LinkService};

use super::{LinkAction, LinkEvent, LinkProto, LinkProtoStats};

/// Receiver-side memory horizon, in blocks.
const BLOCK_MEMORY: u64 = 64;

/// One block as the receiver knows it: of the repairs, only the first one's
/// headers, and only while a seq they list is missing, since recovery reads
/// no other repair and a list whose seqs are all held yields nothing.
#[derive(Debug)]
struct BlockState {
    /// Offsets from the block start (below `k <= 255`) of the data
    /// received or recovered, each delivered upward once.
    have: [u64; 4],
    /// Repairs accepted for this block.
    repairs: u8,
    /// The first accepted repair's covered headers.
    covered: Vec<DataPacket>,
    /// When the first transmission of this block arrived, bounding the
    /// observed recovery latency by the block duration.
    first_seen: SimTime,
}

impl BlockState {
    fn new(first_seen: SimTime) -> Self {
        BlockState {
            have: [0; 4],
            repairs: 0,
            covered: Vec::new(),
            first_seen,
        }
    }

    fn holds(&self, offset: u64) -> bool {
        self.have[(offset / 64) as usize] & (1 << (offset % 64)) != 0
    }

    /// Marks `offset` held; false if it already was.
    fn insert(&mut self, offset: u64) -> bool {
        let fresh = !self.holds(offset);
        self.have[(offset / 64) as usize] |= 1 << (offset % 64);
        fresh
    }

    /// Drops the stored headers once every seq they list is held.
    fn settle(&mut self, start: u64) {
        if self.covered.iter().all(|p| self.holds(p.link_seq - start)) {
            self.covered = Vec::new();
        }
    }
}

/// FEC link protocol instance (one link, both directions).
#[derive(Debug)]
pub struct FecLink {
    params: FecParams,
    // --- sender state ---
    next_seq: u64,
    block: Vec<DataPacket>,
    // --- receiver state ---
    blocks: BTreeMap<u64, BlockState>,
    /// The highest data `link_seq` received: the receiver's memory is the
    /// `BLOCK_MEMORY` blocks behind it, and a repair may run at most that
    /// far ahead of it.
    newest: u64,
    stats: LinkProtoStats,
    recovered: u64,
}

impl FecLink {
    /// Creates an instance with the given default code parameters (packets
    /// carrying their own [`FecParams`] update the instance).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    #[must_use]
    pub fn new(params: FecParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid FEC params: {e}"));
        FecLink {
            params,
            next_seq: 0,
            block: Vec::new(),
            blocks: BTreeMap::new(),
            newest: 0,
            stats: LinkProtoStats::default(),
            recovered: 0,
        }
    }

    /// Packets reconstructed from repair information on this link.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// The first seq of the block holding `seq` (link seqs start at 1).
    fn block_start(&self, seq: u64) -> u64 {
        let k = u64::from(self.params.k);
        (seq.saturating_sub(1) / k) * k + 1
    }

    /// Whether a repair can belong to a block this receiver would keep: its
    /// start is a block boundary at most `BLOCK_MEMORY` blocks past the
    /// newest data seen, it covers at most `k` packets, all inside the
    /// block, and the block holds fewer than `k` repairs (more can never
    /// help). Anything else is a forgery or garbage: it would otherwise
    /// become the newest block and prune every real one, or grow a block
    /// without bound.
    fn repair_fits(&self, block_start: u64, covered: &[DataPacket]) -> bool {
        let k = u64::from(self.params.k);
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
                .map_or(0, |b| u64::from(b.repairs))
                < k
    }

    /// Counts a refused frame.
    fn refuse(&mut self, out: &mut Vec<LinkAction>) {
        self.stats.dropped += 1;
        out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::BufferFull)));
    }

    /// Attempts reconstruction: with `have + repairs >= k`, every missing
    /// packet of the block is recoverable from the repair headers.
    fn try_recover(&mut self, now: SimTime, start: u64, out: &mut Vec<LinkAction>) {
        let k = u64::from(self.params.k);
        let Some(state) = self.blocks.get_mut(&start) else {
            return;
        };
        let have: u64 = state.have.iter().map(|w| u64::from(w.count_ones())).sum();
        if have >= k || have + u64::from(state.repairs) < k {
            return;
        }
        // Reconstruct all missing data packets of the block. Recovery
        // latency is measured from the block's first arrival — FEC has no
        // per-packet gap detection, so the block span is the honest bound.
        let since_first = now.saturating_since(state.first_seen);
        for pkt in std::mem::take(&mut state.covered) {
            if state.insert(pkt.link_seq - start) {
                self.recovered += 1;
                self.stats.received += 1;
                out.push(LinkAction::Observe(LinkEvent::Recovered {
                    after: since_first,
                }));
                emit!(out, LinkAction::Deliver(pkt));
            }
        }
    }

    /// Forgets the blocks more than `BLOCK_MEMORY` blocks behind the newest
    /// data. Anchored on data, not on the newest block key, so a repair
    /// that runs ahead cannot move the horizon.
    fn prune(&mut self) {
        let k = u64::from(self.params.k);
        let horizon = self
            .block_start(self.newest)
            .saturating_sub(BLOCK_MEMORY * k);
        while self
            .blocks
            .first_key_value()
            .is_some_and(|(&b, _)| b < horizon)
        {
            self.blocks.pop_first();
        }
    }
}

impl LinkProto for FecLink {
    fn on_send(&mut self, _now: SimTime, mut pkt: DataPacket, out: &mut Vec<LinkAction>) {
        if let LinkService::Fec(p) = pkt.spec.link {
            if p.validate().is_ok() && self.block.is_empty() {
                self.params = p; // only switch codes on block boundaries
            }
        }
        self.next_seq += 1;
        pkt.link_seq = self.next_seq;
        self.stats.sent += 1;
        emit!(out, LinkAction::Transmit(pkt.clone()));
        // Strip the payload bytes for the repair header copy.
        pkt.payload = bytes::Bytes::new();
        self.block.push(pkt);
        if self.block.len() >= usize::from(self.params.k) {
            let block_start = self.next_seq + 1 - u64::from(self.params.k);
            for index in 0..self.params.r {
                // Repairs are full-width extra transmissions: account them
                // as overhead so the (k+r)/k cost shows up in the ratio.
                self.stats.retransmitted += 1;
                out.push(LinkAction::Observe(LinkEvent::Retransmit));
                // The last repair takes the block itself.
                let covered = if index + 1 < self.params.r {
                    self.block.clone()
                } else {
                    let k = usize::from(self.params.k);
                    std::mem::replace(&mut self.block, Vec::with_capacity(k))
                };
                out.push(LinkAction::TransmitCtl(LinkCtl::FecRepair {
                    block_start,
                    index,
                    covered,
                }));
            }
        }
    }

    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        if pkt.link_seq == 0 {
            // The sender numbers from 1: seq 0 is no block's.
            self.refuse(out);
            return;
        }
        self.newest = self.newest.max(pkt.link_seq);
        let start = self.block_start(pkt.link_seq);
        let state = self
            .blocks
            .entry(start)
            .or_insert_with(|| BlockState::new(now));
        if !state.insert(pkt.link_seq - start) {
            self.stats.dup_received += 1;
            return;
        }
        state.settle(start);
        self.stats.received += 1;
        emit!(out, LinkAction::Deliver(pkt));
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
        let state = self
            .blocks
            .entry(block_start)
            .or_insert_with(|| BlockState::new(now));
        state.repairs += 1;
        if state.repairs == 1 {
            state.covered = covered;
            state.settle(block_start);
        }
        self.try_recover(now, block_start, out);
        self.prune();
    }

    fn on_timer(&mut self, _now: SimTime, _token: u32, _out: &mut Vec<LinkAction>) {}

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, vec_bytes};
        vec_bytes(&self.block)
            + self.block.iter().map(|p| p.payload.len()).sum::<usize>()
            + btreemap_bytes(&self.blocks)
            + self
                .blocks
                .values()
                .map(|b| vec_bytes(&b.covered))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{delivered, pkt, transmitted};
    use super::*;

    fn params() -> FecParams {
        FecParams { k: 4, r: 1 }
    }

    fn send_n(link: &mut FecLink, n: u64) -> Vec<LinkAction> {
        let mut out = Vec::new();
        for i in 0..n {
            let mut p = pkt(i + 1, 100);
            p.spec.link = LinkService::Fec(params());
            p.payload = vec![7; 100].into();
            link.on_send(SimTime::ZERO, p, &mut out);
        }
        out
    }

    fn repairs(actions: &[LinkAction]) -> Vec<(u64, Vec<DataPacket>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::FecRepair {
                    block_start,
                    covered,
                    ..
                }) => Some((*block_start, covered.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sender_emits_r_repairs_per_block() {
        let mut s = FecLink::new(params());
        let out = send_n(&mut s, 9);
        assert_eq!(transmitted(&out).len(), 9);
        let reps = repairs(&out);
        assert_eq!(reps.len(), 2, "two complete blocks of 4");
        assert_eq!(reps[0].0, 1);
        assert_eq!(reps[1].0, 5);
        assert_eq!(reps[0].1.len(), 4);
        // A repair carries the covered packets' headers, never their
        // payloads (the repair symbol encodes them; it does not carry them).
        assert!(transmitted(&out).iter().all(|p| p.payload.len() == 100));
        assert!(reps[0].1.iter().all(|p| p.payload.is_empty()));
    }

    #[test]
    fn receiver_recovers_single_loss_from_repair() {
        let mut s = FecLink::new(params());
        let out = send_n(&mut s, 4);
        let data: Vec<DataPacket> = transmitted(&out).into_iter().cloned().collect();
        let (bs, covered) = repairs(&out).remove(0);

        let mut r = FecLink::new(params());
        let mut rout = Vec::new();
        // Deliver 3 of 4 data packets (seq 2 lost), then the repair.
        for p in [&data[0], &data[2], &data[3]] {
            r.on_data(SimTime::ZERO, (*p).clone(), &mut rout);
        }
        assert_eq!(delivered(&rout).len(), 3);
        r.on_ctl(
            SimTime::ZERO,
            LinkCtl::FecRepair {
                block_start: bs,
                index: 0,
                covered,
            },
            &mut rout,
        );
        let seqs: Vec<u64> = delivered(&rout).iter().map(|p| p.link_seq).collect();
        assert_eq!(seqs, vec![1, 3, 4, 2], "missing packet reconstructed last");
        assert_eq!(r.recovered(), 1);
    }

    #[test]
    fn two_losses_defeat_r1() {
        let mut s = FecLink::new(params());
        let out = send_n(&mut s, 4);
        let data: Vec<DataPacket> = transmitted(&out).into_iter().cloned().collect();
        let (bs, covered) = repairs(&out).remove(0);
        let mut r = FecLink::new(params());
        let mut rout = Vec::new();
        r.on_data(SimTime::ZERO, data[0].clone(), &mut rout);
        r.on_data(SimTime::ZERO, data[3].clone(), &mut rout);
        r.on_ctl(
            SimTime::ZERO,
            LinkCtl::FecRepair {
                block_start: bs,
                index: 0,
                covered,
            },
            &mut rout,
        );
        assert_eq!(delivered(&rout).len(), 2, "2 + 1 repair < k: unrecoverable");
        assert_eq!(r.recovered(), 0);
    }

    #[test]
    fn r2_recovers_double_loss() {
        let p = FecParams { k: 4, r: 2 };
        let mut s = FecLink::new(p);
        let mut out = Vec::new();
        for i in 0..4 {
            let mut d = pkt(i + 1, 100);
            d.spec.link = LinkService::Fec(p);
            s.on_send(SimTime::ZERO, d, &mut out);
        }
        let data: Vec<DataPacket> = transmitted(&out).into_iter().cloned().collect();
        let reps = repairs(&out);
        assert_eq!(reps.len(), 2);
        let mut r = FecLink::new(p);
        let mut rout = Vec::new();
        r.on_data(SimTime::ZERO, data[0].clone(), &mut rout);
        r.on_data(SimTime::ZERO, data[1].clone(), &mut rout);
        for (bs, covered) in reps {
            r.on_ctl(
                SimTime::ZERO,
                LinkCtl::FecRepair {
                    block_start: bs,
                    index: 0,
                    covered,
                },
                &mut rout,
            );
        }
        assert_eq!(delivered(&rout).len(), 4);
        assert_eq!(r.recovered(), 2);
    }

    #[test]
    fn duplicates_and_late_copies_suppressed() {
        let mut s = FecLink::new(params());
        let out = send_n(&mut s, 4);
        let data: Vec<DataPacket> = transmitted(&out).into_iter().cloned().collect();
        let (bs, covered) = repairs(&out).remove(0);
        let mut r = FecLink::new(params());
        let mut rout = Vec::new();
        for p in [&data[0], &data[2], &data[3]] {
            r.on_data(SimTime::ZERO, (*p).clone(), &mut rout);
        }
        r.on_ctl(
            SimTime::ZERO,
            LinkCtl::FecRepair {
                block_start: bs,
                index: 0,
                covered,
            },
            &mut rout,
        );
        rout.clear();
        // The "lost" packet finally arrives: already recovered -> duplicate.
        r.on_data(SimTime::ZERO, data[1].clone(), &mut rout);
        assert!(delivered(&rout).is_empty());
        assert_eq!(r.stats().dup_received, 1);
    }

    /// Refused frames are counted as drops, not delivered.
    fn drops(actions: &[LinkAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, LinkAction::Observe(LinkEvent::Drop(_))))
            .count()
    }

    #[test]
    fn extreme_link_seqs_neither_panic_nor_stop_recovery() {
        let mut r = FecLink::new(params());
        let mut rout = Vec::new();
        r.on_data(SimTime::ZERO, pkt(0, 100), &mut rout);
        assert!(delivered(&rout).is_empty(), "seq 0 is no block's");
        assert_eq!((drops(&rout), r.stats().dropped), (1, 1));

        let mut last = pkt(1, 100);
        last.link_seq = u64::MAX;
        r.on_data(SimTime::ZERO, last, &mut rout);
        assert_eq!(delivered(&rout).len(), 1, "a real seq is delivered");
    }

    #[test]
    fn forged_repairs_are_refused_and_recovery_survives_them() {
        let mut s = FecLink::new(params());
        let out = send_n(&mut s, 4);
        let data: Vec<DataPacket> = transmitted(&out).into_iter().cloned().collect();
        let (bs, covered) = repairs(&out).remove(0);

        let mut r = FecLink::new(params());
        let mut rout = Vec::new();
        let forged = |block_start: u64, covered: Vec<DataPacket>| LinkCtl::FecRepair {
            block_start,
            index: 0,
            covered,
        };
        let mut far = pkt(1, 100);
        far.link_seq = u64::MAX;
        for ctl in [
            forged(u64::MAX, Vec::new()),
            forged(0, Vec::new()),
            forged(2, Vec::new()),
            forged(1 + (BLOCK_MEMORY + 1) * 4, Vec::new()),
            forged(5, covered.clone()),
            forged(1, vec![far]),
            forged(1, [covered.clone(), covered.clone()].concat()),
        ] {
            r.on_ctl(SimTime::ZERO, ctl, &mut rout);
        }
        assert_eq!(drops(&rout), 7, "every forgery is refused");
        assert_eq!(r.stats().dropped, 7);

        // The honest block with one loss still recovers.
        for p in [&data[0], &data[2], &data[3]] {
            r.on_data(SimTime::ZERO, (*p).clone(), &mut rout);
        }
        r.on_ctl(SimTime::ZERO, forged(bs, covered), &mut rout);
        let seqs: Vec<u64> = delivered(&rout).iter().map(|p| p.link_seq).collect();
        assert_eq!(seqs, vec![1, 3, 4, 2]);
        assert_eq!(r.recovered(), 1);
    }

    #[test]
    fn overhead_matches_params() {
        assert!((FecParams::light().overhead() - 1.1).abs() < 1e-12);
        assert!((FecParams::strong().overhead() - 1.3).abs() < 1e-12);
        assert!(FecParams { k: 0, r: 1 }.validate().is_err());
        assert!(FecParams { k: 1, r: 0 }.validate().is_err());
    }
}
