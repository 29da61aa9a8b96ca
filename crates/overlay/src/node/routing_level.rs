//! The routing level: per-packet forwarding decisions over the shared
//! connectivity and group state.
//!
//! Covers the path of a packet *through* the node — ingress construction
//! (source-route stamps, anycast resolution, authentication tags), the
//! next-hop decision, duplicate suppression, IT-Reliable credit accounting,
//! adversarial transit behaviour, and the hand-off to the link level. The
//! per-flow facts it needs (cached stamps keyed by topology version,
//! upstream links, counters) live in the shared
//! [`FlowTable`](crate::flow::FlowTable).

use son_netsim::sim::Ctx;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::trace::{TraceContext, TraceStage};
use son_obs::DropClass;
use son_topo::EdgeId;

use crate::addr::{Destination, FlowKey, VirtualPort};
use crate::adversary::{Behavior, Verdict};
use crate::linkproto::LinkAction;
use crate::obs::FlowObs;
use crate::packet::{DataPacket, Wire};
use crate::service::{FlowSpec, LinkService, RoutingService};

use super::OverlayNode;
use super::TimerKey;

impl OverlayNode {
    /// Records a per-packet trace event if the packet is sampled (carries a
    /// [`TraceContext`]); free otherwise.
    pub(super) fn trace_pkt(
        &mut self,
        now: SimTime,
        pkt: &DataPacket,
        stage: TraceStage,
        link: Option<usize>,
    ) {
        if let Some(tctx) = pkt.trace {
            self.obs.trace(now, tctx, pkt, stage, link);
        }
    }

    /// Local delivery targets of a packet, if any, into a caller-owned
    /// buffer (cleared first): a transit packet costs no allocation.
    fn local_targets_into(&self, pkt: &DataPacket, out: &mut Vec<VirtualPort>) {
        out.clear();
        match pkt.flow.dst() {
            Destination::Unicast(addr) => {
                if addr.node == self.me && self.sessions.client_proc(addr.port).is_some() {
                    out.push(addr.port);
                }
            }
            Destination::Multicast(group) => out.extend(self.groups.local_members(group)),
            Destination::Anycast(group) => {
                if pkt.resolved_dst == Some(self.me) {
                    // Deliver to exactly one local member.
                    out.extend(self.groups.local_members(group).take(1));
                }
            }
        }
    }

    /// Computes the next-hop out-edges for forwarding a packet from this
    /// node into a caller-owned buffer (cleared first). Every consulted
    /// source — the dense next-hop table, the multicast cache, the member
    /// cache — is version-keyed, so a warm call allocates nothing. The
    /// first unicast lookup of a topology version builds the next-hop
    /// table, profiled as `route.spt`.
    pub(super) fn out_edges_into(
        &mut self,
        pkt: &DataPacket,
        in_edge: Option<EdgeId>,
        out: &mut Vec<EdgeId>,
    ) {
        out.clear();
        if let Some(mask) = &pkt.mask {
            self.forwarding.mask_out_edges_into(mask, in_edge, out);
            return;
        }
        let dst = match pkt.flow.dst() {
            Destination::Unicast(addr) => addr.node,
            Destination::Multicast(group) => {
                let gv = self.groups.version();
                if self.member_cache.get(&group).is_none_or(|&(v, _)| v != gv) {
                    let members = self.groups.members_of(group);
                    self.member_cache.insert(group, (gv, members));
                }
                let members = &self.member_cache[&group].1;
                out.extend_from_slice(self.forwarding.multicast_out_edges(pkt.origin, members));
                return;
            }
            Destination::Anycast(_) => match pkt.resolved_dst {
                Some(dst) => dst,
                None => return,
            },
        };
        if dst != self.me {
            self.forwarding.warm(self.obs.perf());
            out.extend(self.forwarding.unicast_next_hop(dst));
        }
    }

    /// Core data-plane handling for a packet that surfaced at this node:
    /// from the link protocol on `in_link` (`recovered_after` being the
    /// recovery latency that protocol reported just before, if any), or
    /// freshly built at the ingress (`None`). The packet is read where it
    /// lies — in its link batch, or the ingress's local — and stamped in
    /// place. Returns the flow's counter handles when it goes on: its
    /// out-edges are left in `out_buf`, and whoever owns the packet hands
    /// it to [`OverlayNode::forward`].
    pub(super) fn handle_upward(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        pkt: &mut DataPacket,
        in_link: Option<usize>,
        recovered_after: Option<SimDuration>,
    ) -> Option<FlowObs> {
        let mut targets = std::mem::take(&mut self.target_buf);
        let mut outs = std::mem::take(&mut self.out_buf);
        let onward = self.route_upward(ctx, pkt, in_link, recovered_after, &mut targets, &mut outs);
        self.target_buf = targets;
        self.out_buf = outs;
        onward
    }

    /// Hands the packet `held` holds, which [`OverlayNode::handle_upward`]
    /// routed onward, to the link protocols of the out-edges it left in
    /// `out_buf`.
    pub(super) fn forward(&mut self, ctx: &mut Ctx<'_, Wire>, held: &mut LinkAction, fo: FlowObs) {
        let outs = std::mem::take(&mut self.out_buf);
        self.transmit_out(ctx, held, &outs, fo);
        self.out_buf = outs;
    }

    fn route_upward(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        pkt: &mut DataPacket,
        in_link: Option<usize>,
        recovered_after: Option<SimDuration>,
        targets: &mut Vec<VirtualPort>,
        outs: &mut Vec<EdgeId>,
    ) -> Option<FlowObs> {
        let is_it_reliable = matches!(pkt.spec.link, LinkService::ItReliable);
        let in_edge = in_link.map(|link| self.links[link].edge);
        if let Some(link) = in_link {
            // One more overlay link traversed: bump the trace hop so every
            // event at this node carries the incremented count, then
            // attribute the link's recovery latency to the arrival.
            if let Some(tctx) = pkt.trace.as_mut() {
                tctx.hop = tctx.hop.saturating_add(1);
                let tctx = *tctx;
                if let Some(after) = recovered_after {
                    let stage = TraceStage::Recovered {
                        after_ns: after.as_nanos(),
                    };
                    self.obs.trace(ctx.now(), tctx, pkt, stage, in_link);
                }
            }
            // Honest receipt accounting for the watchdog: the packet
            // surfaced from this link and is presumed to progress; the
            // adversary check charges the credit back if it swallows it.
            self.watch_note_received(link);
            // Remember the upstream of IT-Reliable flows for credits.
            if is_it_reliable {
                self.flows
                    .ensure(pkt.flow, pkt.spec, &mut self.obs)
                    .set_upstream(link);
            }
        }
        // Authentication: drop packets that do not verify (§IV-B).
        if self.config.auth_enabled
            && !self
                .keys
                .verify(pkt.origin, pkt.flow, pkt.flow_seq, pkt.size, pkt.auth_tag)
        {
            self.obs.drop(DropClass::Auth);
            self.trace_pkt(ctx.now(), pkt, TraceStage::Drop(DropClass::Auth), in_link);
            self.flow_dropped(pkt);
            return None;
        }
        // A node id is any u32 on the wire. One outside the topology where
        // forwarding would look it up — the unicast destination, the
        // resolved anycast member, the multicast tree's root — is forged
        // and names no route: it stops here, before any lookup.
        let named = match pkt.flow.dst() {
            Destination::Unicast(addr) => Some(addr.node),
            Destination::Anycast(_) => pkt.resolved_dst,
            Destination::Multicast(_) => Some(pkt.origin),
        };
        if named.is_some_and(|n| n.0 >= self.topology.node_count()) {
            self.obs.drop(DropClass::Unroutable);
            let stage = TraceStage::Drop(DropClass::Unroutable);
            self.trace_pkt(ctx.now(), pkt, stage, in_link);
            self.flow_dropped(pkt);
            return None;
        }
        // De-duplication for redundant dissemination: only the first copy is
        // processed; the rest stop here (§II-B). A suppressed IT-Reliable
        // copy is still *consumed* from its sender's perspective, so the
        // credit goes back (no leak under redundant routing).
        if pkt.mask.is_some() && !self.dedup.first_sighting(pkt.flow, pkt.flow_seq) {
            self.obs.drop(DropClass::DedupDuplicate);
            self.trace_pkt(
                ctx.now(),
                pkt,
                TraceStage::Drop(DropClass::DedupDuplicate),
                in_link,
            );
            self.flow_dropped(pkt);
            if is_it_reliable {
                if let Some(link) = in_link {
                    self.grant_consumed(ctx, link, pkt.flow);
                }
            }
            return None;
        }
        // Where the packet goes from here, decided once: the local clients
        // it is for, and the onward links (also what the IT-Reliable credit
        // check needs).
        self.local_targets_into(pkt, targets);
        self.out_edges_into(pkt, in_edge, outs);
        // The one flow-table lookup of the packet's visit. A packet that
        // dead-ends here (a mask leaf, a group with nobody downstream)
        // leaves no flow context behind.
        let fo = if targets.is_empty() && outs.is_empty() {
            None
        } else {
            let fc = self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs);
            if !targets.is_empty() {
                fc.mark_egress();
            }
            if in_link.is_some() && !outs.is_empty() {
                fc.mark_transit();
            }
            Some(fc.obs())
        };
        // IT-Reliable credit accounting: a packet that terminates here (no
        // onward hop) is consumed the moment it arrives, so the neighbor
        // that sent this copy gets its credit back immediately.
        let credit = in_link
            .filter(|_| is_it_reliable && outs.is_empty())
            .map(|link| (link, pkt.flow));
        if let Some(fo) = fo.filter(|_| !targets.is_empty()) {
            let now = ctx.now();
            self.obs
                .delivered_local(now.saturating_since(pkt.created_at).as_nanos());
            self.trace_pkt(now, pkt, TraceStage::Deliver, in_link);
            self.obs.inc(fo.delivered);
            let mut sa = self.bufs.take_session();
            self.sessions.deliver(now, pkt, targets, &mut sa);
            self.dispatch_session(ctx, sa);
        }
        if let Some((link, flow)) = credit {
            self.grant_consumed(ctx, link, flow);
        }
        self.onward_checks(ctx, pkt, in_edge, outs, fo)
    }

    /// What stands between a forwarding decision and the wire: the
    /// stranded-packet and TTL checks and, for transit packets, this node's
    /// (possibly compromised) behaviour. Returns the flow's counter handles
    /// when `pkt` should now go out on `outs`, `None` when it ended here.
    /// Works on the caller's packet in place, where it lies.
    pub(super) fn onward_checks(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        pkt: &mut DataPacket,
        in_edge: Option<EdgeId>,
        outs: &[EdgeId],
        fo: Option<FlowObs>,
    ) -> Option<FlowObs> {
        if outs.is_empty() {
            // A unicast/anycast packet that has not reached its destination
            // and has no usable next hop is an unroutable drop (e.g. the
            // route vanished mid-flight). An empty out-set is otherwise the
            // normal end of dissemination: local delivery, a mask leaf, or
            // no downstream group members.
            let stranded = pkt.mask.is_none()
                && match pkt.flow.dst() {
                    Destination::Unicast(a) => a.node != self.me,
                    Destination::Anycast(_) => pkt.resolved_dst.is_some_and(|d| d != self.me),
                    Destination::Multicast(_) => false,
                };
            if stranded {
                self.obs.drop(DropClass::Unroutable);
                self.trace_pkt(
                    ctx.now(),
                    pkt,
                    TraceStage::Drop(DropClass::Unroutable),
                    None,
                );
                self.flow_dropped(pkt);
            }
            return None;
        }
        if pkt.ttl == 0 {
            self.obs.drop(DropClass::Ttl);
            self.trace_pkt(ctx.now(), pkt, TraceStage::Drop(DropClass::Ttl), None);
            self.flow_dropped(pkt);
            return None;
        }
        pkt.ttl -= 1;
        // The caller's flow lookup, if it made one, serves the whole visit.
        let fo = match fo {
            Some(fo) => fo,
            None => self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs).obs(),
        };
        // Compromised behaviour applies to *transit* packets only: a node
        // always serves its own clients' sends faithfully (an attacker
        // controlling the client side is modelled as a flooding client).
        if in_edge.is_some() {
            match self.behavior.forward_verdict(pkt) {
                Verdict::Forward => {}
                Verdict::Drop => {
                    self.obs.drop(DropClass::Adversary);
                    self.trace_pkt(ctx.now(), pkt, TraceStage::Drop(DropClass::Adversary), None);
                    self.flow_dropped(pkt);
                    // The honest receipt accounting: the packet did not
                    // progress, and the watchdog upstream will see it.
                    self.watch_note_blackholed(in_edge);
                    return None;
                }
                Verdict::Delay(extra) => {
                    let token = self.next_delay_token;
                    self.next_delay_token = self.next_delay_token.wrapping_add(1);
                    // Held as a copy; the caller drops the original.
                    self.delayed.insert(token, (pkt.clone(), in_edge));
                    ctx.set_timer(extra, TimerKey::DelayedForward { token }.encode());
                    return None;
                }
                Verdict::Duplicate(copies) => {
                    for _ in 1..copies {
                        let mut copy = LinkAction::Deliver(pkt.clone());
                        self.transmit_out(ctx, &mut copy, outs, fo);
                    }
                }
                Verdict::Misroute => {
                    // Send out the first link that is neither the arrival
                    // nor a routed out-link; fall back to eating the packet.
                    let wrong = self
                        .links
                        .iter()
                        .map(|l| l.edge)
                        .find(|e| Some(*e) != in_edge && !outs.contains(e));
                    match wrong {
                        Some(e) => {
                            self.obs.named("adversary_misrouted");
                            let mut copy = LinkAction::Deliver(pkt.clone());
                            self.transmit_out(ctx, &mut copy, &[e], fo);
                        }
                        None => {
                            self.obs.drop(DropClass::Adversary);
                            self.flow_dropped(pkt);
                        }
                    }
                    return None;
                }
            }
        }
        Some(fo)
    }

    /// Hands the packet `held` holds (a [`LinkAction::Deliver`], see
    /// [`OverlayNode::link_send`]) to the link protocol of each of `outs`
    /// that is one of this node's links: every edge but the last of `outs`
    /// takes a copy, the last the packet itself.
    pub(super) fn transmit_out(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        held: &mut LinkAction,
        outs: &[EdgeId],
        fo: FlowObs,
    ) {
        let LinkAction::Deliver(pkt) = held else {
            return;
        };
        let now = ctx.now();
        let slot = pkt.spec.link.slot();
        let mut edges = outs.iter().peekable();
        while let Some(edge) = edges.next() {
            let Some(&link) = self.edge_index.get(edge) else {
                continue;
            };
            self.obs.forwarded();
            self.obs.inc(fo.forwarded);
            self.trace_pkt(now, pkt, TraceStage::Enqueue, Some(link));
            if edges.peek().is_none() {
                self.link_send(ctx, link, slot, held);
                return;
            }
            self.link_send(ctx, link, slot, &mut LinkAction::Deliver(pkt.clone()));
        }
    }

    /// Builds and routes a fresh packet from a local client send.
    pub(super) fn ingress_send(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        flow: FlowKey,
        spec: FlowSpec,
        seq: u64,
        size: usize,
        payload: bytes::Bytes,
    ) {
        let fc = self.flows.ensure(flow, spec, &mut self.obs);
        fc.mark_ingress();
        let fo = fc.obs();
        let flow_sid = fc.stable_id();
        self.obs.inc(fo.sent);
        // Graceful overload shedding: while the watchdog's queue-growth
        // controller is engaged, the lowest-priority flows are shed at the
        // ingress. Counted against the flow's own ledger (sent = delivered
        // + dropped still balances) under the dedicated `drop.shed` class.
        if let Some(w) = &self.watch {
            if w.shed.below > 0 && spec.priority.0 < w.shed.below {
                self.obs.drop(DropClass::Shed);
                self.obs.inc(fo.dropped);
                return;
            }
        }
        // Source-route stamp, cached in the flow context against the
        // topology version (a reroute bumps the version, so stale stamps
        // miss on their own).
        let mask = match spec.routing {
            RoutingService::LinkState => None,
            RoutingService::SourceBased(scheme) => {
                let version = self.conn.version();
                match fc.cached_mask(version) {
                    Some(m) => Some(m),
                    None => {
                        let dst_node = match flow.dst() {
                            Destination::Unicast(a) => Some(a.node),
                            Destination::Multicast(_) | Destination::Anycast(_) => None,
                        };
                        let computed = match (scheme, dst_node) {
                            (crate::service::SourceRoute::ConstrainedFlooding, _) => {
                                self.forwarding.source_route_mask(scheme, self.me)
                            }
                            (_, Some(d)) => self.forwarding.source_route_mask(scheme, d),
                            // Group destinations with path-based schemes fall
                            // back to flooding the stamp over the topology.
                            (_, None) => self.forwarding.source_route_mask(
                                crate::service::SourceRoute::ConstrainedFlooding,
                                self.me,
                            ),
                        };
                        match computed {
                            Some(m) => {
                                fc.store_mask(version, m);
                                Some(m)
                            }
                            None => {
                                self.obs.drop(DropClass::Unroutable);
                                self.obs.inc(fo.dropped);
                                return;
                            }
                        }
                    }
                }
            }
        };
        let resolved_dst = match flow.dst() {
            Destination::Anycast(group) => {
                let members = self.groups.members_of(group);
                match self.forwarding.anycast_resolve(&members) {
                    Some(n) => Some(n),
                    None => {
                        self.obs.drop(DropClass::Unroutable);
                        self.obs.inc(fo.dropped);
                        return;
                    }
                }
            }
            _ => None,
        };
        let auth_tag = if self.config.auth_enabled {
            self.keys.tag(self.me, flow, seq, size)
        } else {
            0
        };
        // The ingress sampling decision: 1-in-`trace_sample` packets carry a
        // trace context for their whole life; everyone downstream just
        // checks header presence. With the watchdog enabled, flows with
        // recent loss/recovery/reroute events sample more densely.
        let sample_rate = match &self.watch {
            Some(w) => w.sampler.rate_for(flow_sid),
            None => self.config.trace_sample,
        };
        let trace = TraceContext::sample(flow_sid, seq, sample_rate);
        // Built where the routing level holds a packet (see `link_send`).
        let mut held = LinkAction::Deliver(DataPacket {
            flow,
            flow_seq: seq,
            origin: self.me,
            spec,
            mask,
            resolved_dst,
            link_seq: 0,
            created_at: ctx.now(),
            size,
            payload,
            ttl: self.config.ttl,
            auth_tag,
            trace,
        });
        let LinkAction::Deliver(pkt) = &mut held else {
            unreachable!("built as a Deliver");
        };
        let stage = TraceStage::Ingress {
            masked: pkt.mask.is_some(),
        };
        self.trace_pkt(ctx.now(), pkt, stage, None);
        // handle_upward's dedup check records the first sighting at the
        // ingress, so copies looping back to the source are suppressed.
        if let Some(fo) = self.handle_upward(ctx, pkt, None, None) {
            self.forward(ctx, &mut held, fo);
        }
    }

    pub(super) fn flood_tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let Behavior::Flood {
            dst,
            rate_pps,
            size,
        } = self.behavior.clone()
        else {
            return;
        };
        self.flood_seq += 1;
        let flow = FlowKey::new(
            crate::addr::OverlayAddr {
                node: self.me,
                port: VirtualPort(0),
            },
            dst,
        );
        let auth_tag = if self.config.auth_enabled {
            // A compromised node can authenticate junk it originates itself.
            self.keys.tag(self.me, flow, self.flood_seq, size)
        } else {
            0
        };
        let mut pkt = DataPacket {
            flow,
            flow_seq: self.flood_seq,
            origin: self.me,
            spec: FlowSpec::best_effort(),
            mask: None,
            resolved_dst: None,
            link_seq: 0,
            created_at: ctx.now(),
            size,
            payload: bytes::Bytes::new(),
            ttl: self.config.ttl,
            auth_tag,
            trace: None,
        };
        self.obs.adversary_injected();
        let mut outs = std::mem::take(&mut self.out_buf);
        self.out_edges_into(&pkt, None, &mut outs);
        if let Some(fo) = self.onward_checks(ctx, &mut pkt, None, &outs, None) {
            self.transmit_out(ctx, &mut LinkAction::Deliver(pkt), &outs, fo);
        }
        self.out_buf = outs;
        let delay = SimDuration::from_secs_f64(1.0 / rate_pps.max(1) as f64);
        ctx.set_timer(delay, TimerKey::Flood.encode());
    }
}
