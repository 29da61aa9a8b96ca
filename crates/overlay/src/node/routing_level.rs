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

    /// Local delivery targets of a packet, if any.
    pub(super) fn local_targets(&mut self, pkt: &DataPacket) -> Vec<VirtualPort> {
        match pkt.flow.dst() {
            Destination::Unicast(addr) => {
                if addr.node == self.me && self.sessions.client_proc(addr.port).is_some() {
                    vec![addr.port]
                } else {
                    Vec::new()
                }
            }
            Destination::Multicast(group) => self.groups.local_members(group),
            Destination::Anycast(group) => {
                if pkt.resolved_dst == Some(self.me) {
                    // Deliver to exactly one local member.
                    self.groups
                        .local_members(group)
                        .into_iter()
                        .take(1)
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Computes the next-hop out-edges for forwarding a packet from this
    /// node into a caller-owned buffer (cleared first). Every consulted
    /// source — the dense next-hop table, the multicast cache, the member
    /// cache — is version-keyed, so a warm call allocates nothing.
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
        match pkt.flow.dst() {
            Destination::Unicast(addr) => {
                if addr.node != self.me {
                    out.extend(self.forwarding.unicast_next_hop(addr.node));
                }
            }
            Destination::Multicast(group) => {
                let gv = self.groups.version();
                if self.member_cache.get(&group).is_none_or(|&(v, _)| v != gv) {
                    let members = self.groups.members_of(group);
                    self.member_cache.insert(group, (gv, members));
                }
                let members = &self.member_cache[&group].1;
                out.extend_from_slice(self.forwarding.multicast_out_edges(pkt.origin, members));
            }
            Destination::Anycast(_) => {
                if let Some(dst) = pkt.resolved_dst {
                    if dst != self.me {
                        out.extend(self.forwarding.unicast_next_hop(dst));
                    }
                }
            }
        }
    }

    /// Core data-plane handling for a packet that surfaced at this node
    /// (from a link protocol identified by `in_link`, or freshly built at
    /// the ingress when both are `None`).
    pub(super) fn handle_upward(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        pkt: DataPacket,
        in_edge: Option<EdgeId>,
        in_link: Option<usize>,
    ) {
        let is_it_reliable = matches!(pkt.spec.link, LinkService::ItReliable);
        // Authentication: drop packets that do not verify (§IV-B).
        if self.config.auth_enabled
            && !self
                .keys
                .verify(pkt.origin, pkt.flow, pkt.flow_seq, pkt.size, pkt.auth_tag)
        {
            self.obs.drop(DropClass::Auth);
            self.trace_pkt(ctx.now(), &pkt, TraceStage::Drop(DropClass::Auth), in_link);
            self.flow_dropped(&pkt);
            return;
        }
        // De-duplication for redundant dissemination: only the first copy is
        // processed; the rest stop here (§II-B). A suppressed IT-Reliable
        // copy is still *consumed* from its sender's perspective, so the
        // credit goes back (no leak under redundant routing).
        if pkt.mask.is_some() && !self.dedup.first_sighting(pkt.flow, pkt.flow_seq) {
            self.obs.drop(DropClass::DedupDuplicate);
            self.trace_pkt(
                ctx.now(),
                &pkt,
                TraceStage::Drop(DropClass::DedupDuplicate),
                in_link,
            );
            self.flow_dropped(&pkt);
            if is_it_reliable {
                if let Some(link) = in_link {
                    self.grant_consumed(ctx, link, pkt.flow);
                }
            }
            return;
        }
        // Local delivery.
        let targets = self.local_targets(&pkt);
        if !targets.is_empty() {
            let now = ctx.now();
            self.obs
                .delivered_local(now.saturating_since(pkt.created_at).as_nanos());
            self.trace_pkt(now, &pkt, TraceStage::Deliver, in_link);
            let fo = self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs).obs();
            self.obs.inc(fo.delivered);
            self.flows.mark_egress(&pkt.flow);
            let mut sa = self.bufs.take_session();
            self.sessions
                .deliver(ctx.now(), pkt.clone(), &targets, &mut sa);
            self.dispatch_session(ctx, sa);
        }
        // The forwarding decision, made once for both the IT-Reliable
        // credit check and the onward transmission (the buffer is node
        // state, reused across packets).
        let mut outs = std::mem::take(&mut self.out_buf);
        self.out_edges_into(&pkt, in_edge, &mut outs);
        if in_link.is_some() && !outs.is_empty() {
            self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs);
            self.flows.mark_transit(&pkt.flow);
        }
        // IT-Reliable credit accounting: a packet that terminates here (no
        // onward hop) is consumed the moment it arrives, so the neighbor
        // that sent this copy gets its credit back immediately.
        if let Some(link) = in_link {
            if is_it_reliable && outs.is_empty() {
                self.grant_consumed(ctx, link, pkt.flow);
            }
        }
        // Onward forwarding.
        self.forward_onward(ctx, pkt, in_edge, &outs);
        self.out_buf = outs;
    }

    pub(super) fn forward_onward(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        mut pkt: DataPacket,
        in_edge: Option<EdgeId>,
        outs: &[EdgeId],
    ) {
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
                    &pkt,
                    TraceStage::Drop(DropClass::Unroutable),
                    None,
                );
                self.flow_dropped(&pkt);
            }
            return;
        }
        if pkt.ttl == 0 {
            self.obs.drop(DropClass::Ttl);
            self.trace_pkt(ctx.now(), &pkt, TraceStage::Drop(DropClass::Ttl), None);
            self.flow_dropped(&pkt);
            return;
        }
        pkt.ttl -= 1;
        // Compromised behaviour applies to *transit* packets only: a node
        // always serves its own clients' sends faithfully (an attacker
        // controlling the client side is modelled as a flooding client).
        if in_edge.is_some() {
            match self.behavior.forward_verdict(&pkt) {
                Verdict::Forward => {}
                Verdict::Drop => {
                    self.obs.drop(DropClass::Adversary);
                    self.trace_pkt(
                        ctx.now(),
                        &pkt,
                        TraceStage::Drop(DropClass::Adversary),
                        None,
                    );
                    self.flow_dropped(&pkt);
                    // The honest receipt accounting: the packet did not
                    // progress, and the watchdog upstream will see it.
                    self.watch_note_blackholed(in_edge);
                    return;
                }
                Verdict::Delay(extra) => {
                    let token = self.next_delay_token;
                    self.next_delay_token = self.next_delay_token.wrapping_add(1);
                    self.delayed.insert(token, (pkt, in_edge));
                    ctx.set_timer(extra, TimerKey::DelayedForward { token }.encode());
                    return;
                }
                Verdict::Duplicate(copies) => {
                    for _ in 1..copies {
                        self.transmit_out(ctx, pkt.clone(), outs);
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
                            self.transmit_out(ctx, pkt, &[e]);
                        }
                        None => {
                            self.obs.drop(DropClass::Adversary);
                            self.flow_dropped(&pkt);
                        }
                    }
                    return;
                }
            }
        }
        self.transmit_out(ctx, pkt, outs);
    }

    pub(super) fn transmit_out(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        pkt: DataPacket,
        outs: &[EdgeId],
    ) {
        let slot = pkt.spec.link.slot();
        let now = ctx.now();
        let fo = self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs).obs();
        // The last out-edge takes the packet itself; only a fan-out copies.
        let mut edges = outs.iter().peekable();
        while let Some(edge) = edges.next() {
            let Some(&link) = self.edge_index.get(edge) else {
                continue;
            };
            self.obs.forwarded();
            self.obs.inc(fo.forwarded);
            self.trace_pkt(now, &pkt, TraceStage::Enqueue, Some(link));
            if edges.peek().is_some() {
                let copy = pkt.clone();
                self.run_link_proto(ctx, link, slot, move |p, out| {
                    p.on_send(now, copy, out);
                });
            } else {
                self.run_link_proto(ctx, link, slot, move |p, out| {
                    p.on_send(now, pkt, out);
                });
                break;
            }
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
        let fo = fc.obs();
        let flow_sid = fc.stable_id();
        self.flows.mark_ingress(&flow);
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
                match self.flows.cached_mask(&flow, version) {
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
                                self.flows.store_mask(&flow, version, m);
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
        let pkt = DataPacket {
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
        };
        self.trace_pkt(
            ctx.now(),
            &pkt,
            TraceStage::Ingress {
                masked: pkt.mask.is_some(),
            },
            None,
        );
        // handle_upward's dedup check records the first sighting at the
        // ingress, so copies looping back to the source are suppressed.
        self.handle_upward(ctx, pkt, None, None);
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
        let pkt = DataPacket {
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
        self.forward_onward(ctx, pkt, None, &outs);
        self.out_buf = outs;
        let delay = SimDuration::from_secs_f64(1.0 / rate_pps.max(1) as f64);
        ctx.set_timer(delay, TimerKey::Flood.encode());
    }
}
