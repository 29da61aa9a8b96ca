//! The daemon's action and timer plumbing.
//!
//! Every level of the node is a pure state machine that *emits* typed
//! actions ([`LinkAction`], [`SessionAction`], [`ConnAction`],
//! [`GroupAction`]) instead of touching the simulator directly. Each batch
//! is drained here by the loop for its own type, depth-first: whatever an
//! action triggers — the credit a `Consumed` grants on the upstream link,
//! the session events behind a delivery — completes before the next action
//! of the same batch runs. What is constant for a batch (the emitting
//! `(link, slot)`, the provider a hello reply is pinned to) is an argument
//! of the loop, not a field of every action, so a packet is moved out of
//! its batch exactly once.
//!
//! Buffers are pooled in [`ActionBufs`] so steady-state dispatch allocates
//! nothing, and every daemon timer token is the bit-packed encoding of a
//! typed [`TimerKey`] (see [`super::timer`]).

use son_netsim::link::PipeId;
use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::Ctx;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::trace::TraceStage;
use son_obs::watch::WatchKind;

use crate::addr::Destination;
use crate::adversary::Behavior;
use crate::linkproto::{LinkAction, LinkEvent, LinkProto};
use crate::packet::{Adverts, Control, LinkCtl, SessionEvent, Wire};
use crate::service::{slot_label, SERVICE_SLOTS};
use crate::session::SessionAction;
use crate::state::connectivity::ConnAction;
use crate::state::groups::GroupAction;
use crate::state::membership::{self, MemberAction, JOIN_RETRY};
use crate::watch;
use crate::wire::{self, FrameKind, WireError};

use son_topo::NodeId;

use super::{make_proto, OverlayNode, TimerKey, CLIENT_IPC_DELAY};

/// Pooled action buffers: one free list per action type, so the dispatch
/// loops and the emitting state machines reuse vectors instead of
/// allocating per event.
#[derive(Debug, Default)]
pub(super) struct ActionBufs {
    link: Vec<Vec<LinkAction>>,
    session: Vec<Vec<SessionAction>>,
    conn: Vec<Vec<ConnAction>>,
    group: Vec<Vec<GroupAction>>,
}

impl ActionBufs {
    fn take_link(&mut self) -> Vec<LinkAction> {
        self.link.pop().unwrap_or_default()
    }
    pub(super) fn take_session(&mut self) -> Vec<SessionAction> {
        self.session.pop().unwrap_or_default()
    }
    pub(super) fn take_conn(&mut self) -> Vec<ConnAction> {
        self.conn.pop().unwrap_or_default()
    }
    pub(super) fn take_group(&mut self) -> Vec<GroupAction> {
        self.group.pop().unwrap_or_default()
    }
}

impl OverlayNode {
    /// Feeds `input` to one link-protocol instance through `feed` (one of
    /// the [`LinkProto`] entry points), building the instance on its slot's
    /// first use, and applies what it emitted.
    pub(super) fn run_link_proto<T>(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        slot: usize,
        input: T,
        feed: impl FnOnce(&mut dyn LinkProto, SimTime, T, &mut Vec<LinkAction>),
    ) {
        let token = self.obs.perf().enter("link.proto");
        let mut la = self.bufs.take_link();
        let port = &mut self.links[link];
        let rto = port.rto;
        let proto = port.protos[slot].get_or_insert_with(|| make_proto(slot, rto, &self.config));
        feed(proto.as_mut(), ctx.now(), input, &mut la);
        self.dispatch_link(ctx, link, slot, la);
        self.obs.perf().exit(token);
    }

    /// Applies a batch of session actions.
    pub(super) fn dispatch_session(&mut self, ctx: &mut Ctx<'_, Wire>, mut sa: Vec<SessionAction>) {
        for action in sa.drain(..) {
            match action {
                SessionAction::ToClient { port, event } => {
                    if let Some(proc) = self.sessions.client_proc(port) {
                        ctx.send_direct(proc, CLIENT_IPC_DELAY, Wire::ToClient(event));
                    }
                }
                SessionAction::Timer { delay, token } => {
                    ctx.set_timer(delay, TimerKey::Session { token }.encode());
                }
            }
        }
        self.bufs.session.push(sa);
    }

    /// Applies a batch of connectivity actions; `reply_provider` pins
    /// provider-probe replies to the provider path the probe arrived on
    /// (`None` = the active provider).
    pub(super) fn dispatch_conn(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        mut ca: Vec<ConnAction>,
        reply_provider: Option<usize>,
    ) {
        for action in ca.drain(..) {
            match action {
                ConnAction::Send { link, msg } => {
                    self.send_control(ctx, link, reply_provider, msg);
                }
                ConnAction::Flood { except, msg } => self.flood_control(ctx, except, msg),
                ConnAction::SwitchProvider { link, isp_index } => {
                    let count = self.links[link].out_pipes.len();
                    self.links[link].active_provider = isp_index % count.max(1);
                    self.obs.named("provider_switches");
                }
                ConnAction::TopologyChanged => {
                    // The monitor only emits this on a real change, so the
                    // version moved: install the shared snapshot (no graph
                    // clone). Per-flow source-route stamps are keyed by the
                    // version inside the FlowTable, so they go stale on
                    // their own — no sweep needed. The span covers the lazy
                    // snapshot (re)build and the swap; the Dijkstra runs at
                    // the version's first lookup, as `route.spt`.
                    let token = self.obs.perf().enter("route.rebuild");
                    let snap = self.conn.snapshot();
                    self.forwarding.install(snap, self.conn.version());
                    self.obs.perf().exit(token);
                    self.obs.named("reroutes");
                    if self.config.trace_sample > 0 {
                        self.obs.trace_marker(ctx.now(), TraceStage::Reroute, None);
                    }
                }
                ConnAction::FlapDamped { origin, changes } => {
                    // The damping evidence (the origin's LSA churn) and the
                    // remediation are recorded as a detection/remediation
                    // pair, so the offline audit can always explain the
                    // action by a preceding observation.
                    self.obs.watch_event(
                        ctx.now(),
                        WatchKind::RerouteFlap { reroutes: changes },
                        None,
                    );
                    self.obs.watch_event(
                        ctx.now(),
                        WatchKind::FlapDamped {
                            origin: origin.0 as u32,
                        },
                        None,
                    );
                }
                ConnAction::FlapReleased { origin } => {
                    self.obs.watch_event(
                        ctx.now(),
                        WatchKind::FlapReleased {
                            origin: origin.0 as u32,
                        },
                        None,
                    );
                }
            }
        }
        self.bufs.conn.push(ca);
    }

    /// Applies a batch of group actions.
    pub(super) fn dispatch_group(&mut self, ctx: &mut Ctx<'_, Wire>, mut ga: Vec<GroupAction>) {
        for GroupAction::Flood { except, update } in ga.drain(..) {
            self.flood_control(ctx, except, Control::GroupUpdate(update));
        }
        self.bufs.group.push(ga);
    }

    /// Sends a control message on every link except `except`, in link
    /// order. Every neighbor gets its own decoding of the one message.
    fn flood_control(&mut self, ctx: &mut Ctx<'_, Wire>, except: Option<usize>, msg: Control) {
        let targets = (0..self.links.len()).filter(|&i| Some(i) != except);
        self.count_control(&msg, targets.clone().count() as u64);
        let wire = Wire::Control(msg);
        for i in targets {
            self.send_on_link(ctx, i, None, &wire);
        }
    }

    /// Sends one control message on `link` (see
    /// [`OverlayNode::send_on_link`] for `provider`).
    pub(super) fn send_control(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        provider: Option<usize>,
        msg: Control,
    ) {
        self.count_control(&msg, 1);
        self.send_on_link(ctx, link, provider, &Wire::Control(msg));
    }

    fn count_control(&mut self, msg: &Control, frames: u64) {
        let sent = &mut self.ctl_frames;
        *match msg {
            Control::Lsa(_) => &mut sent.lsa,
            Control::Hello { .. } => &mut sent.hello,
            Control::HelloAck { .. } => &mut sent.hello_ack,
            _ => &mut sent.other,
        } += frames;
    }

    /// Applies the batch the `(link, slot)` protocol instance emitted.
    /// `pending_recover`/`pending_retransmit` are scoped to the batch:
    /// nested batches start fresh and the outer values are restored
    /// afterwards.
    fn dispatch_link(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        slot: usize,
        mut la: Vec<LinkAction>,
    ) {
        let saved_recover = self.pending_recover.take();
        let saved_retransmit = std::mem::replace(&mut self.pending_retransmit, false);
        for action in la.drain(..) {
            self.apply_link(ctx, link, slot, action);
        }
        self.pending_recover = saved_recover;
        self.pending_retransmit = saved_retransmit;
        self.bufs.link.push(la);
    }

    /// Applies one action of a [`OverlayNode::dispatch_link`] batch.
    #[inline(always)]
    fn apply_link(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        slot: usize,
        action: LinkAction,
    ) {
        match action {
            LinkAction::Transmit(pkt) => {
                if let Some(tctx) = pkt.trace {
                    let stage = if std::mem::take(&mut self.pending_retransmit) {
                        TraceStage::Retransmit
                    } else {
                        TraceStage::Transmit
                    };
                    self.obs.trace(ctx.now(), tctx, &pkt, stage, Some(link));
                }
                self.send_on_link(ctx, link, None, &Wire::Data(pkt));
            }
            LinkAction::TransmitCtl(ctl) => {
                // FEC reports repair transmissions as retransmits but ships
                // them as control; do not let the flag leak onto a later
                // unrelated data transmit.
                self.pending_retransmit = false;
                let wire = Wire::Ctl {
                    slot: slot as u8,
                    ctl,
                };
                self.send_on_link(ctx, link, None, &wire);
            }
            LinkAction::Deliver(pkt) => {
                let recovered_after = self.pending_recover.take();
                self.handle_upward(ctx, pkt, Some(link), recovered_after);
            }
            LinkAction::Observe(event) => {
                match event {
                    LinkEvent::Recovered { after } => self.pending_recover = Some(after),
                    LinkEvent::Retransmit => self.pending_retransmit = true,
                    LinkEvent::LossDetected => {
                        // A node-scope marker: the lost packet has no
                        // identity yet. Only worth exporting on tracing runs.
                        if self.config.trace_sample > 0 {
                            self.obs
                                .trace_marker(ctx.now(), TraceStage::LossDetected, Some(link));
                        }
                    }
                    LinkEvent::Drop(_) => {}
                }
                self.obs.link_event(slot_label(slot), event);
            }
            LinkAction::Timer { delay, token } => {
                let key = TimerKey::Link {
                    link: link as u16,
                    slot: slot as u8,
                    token,
                };
                ctx.set_timer(delay, key.encode());
            }
            LinkAction::PauseFlow(flow) => {
                // The pause bit lives in the shared FlowTable; the owning
                // client (present only at the ingress) is told exactly once
                // per pause edge.
                if self.flows.pause(&flow) {
                    if let Some((port, local_flow)) = self.sessions.local_binding(&flow) {
                        if let Some(proc) = self.sessions.client_proc(port) {
                            ctx.send_direct(
                                proc,
                                CLIENT_IPC_DELAY,
                                Wire::ToClient(SessionEvent::FlowPaused { local_flow }),
                            );
                        }
                    }
                }
            }
            LinkAction::ResumeFlow(flow) => {
                if self.flows.resume(&flow) {
                    if let Some((port, local_flow)) = self.sessions.local_binding(&flow) {
                        if let Some(proc) = self.sessions.client_proc(port) {
                            ctx.send_direct(
                                proc,
                                CLIENT_IPC_DELAY,
                                Wire::ToClient(SessionEvent::FlowResumed { local_flow }),
                            );
                        }
                    }
                }
            }
            LinkAction::Consumed(flow) => {
                // Grant a credit on the flow's upstream link, if any
                // (none at the ingress node).
                if let Some(up) = self.flows.upstream(&flow) {
                    if up != link {
                        self.run_link_proto(ctx, up, slot, flow, <dyn LinkProto>::on_consumed);
                    }
                }
            }
        }
    }
}

/// A frame the simulator carried failed to decode: only a codec fault
/// does that, so it is not a condition to run on with.
fn undecodable(e: WireError) -> ! {
    panic!("link frames round-trip the wire codec losslessly: {e}")
}

impl Process<Wire> for OverlayNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let restarted = std::mem::replace(&mut self.started, true);
        // Kick off the control plane.
        ctx.set_timer(SimDuration::ZERO, TimerKey::ConnTick.encode());
        if restarted && self.membership.is_some() {
            // A second start is a crash-recover: clear any pending
            // withdrawal and come back with a higher incarnation so stale
            // `Down`/`Left` records about us are overridden fleet-wide.
            let mut ca = self.bufs.take_conn();
            self.conn.set_withdrawn(false, &mut ca);
            self.dispatch_conn(ctx, ca, None);
            let rejoin = self.membership.as_mut().expect("checked above").rejoin();
            self.apply_member_actions(ctx, vec![rejoin]);
        }
        if self.joined {
            let mut ca = self.bufs.take_conn();
            self.conn.originate(None, &mut ca);
            self.dispatch_conn(ctx, ca, None);
            let mut ga = self.bufs.take_group();
            self.groups.announce(&mut ga);
            self.dispatch_group(ctx, ga);
        } else if let Some(link) = self.join_seed {
            // Bootstrap: ask the seed peer for the membership view before
            // flooding anything of our own; the LSA originate (and the
            // group announce, if there is anything to announce) happen when
            // the JoinAck arrives.
            let mem = self.membership.as_ref().expect("join requires membership");
            let msg = mem.join_request();
            self.send_control(ctx, link, None, msg);
            ctx.set_timer(JOIN_RETRY, TimerKey::JoinRetry.encode());
        }
        if matches!(self.behavior, Behavior::Flood { .. }) {
            ctx.set_timer(SimDuration::from_millis(1), TimerKey::Flood.encode());
        }
        if self.watch.is_some() {
            ctx.set_timer(watch::EPOCH, TimerKey::WatchTick.encode());
        }
        if self.membership.is_some() {
            ctx.set_timer(membership::EPOCH, TimerKey::MembershipTick.encode());
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        from: ProcessId,
        pipe: Option<PipeId>,
        msg: Wire,
    ) {
        let token = self.obs.perf().enter("node.on_message");
        self.on_message_inner(ctx, from, pipe, msg);
        self.obs.perf().exit(token);
    }

    /// Decodes a frame by its kind straight into what handles it — a data
    /// frame into the packet its link protocol takes — and does what the
    /// [`Process::on_message`] arm for that kind does, without ever
    /// building the 280-byte `Wire`.
    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        _from: ProcessId,
        pipe: PipeId,
        frame: &[u8],
        hint: &Option<Adverts>,
    ) {
        let token = self.obs.perf().enter("node.on_message");
        if let Some(&(link, provider)) = self.in_pipe_index.get(&pipe) {
            match wire::frame_kind(frame) {
                Some(FrameKind::Data) => {
                    let pkt = match wire::decode_data(frame) {
                        Ok(pkt) => pkt,
                        Err(e) => undecodable(e),
                    };
                    let slot = pkt.spec.link.slot();
                    self.run_link_proto(ctx, link, slot, pkt, <dyn LinkProto>::on_data);
                }
                Some(FrameKind::Ctl) => match wire::decode_ctl(frame) {
                    Ok((slot, ctl)) => self.on_link_ctl(ctx, link, slot, ctl),
                    Err(e) => undecodable(e),
                },
                Some(FrameKind::Control) => match wire::decode_control(frame, hint.as_ref()) {
                    Ok(control) => self.on_control(ctx, link, provider, control),
                    Err(e) => undecodable(e),
                },
                None => undecodable(wire::decode(frame).expect_err("no kind, no frame")),
            }
        }
        self.obs.perf().exit(token);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, token: u64) {
        let span = self.obs.perf().enter("node.on_timer");
        self.on_timer_inner(ctx, token);
        self.obs.perf().exit(span);
    }
}

impl OverlayNode {
    /// The message-handling body, split out so the [`Process`] entry point
    /// can wrap it in a perf span despite the early-return guards.
    fn on_message_inner(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        from: ProcessId,
        pipe: Option<PipeId>,
        msg: Wire,
    ) {
        match msg {
            Wire::Data(pkt) => {
                let Some(&(link, _)) = pipe.as_ref().and_then(|p| self.in_pipe_index.get(p)) else {
                    return;
                };
                let slot = pkt.spec.link.slot();
                self.run_link_proto(ctx, link, slot, pkt, <dyn LinkProto>::on_data);
            }
            Wire::Ctl { slot, ctl } => {
                let Some(&(link, _)) = pipe.as_ref().and_then(|p| self.in_pipe_index.get(p)) else {
                    return;
                };
                self.on_link_ctl(ctx, link, slot, ctl);
            }
            Wire::Control(control) => {
                let Some(&(link, provider)) = pipe.as_ref().and_then(|p| self.in_pipe_index.get(p))
                else {
                    return;
                };
                self.on_control(ctx, link, provider, control);
            }
            Wire::FromClient(op) => self.on_client_op(ctx, from, op),
            Wire::ToClient(_) | Wire::Raw { .. } => {
                // Daemons never receive session events; raw datagrams go to
                // interceptors, not daemons.
            }
        }
    }

    /// A link-protocol control frame that arrived on `link` for `slot`.
    fn on_link_ctl(&mut self, ctx: &mut Ctx<'_, Wire>, link: usize, slot: u8, ctl: LinkCtl) {
        let slot = (slot as usize).min(SERVICE_SLOTS - 1);
        self.run_link_proto(ctx, link, slot, ctl, <dyn LinkProto>::on_ctl);
    }

    /// A control frame that arrived on `link` over `provider`'s path.
    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        provider: usize,
        control: Control,
    ) {
        match control {
            Control::Hello { seq, sent_at } => {
                let mut ca = self.bufs.take_conn();
                self.conn.on_hello(link, seq, sent_at, &mut ca);
                // Reply on the provider the probe used, so each
                // provider path is probed independently.
                self.dispatch_conn(ctx, ca, Some(provider));
            }
            Control::HelloAck { seq, echo_sent_at } => {
                let mut ca = self.bufs.take_conn();
                self.conn
                    .on_hello_ack(ctx.now(), link, seq, echo_sent_at, &mut ca);
                self.dispatch_conn(ctx, ca, None);
            }
            Control::Lsa(lsa) => {
                let mut ca = self.bufs.take_conn();
                self.conn.on_lsa(ctx.now(), lsa, Some(link), &mut ca);
                self.dispatch_conn(ctx, ca, None);
            }
            Control::GroupUpdate(update) => {
                let mut ga = self.bufs.take_group();
                if !self.groups.on_update(update, Some(link), &mut ga) {
                    self.obs.named("forged_origin");
                }
                self.dispatch_group(ctx, ga);
            }
            Control::WatchReceipt {
                received,
                progressed,
            } => {
                self.on_watch_receipt(link, received, progressed);
            }
            Control::Join { node, incarnation } => {
                if let Some(mem) = self.membership.as_mut() {
                    let mut out = Vec::new();
                    mem.on_join(ctx.now(), node, incarnation, link, &mut out);
                    self.apply_member_actions(ctx, out);
                }
            }
            Control::JoinAck { members } => {
                if let Some(mem) = self.membership.as_mut() {
                    let mut out = Vec::new();
                    mem.on_join_ack(ctx.now(), &members, &mut out);
                    self.apply_member_actions(ctx, out);
                    self.complete_join(ctx);
                }
            }
            Control::Leave { node, incarnation } => {
                if let Some(mem) = self.membership.as_mut() {
                    let mut out = Vec::new();
                    mem.on_leave(ctx.now(), node, incarnation, Some(link), &mut out);
                    self.apply_member_actions(ctx, out);
                }
            }
            Control::MembershipUpdate {
                origin,
                seq,
                members,
            } => {
                if let Some(mem) = self.membership.as_mut() {
                    let (now, mut out) = (ctx.now(), Vec::new());
                    if !mem.on_update(now, origin, seq, &members, Some(link), &mut out) {
                        self.obs.named("forged_origin");
                    }
                    self.apply_member_actions(ctx, out);
                }
            }
        }
    }

    /// The timer-handling body; same split as
    /// [`OverlayNode::on_message_inner`].
    fn on_timer_inner(&mut self, ctx: &mut Ctx<'_, Wire>, token: u64) {
        match TimerKey::decode(token) {
            Some(TimerKey::ConnTick) => {
                let mut ca = self.bufs.take_conn();
                self.conn.on_tick(ctx.now(), &mut ca);
                self.dispatch_conn(ctx, ca, None);
                ctx.set_timer(
                    self.config.connectivity.hello_interval,
                    TimerKey::ConnTick.encode(),
                );
            }
            Some(TimerKey::Link { link, slot, token }) => {
                let (link, slot) = (link as usize, slot as usize);
                if link < self.links.len() && slot < SERVICE_SLOTS {
                    self.run_link_proto(ctx, link, slot, token, <dyn LinkProto>::on_timer);
                }
            }
            Some(TimerKey::Session { token }) => {
                if let Some(flow) = self.sessions.timer_flow(token) {
                    let targets = match flow.dst() {
                        Destination::Unicast(a) if a.node == self.me => vec![a.port],
                        Destination::Multicast(g) => self.groups.local_members(g).collect(),
                        Destination::Anycast(g) => self.groups.local_members(g).take(1).collect(),
                        _ => Vec::new(),
                    };
                    let mut sa = self.bufs.take_session();
                    self.sessions.on_timer(ctx.now(), token, &targets, &mut sa);
                    self.dispatch_session(ctx, sa);
                }
            }
            Some(TimerKey::Flood) => self.flood_tick(ctx),
            Some(TimerKey::WatchTick) => {
                let span = self.obs.perf().enter("watch.epoch");
                self.watch_tick(ctx);
                self.obs.perf().exit(span);
                if self.watch.is_some() {
                    ctx.set_timer(watch::EPOCH, TimerKey::WatchTick.encode());
                }
            }
            Some(TimerKey::DelayedForward { token }) => {
                if let Some((pkt, in_edge)) = self.delayed.remove(&token) {
                    // Behaviour already charged its delay; forward now.
                    let mut outs = std::mem::take(&mut self.out_buf);
                    self.out_edges_into(&pkt, in_edge, &mut outs);
                    let fo = self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs).obs();
                    self.transmit_out(ctx, pkt, &outs, fo);
                    self.out_buf = outs;
                }
            }
            Some(TimerKey::MembershipTick) => {
                let span = self.obs.perf().enter("membership.epoch");
                self.membership_tick(ctx);
                self.obs.perf().exit(span);
                if self.membership.is_some() {
                    ctx.set_timer(membership::EPOCH, TimerKey::MembershipTick.encode());
                }
            }
            Some(TimerKey::GracefulLeave) => self.graceful_leave(ctx),
            Some(TimerKey::JoinRetry) => {
                if let (false, Some(link)) = (self.joined, self.join_seed) {
                    let mem = self.membership.as_ref().expect("join requires membership");
                    let msg = mem.join_request();
                    self.send_control(ctx, link, None, msg);
                    ctx.set_timer(JOIN_RETRY, TimerKey::JoinRetry.encode());
                }
            }
            None => {}
        }
    }

    /// One membership-maintenance epoch: re-derive liveness from the
    /// forwarding view's reachability and dispatch the resulting
    /// announcements and evictions. Skipped while the join handshake is
    /// still pending (a bootstrapping node has no view to judge with).
    fn membership_tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if !self.joined {
            return;
        }
        let Some(mem) = self.membership.as_mut() else {
            return;
        };
        let mut out = Vec::new();
        let forwarding = &self.forwarding;
        forwarding.warm(self.obs.perf());
        mem.on_epoch(ctx.now(), &mut |n| forwarding.reaches(n), &mut out);
        self.apply_member_actions(ctx, out);
    }

    /// Graceful departure: flood the leave announcement and withdraw our
    /// own LSA (all links advertised down) so the fleet reroutes before we
    /// go dark. Triggered by a harness poke or operator signal.
    fn graceful_leave(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let Some(msg) = self
            .membership
            .as_ref()
            .map(crate::state::membership::MembershipTable::leave_announcement)
        else {
            return;
        };
        self.flood_control(ctx, None, msg);
        let mut ca = self.bufs.take_conn();
        self.conn.set_withdrawn(true, &mut ca);
        self.dispatch_conn(ctx, ca, None);
        self.obs.named("graceful_leaves");
    }

    /// Completes the bootstrap join handshake: the seed's view has been
    /// adopted, so flood our own LSA (and group announcement, if we have or
    /// ever had a member) and become a full member.
    fn complete_join(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.joined {
            return;
        }
        self.joined = true;
        let mut ca = self.bufs.take_conn();
        self.conn.originate(None, &mut ca);
        self.dispatch_conn(ctx, ca, None);
        let mut ga = self.bufs.take_group();
        self.groups.announce(&mut ga);
        self.dispatch_group(ctx, ga);
        self.obs.named("joins_completed");
    }

    /// Applies a batch of membership actions (sends, floods, evictions).
    fn apply_member_actions(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<MemberAction>) {
        for action in actions {
            match action {
                MemberAction::Send { link, msg } => {
                    if link < self.links.len() {
                        self.send_control(ctx, link, None, msg);
                    }
                }
                MemberAction::Flood { except, msg } => self.flood_control(ctx, except, msg),
                MemberAction::Evict(node) => self.evict_member_state(ctx, node),
            }
        }
    }

    /// Purges a departed member's shared state: its LSDB entry (with a
    /// tombstone against stale re-floods), its remote group membership, the
    /// cached member sets, and every dedup window keyed by an address at
    /// the departed node.
    fn evict_member_state(&mut self, ctx: &mut Ctx<'_, Wire>, node: NodeId) {
        let mut ca = self.bufs.take_conn();
        self.conn.evict_origin(node, ctx.now(), &mut ca);
        self.dispatch_conn(ctx, ca, None);
        if self.groups.forget(node) {
            self.member_cache.clear();
        }
        self.dedup.forget_endpoint(node);
        self.obs.named("member_evictions");
    }
}
