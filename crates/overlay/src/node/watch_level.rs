//! The watchdog tick: feeding `son-watch` from the daemon's observability
//! state each evaluation epoch and applying its decisions.
//!
//! Driven from the node timer level ([`TimerKey::WatchTick`]): the epoch
//! sweep drains the trace ring (never reprocessing an event — the
//! [`TraceRing::drain_since`](son_obs::trace::TraceRing::drain_since)
//! cursor contract), diffs the registry counters, evaluates neighbor
//! forwarding receipts, samples link-protocol queue depths, advances the
//! per-link NM-Strikes state machines, and emits one forwarding receipt per
//! link so the upstream neighbor can judge *this* node next epoch.

use son_netsim::sim::Ctx;
use son_obs::trace::TraceStage;
use son_obs::watch::WatchKind;

use crate::packet::{Control, Wire};
use crate::watch::{
    LinkDecision, ShedDecision, BLACKHOLE_EPOCHS, BLACKHOLE_MIN_PACKETS, FLAP_REROUTES,
    STORM_RETRANSMITS, STRIKE_THRESHOLD,
};

use super::OverlayNode;

impl OverlayNode {
    /// One watchdog evaluation epoch. No-op when the watchdog is disabled.
    pub(super) fn watch_tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let Some(mut w) = self.watch.take() else {
            return;
        };
        let now = ctx.now();
        let now_ns = now.as_nanos();
        w.epoch_index += 1;

        // Signal 1: drained trace events — per-hop recovery latency vs the
        // link's budget, plus heat for the adaptive sampler.
        let mut budget_hits: Vec<(usize, u64)> = Vec::new();
        let mut anomalous_flows: Vec<u64> = Vec::new();
        for ev in self.obs.traces_mut().drain_since(now_ns) {
            let flow_event = !ev.is_marker();
            match ev.stage {
                TraceStage::Recovered { after_ns } => {
                    if flow_event {
                        anomalous_flows.push(ev.packet.flow);
                    }
                    if let Some(l) = ev.link {
                        let l = l as usize;
                        if l < w.links.len() && after_ns > w.links[l].budget_ns {
                            budget_hits.push((l, after_ns));
                        }
                    }
                }
                TraceStage::Retransmit
                | TraceStage::LossDetected
                | TraceStage::Reroute
                | TraceStage::Drop(_)
                    if flow_event =>
                {
                    anomalous_flows.push(ev.packet.flow);
                }
                _ => {}
            }
        }
        for flow in anomalous_flows {
            w.sampler.note_anomaly(flow);
        }
        for (l, after_ns) in budget_hits {
            let budget_ns = w.links[l].budget_ns;
            self.obs.watch_event(
                now,
                WatchKind::RecoveryBudgetExceeded {
                    after_ns,
                    budget_ns,
                },
                Some(l),
            );
            w.links[l].strike(1);
        }

        // Signal 2: registry counter deltas — retransmit storms and reroute
        // flaps. The flap remediation (LSA damping) already lives in the
        // connectivity monitor; this records the detection for the audit.
        // The first epoch only seeds the baselines: initial LSA flooding
        // recomputes routes many times in the first half-second, which is
        // convergence, not a flap.
        let warmed_up = w.epoch_index > 1;
        let retransmits = self.obs.registry().counter_total("link.retransmit");
        let retrans_delta = retransmits - w.prev_retransmits;
        w.prev_retransmits = retransmits;
        if warmed_up && retrans_delta >= STORM_RETRANSMITS {
            self.obs.watch_event(
                now,
                WatchKind::RetransmitStorm {
                    retransmits: retrans_delta,
                },
                None,
            );
        }
        let reroutes = self.obs.registry().counter_total("reroutes");
        let reroute_delta = reroutes - w.prev_reroutes;
        w.prev_reroutes = reroutes;
        if warmed_up && reroute_delta >= FLAP_REROUTES {
            self.obs.watch_event(
                now,
                WatchKind::RerouteFlap {
                    reroutes: reroute_delta,
                },
                None,
            );
        }

        // Signal 3: neighbor forwarding receipts — the silent-blackhole
        // signature (hellos answered, data received, nothing progressing).
        for l in 0..w.links.len() {
            let receipt = w.links[l].last_receipt.take();
            let suspicious = matches!(
                receipt,
                Some((received, progressed))
                    if received >= BLACKHOLE_MIN_PACKETS
                        && progressed * 10 < received
            ) && self.conn.link_up(l);
            if suspicious {
                w.links[l].blackhole_epochs += 1;
                if w.links[l].blackhole_epochs >= BLACKHOLE_EPOCHS {
                    w.links[l].blackhole_epochs = 0;
                    let (received, progressed) = receipt.unwrap_or((0, 0));
                    self.obs.watch_event(
                        now,
                        WatchKind::SilentBlackhole {
                            received,
                            progressed,
                        },
                        Some(l),
                    );
                    // A definitive signature: worth a full offense at once.
                    w.links[l].strike(STRIKE_THRESHOLD);
                }
            } else {
                w.links[l].blackhole_epochs = 0;
            }
        }

        // Signal 4: link-protocol queue depths — sustained growth engages
        // graceful shedding of the lowest-priority flows at the ingress.
        let depth: usize = self
            .links
            .iter()
            .flat_map(super::LinkPort::built)
            .map(|p| p.queue_depth())
            .sum();
        let mut shed_out = Vec::new();
        w.shed.on_epoch(depth, &mut shed_out);
        for d in shed_out {
            let kind = match d {
                ShedDecision::Growth { depth } => WatchKind::QueueGrowth { depth },
                ShedDecision::Engage { below } => WatchKind::ShedEngaged {
                    below_priority: below,
                },
                ShedDecision::Release => WatchKind::ShedReleased,
            };
            self.obs.watch_event(now, kind, None);
        }

        // Advance the per-link suspension state machines and apply their
        // decisions through the connectivity monitor.
        let mut decisions = Vec::new();
        for l in 0..w.links.len() {
            let (_, loss) = self.conn.link_quality(l);
            let probe_healthy = self.conn.link_up(l) && loss < 0.25;
            decisions.clear();
            w.links[l].on_epoch(probe_healthy, &mut decisions);
            for &decision in &decisions {
                let link = l;
                match decision {
                    LinkDecision::Suspend { strikes } => {
                        self.obs
                            .watch_event(now, WatchKind::LinkSuspended { strikes }, Some(link));
                        let mut ca = self.bufs.take_conn();
                        self.conn.suspend_link(link, &mut ca);
                        self.dispatch_conn(ctx, ca, None);
                    }
                    LinkDecision::Probe { backoff_ms } => {
                        self.obs
                            .watch_event(now, WatchKind::LinkProbed { backoff_ms }, Some(link));
                    }
                    LinkDecision::Readmit => {
                        self.obs
                            .watch_event(now, WatchKind::LinkReadmitted, Some(link));
                        let mut ca = self.bufs.take_conn();
                        self.conn.release_link(link, &mut ca);
                        self.dispatch_conn(ctx, ca, None);
                    }
                }
            }
        }

        w.sampler.on_epoch();

        // Emit this epoch's forwarding receipts so upstream neighbors can
        // judge this node. A compromised daemon still reports honestly —
        // only its forwarding verdicts are adversarial — so a blackhole
        // confesses through its own receipt.
        for l in 0..self.links.len().min(w.links.len()) {
            let received = std::mem::take(&mut w.links[l].recv_window);
            let progressed = std::mem::take(&mut w.links[l].progressed_window);
            if received > 0 {
                let receipt = Control::WatchReceipt {
                    received,
                    progressed,
                };
                self.send_control(ctx, l, None, receipt);
            }
        }

        self.watch = Some(w);
    }

    /// A neighbor's per-epoch forwarding receipt arrived on `link`; stored
    /// for evaluation at this node's next watchdog epoch.
    pub(super) fn on_watch_receipt(&mut self, link: usize, received: u64, progressed: u64) {
        if let Some(w) = &mut self.watch {
            if let Some(lw) = w.links.get_mut(link) {
                lw.last_receipt = Some((received, progressed));
            }
        }
    }

    /// Counts a data packet surfacing from `link`'s protocols (it will
    /// either progress or be charged back by
    /// [`OverlayNode::watch_note_blackholed`]).
    #[inline]
    pub(super) fn watch_note_received(&mut self, link: usize) {
        if let Some(w) = &mut self.watch {
            if let Some(lw) = w.links.get_mut(link) {
                lw.recv_window += 1;
                lw.progressed_window += 1;
            }
        }
    }

    /// Charges back the progress credit of a transit packet the adversary
    /// check swallowed (the blackhole path skips real forwarding, and the
    /// honest receipt accounting must say so).
    #[inline]
    pub(super) fn watch_note_blackholed(&mut self, in_edge: Option<son_topo::EdgeId>) {
        let Some(edge) = in_edge else {
            return;
        };
        let Some(&link) = self.edge_index.get(&edge) else {
            return;
        };
        if let Some(w) = &mut self.watch {
            if let Some(lw) = w.links.get_mut(link) {
                lw.progressed_window = lw.progressed_window.saturating_sub(1);
            }
        }
    }
}
