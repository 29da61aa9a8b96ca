//! Per-node observability: the daemon's window into `son-obs`.
//!
//! [`NodeObs`] bundles the node's metrics [`Registry`], its trace and watch
//! [`Ring`](son_obs::Ring)s and its profiler behind the recording API the
//! daemon actually uses. Counters (one `Vec` index + add, pre-registered
//! handles) and the rare-event recovery/delivery histograms are always on:
//! they back [`NodeObs::counter`] and the experiment exporters.
//! Per-packet lifecycle events are recorded for the packets the ingress
//! sampled (`NodeConfig::trace_sample`; 1 records every packet), and the
//! rings grow with what they record, so an unsampled node retains nothing.
//!
//! Every instrument carries a `node=<id>` label so per-node registries can
//! be [`Registry::absorb`]ed into one experiment-wide registry without
//! collisions. The registry stores that label once ([`Registry::with_labels`]);
//! an instrument keeps only its own `proto` or `flow` label.

use son_netsim::time::SimTime;
use son_obs::trace::{TraceContext, TraceEvent, TraceRing, TraceStage};
use son_obs::watch::{WatchEvent, WatchKind, WatchRing};
use son_obs::{CounterId, DropClass, HistId, MemFootprint, PacketKey, PerfRegistry, Registry};
use son_topo::NodeId;

use crate::linkproto::LinkEvent;
use crate::packet::DataPacket;

/// Retained distributed-trace events per node. Traces are sampled (1/64-ish
/// of packets) so this holds minutes of history; overflow is counted in
/// `obs.trace_overflow` rather than lost silently.
const TRACE_CAPACITY: usize = 32768;

/// Retained watchdog audit events per node. Detections and remediations are
/// rare by construction (per-epoch, per-link), so this holds whole runs.
const WATCH_CAPACITY: usize = 4096;

/// Pre-registered counter handles for one flow's life at this node, created
/// once when the flow's [`FlowContext`](crate::flow::FlowContext) is built
/// and then incremented handle-only on the hot path.
///
/// The instruments are named `flow.*` (not `drop.*`) so per-flow accounting
/// never double-counts against the node-level drop ledger; each carries a
/// `flow=<stable_id hex>` label after the node's, so absorbed experiment
/// registries can be sliced per flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowObs {
    /// Packets this flow's client handed to the ingress (`flow.sent`).
    pub sent: CounterId,
    /// Packets delivered to local clients of this flow (`flow.delivered`).
    pub delivered: CounterId,
    /// Packets of this flow forwarded onto links (`flow.forwarded`).
    pub forwarded: CounterId,
    /// Packets of this flow this node dropped, any class (`flow.dropped`).
    pub dropped: CounterId,
}

/// The daemon's observability state: registry, event rings, and the
/// pre-registered handles for every hot-path counter.
#[derive(Debug)]
pub struct NodeObs {
    registry: Registry,
    traces: TraceRing,
    watch: WatchRing,
    perf: PerfRegistry,
    node_id: u32,
    trace_overflow: CounterId,
    forwarded: CounterId,
    delivered_local: CounterId,
    adversary_injected: CounterId,
    drop_ttl: CounterId,
    drop_auth: CounterId,
    drop_dedup: CounterId,
    drop_unroutable: CounterId,
    drop_adversary: CounterId,
    delivery_latency: HistId,
    /// Link-event instruments by protocol (and name), registered on first
    /// use: an event is a handle lookup, not a formatted key.
    link_counters: Vec<(&'static str, &'static str, CounterId)>,
    link_recovery: Vec<(&'static str, HistId)>,
    /// Counters without labels of their own by name, registered on first
    /// use.
    named: Vec<(&'static str, CounterId)>,
}

impl NodeObs {
    /// Observability state for node `me`.
    #[must_use]
    pub fn new(me: NodeId) -> Self {
        let mut registry = Registry::with_labels(&[("node", &me.0.to_string())]);
        let trace_overflow = registry.counter("obs.trace_overflow", &[]);
        let forwarded = registry.counter("node.forwarded", &[]);
        let delivered_local = registry.counter("node.delivered_local", &[]);
        let adversary_injected = registry.counter("node.adversary_injected", &[]);
        let drop_ttl = registry.counter(DropClass::Ttl.label(), &[]);
        let drop_auth = registry.counter(DropClass::Auth.label(), &[]);
        let drop_dedup = registry.counter(DropClass::DedupDuplicate.label(), &[]);
        let drop_unroutable = registry.counter(DropClass::Unroutable.label(), &[]);
        let drop_adversary = registry.counter(DropClass::Adversary.label(), &[]);
        let delivery_latency = registry.histogram("node.delivery_latency_ns", &[]);
        NodeObs {
            registry,
            traces: TraceRing::new(TRACE_CAPACITY),
            watch: WatchRing::new(WATCH_CAPACITY),
            perf: PerfRegistry::new(false),
            node_id: me.0 as u32,
            trace_overflow,
            forwarded,
            delivered_local,
            adversary_injected,
            drop_ttl,
            drop_auth,
            drop_dedup,
            drop_unroutable,
            drop_adversary,
            delivery_latency,
            link_counters: Vec::new(),
            link_recovery: Vec::new(),
            named: Vec::new(),
        }
    }

    /// The node's hot-path wall-clock profiler. Disabled by default; see
    /// [`NodeObs::set_perf_enabled`]. Spans are entered/exited through the
    /// borrow-free [`son_obs::PerfToken`] API so instrumented code can keep
    /// `&mut self` access to the rest of the node between enter and exit.
    #[must_use]
    pub fn perf(&self) -> &PerfRegistry {
        &self.perf
    }

    /// Runtime kill-switch for the wall-clock profiler. When off (the
    /// default), every instrumented site costs one flag load.
    pub fn set_perf_enabled(&mut self, enabled: bool) {
        self.perf.set_enabled(enabled);
        if enabled {
            self.perf.set_sample_every(son_obs::PERF_SAMPLE_EVERY);
        }
    }

    /// A packet was forwarded toward another node.
    #[inline]
    pub fn forwarded(&mut self) {
        self.registry.inc(self.forwarded);
    }

    /// A packet was delivered to a local client; `latency` is its
    /// origin-to-delivery time.
    #[inline]
    pub fn delivered_local(&mut self, latency_ns: u64) {
        self.registry.inc(self.delivered_local);
        self.registry.observe(self.delivery_latency, latency_ns);
    }

    /// Adversarial behaviour originated a junk packet.
    #[inline]
    pub fn adversary_injected(&mut self) {
        self.registry.inc(self.adversary_injected);
    }

    /// The node dropped a packet for `class` (node-layer classes only; link
    /// protocols report theirs through [`NodeObs::link_event`]).
    pub fn drop(&mut self, class: DropClass) {
        let id = match class {
            DropClass::Ttl => self.drop_ttl,
            DropClass::Auth => self.drop_auth,
            DropClass::DedupDuplicate => self.drop_dedup,
            DropClass::Unroutable => self.drop_unroutable,
            DropClass::Adversary => self.drop_adversary,
            other => self.named_id(other.label()),
        };
        self.registry.inc(id);
    }

    /// Bumps the ad-hoc counter `name` (`reroutes`, `provider_switches`),
    /// registered on its first bump.
    pub fn named(&mut self, name: &'static str) {
        let id = self.named_id(name);
        self.registry.inc(id);
    }

    fn named_id(&mut self, name: &'static str) -> CounterId {
        if let Some(&(_, id)) = self.named.iter().find(|(n, _)| *n == name) {
            return id;
        }
        let id = self.registry.counter(name, &[]);
        self.named.push((name, id));
        id
    }

    /// Registers (or re-resolves) the per-flow counter handles for `flow`.
    /// Called once per flow at context creation; the returned handles make
    /// subsequent per-packet accounting a plain `Vec` index.
    #[must_use]
    pub fn flow_counters(&mut self, flow: &crate::addr::FlowKey) -> FlowObs {
        let fid = format!("{:016x}", flow.stable_id());
        let labels = &[("flow", fid.as_str())];
        FlowObs {
            sent: self.registry.counter("flow.sent", labels),
            delivered: self.registry.counter("flow.delivered", labels),
            forwarded: self.registry.counter("flow.forwarded", labels),
            dropped: self.registry.counter("flow.dropped", labels),
        }
    }

    /// Increments a pre-registered counter by handle (the per-flow hot path).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.registry.inc(id);
    }

    /// Records what a link protocol on `proto` observed: retransmissions and
    /// protocol drops become counters, recoveries feed the per-proto
    /// `link.recovery_ns` histogram.
    pub fn link_event(&mut self, proto: &'static str, event: LinkEvent) {
        let labels = &[("proto", proto)];
        let name = match event {
            LinkEvent::Retransmit => "link.retransmit",
            LinkEvent::LossDetected => "link.loss_detected",
            LinkEvent::Drop(class) => class.label(),
            LinkEvent::Recovered { after } => {
                let id = match self.link_recovery.iter().find(|(p, _)| *p == proto) {
                    Some(&(_, id)) => id,
                    None => {
                        let id = self.registry.histogram("link.recovery_ns", labels);
                        self.link_recovery.push((proto, id));
                        id
                    }
                };
                return self.registry.observe(id, after.as_nanos());
            }
        };
        let id = match self
            .link_counters
            .iter()
            .find(|(p, n, _)| (*p, *n) == (proto, name))
        {
            Some(&(.., id)) => id,
            None => {
                let id = self.registry.counter(name, labels);
                self.link_counters.push((proto, name, id));
                id
            }
        };
        self.registry.inc(id);
    }

    /// Records a distributed-trace event for a sampled packet. Always on:
    /// the ingress made the sampling decision, so transit nodes record
    /// regardless of their own configuration (the Dapper model).
    pub fn trace(
        &mut self,
        now: SimTime,
        ctx: TraceContext,
        pkt: &DataPacket,
        stage: TraceStage,
        link: Option<usize>,
    ) {
        let evicted = self.traces.record(TraceEvent {
            at_ns: now.as_nanos(),
            trace_id: ctx.id,
            node: self.node_id,
            hop: ctx.hop,
            packet: PacketKey {
                flow: pkt.flow.stable_id(),
                seq: pkt.flow_seq,
            },
            stage,
            link: link.map(|l| l as u32),
        });
        if evicted {
            self.registry.inc(self.trace_overflow);
        }
    }

    /// Records a node-scope trace marker (reroute, loss-detected): an event
    /// not tied to a sampled packet, exported with trace id 0 so the
    /// analyzer can correlate it by time without building a timeline for it.
    pub fn trace_marker(&mut self, now: SimTime, stage: TraceStage, link: Option<usize>) {
        let evicted = self.traces.record(TraceEvent {
            at_ns: now.as_nanos(),
            trace_id: 0,
            node: self.node_id,
            hop: 0,
            packet: PacketKey { flow: 0, seq: 0 },
            stage,
            link: link.map(|l| l as u32),
        });
        if evicted {
            self.registry.inc(self.trace_overflow);
        }
    }

    /// Records one watchdog detection or remediation in the audit ring and
    /// bumps its per-kind counter (`watch.<label>`, summable per node).
    pub fn watch_event(&mut self, now: SimTime, kind: WatchKind, link: Option<usize>) {
        let id = self.named_id(kind.counter_name());
        self.registry.inc(id);
        self.watch.record(WatchEvent {
            at_ns: now.as_nanos(),
            node: self.node_id,
            link: link.map(|l| l as u32),
            kind,
        });
    }

    /// Retained watchdog audit events.
    #[must_use]
    pub fn watch_events(&self) -> &WatchRing {
        &self.watch
    }

    /// Mutable access to the trace ring, for the watchdog's per-epoch
    /// [`TraceRing::drain_since`] sweep.
    pub fn traces_mut(&mut self) -> &mut TraceRing {
        &mut self.traces
    }

    /// The node's metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Retained distributed-trace events (empty unless sampled packets
    /// passed through this node).
    #[must_use]
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// The node's own counter `name`, without a `proto` or `flow` label:
    /// `node.forwarded`, a node-layer `drop.<reason>`, an ad-hoc counter
    /// such as `reroutes`. `None` if this daemon never registered it (an
    /// ad-hoc counter is registered on its first bump).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        let node = self.node_id.to_string();
        self.registry.counter_named(name, &[("node", &node)])
    }
}

impl MemFootprint for NodeObs {
    fn footprint_bytes(&self) -> usize {
        self.registry.footprint_bytes()
            + self.traces.footprint_bytes()
            + self.watch.footprint_bytes()
            + self.perf.footprint_bytes()
            + son_obs::footprint::vec_bytes(&self.link_counters)
            + son_obs::footprint::vec_bytes(&self.link_recovery)
            + son_obs::footprint::vec_bytes(&self.named)
    }
}

#[cfg(test)]
mod tests {
    use son_netsim::time::SimDuration;

    use super::*;

    /// A daemon that has recorded nothing holds no histogram buckets.
    #[test]
    fn an_idle_daemon_allocates_no_histogram_buckets() {
        let mut obs = NodeObs::new(NodeId(4));
        let hists = |obs: &NodeObs| {
            let r = obs.registry();
            r.histograms()
                .map(|(_, h)| h.footprint_bytes())
                .collect::<Vec<_>>()
        };
        assert_eq!(hists(&obs), [0]);
        obs.forwarded();
        obs.link_event("reliable", LinkEvent::Retransmit);
        assert_eq!(hists(&obs), [0]);
        obs.delivered_local(1_000);
        assert!(hists(&obs)[0] > 0);
    }

    #[test]
    fn link_events_register_per_proto_instruments() {
        let mut obs = NodeObs::new(NodeId(0));
        obs.link_event("reliable", LinkEvent::Retransmit);
        obs.link_event(
            "reliable",
            LinkEvent::Recovered {
                after: SimDuration::from_millis(8),
            },
        );
        obs.link_event("realtime", LinkEvent::Drop(DropClass::Expired));
        let r = obs.registry();
        assert_eq!(
            r.counter_named("link.retransmit", &[("node", "0"), ("proto", "reliable")]),
            Some(1)
        );
        let h = r
            .hist_named("link.recovery_ns", &[("node", "0"), ("proto", "reliable")])
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 8_000_000);
        assert_eq!(
            r.counter_named("drop.expired", &[("node", "0"), ("proto", "realtime")]),
            Some(1)
        );
        // Per-proto drops aggregate with node drops under the same name.
        obs.drop(DropClass::Expired);
        assert_eq!(obs.registry().counter_total("drop.expired"), 2);
        // The node's own counter alone, and one never registered is no 0.
        assert_eq!(obs.counter("drop.expired"), Some(1));
        assert_eq!(obs.counter("node.forwarded"), Some(0));
        assert_eq!(obs.counter("link.retransmit"), None);
    }

    #[test]
    fn traces_record_and_count_overflow() {
        use crate::linkproto::testutil::pkt;
        let p = pkt(7, 100);
        let ctx = TraceContext { id: 42, hop: 3 };
        let mut obs = NodeObs::new(NodeId(5));
        obs.trace(
            SimTime::from_millis(1),
            ctx,
            &p,
            TraceStage::Enqueue,
            Some(1),
        );
        obs.trace_marker(SimTime::from_millis(2), TraceStage::Reroute, None);
        assert_eq!(obs.traces().recorded(), 2);
        let evs: Vec<&TraceEvent> = obs.traces().events().collect();
        assert_eq!(evs[0].trace_id, 42);
        assert_eq!(evs[0].hop, 3);
        assert_eq!(evs[0].node, 5);
        assert_eq!(evs[0].stage, TraceStage::Enqueue);
        assert!(evs[1].is_marker());

        for i in 0..TRACE_CAPACITY as u64 + 9 {
            obs.trace_marker(SimTime::from_millis(i), TraceStage::LossDetected, None);
        }
        assert_eq!(
            obs.registry()
                .counter_named("obs.trace_overflow", &[("node", "5")]),
            Some(11), // the 2 early events were evicted too
        );
        assert_eq!(obs.traces().evicted(), 11);
    }
}
