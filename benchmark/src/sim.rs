//! The three simulated workloads: what each one builds, runs and harvests.
//!
//! One rep is a fresh build plus one `run_until` to the workload's horizon.
//! The build is the program's (scenario, topology, `OverlayBuilder::build`,
//! clients, schedule); the inputs it is built from are the benchmark's
//! ([`crate::inputs`]) and are fixed before the first rep.

use std::collections::BTreeMap;
use std::time::Instant;

use son_netsim::loss::LossConfig;
use son_netsim::process::ProcessId;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::{ScenarioEvent, Simulation};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::{DropClass, FootprintReport, PerfRegistry};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::{ClientConfig, ClientFlow, ClientProcess, Workload};
use son_overlay::service::FecParams;
use son_overlay::state::connectivity::ConnectivityConfig;
use son_overlay::{
    Destination, FlowSpec, LinkService, NodeConfig, OverlayAddr, OverlayHandle, OverlayNode,
    RealtimeParams, RoutingService, SourceRoute, Wire,
};
use son_topo::{EdgeId, Graph, NodeId};

use crate::inputs;
use crate::procfs;
use crate::spans::Spans;

/// Receiver port of flow 0; flow `k` uses `RX_PORT + k`.
const RX_PORT: u16 = 70;
/// Sender port of flow 0.
const TX_PORT: u16 = 50;
/// Payload bytes of every data packet.
pub const PAYLOAD: usize = 1000;
/// When the flows start sending.
const FLOW_START: SimTime = SimTime::from_millis(500);
/// Senders stop this long before the horizon, so every packet emitted has
/// time to meet its deadline and none is counted failed for being in flight.
const QUIET_TAIL: SimDuration = SimDuration::from_millis(300);
/// Deadline of a flow whose spec carries none.
const DEFAULT_DEADLINE: SimDuration = SimDuration::from_millis(250);
/// Nodes of the scale workload.
pub const SCALE_N: usize = 512;

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    FwdChurn,
    RecoveryMix,
    Scale512,
}

impl SimWorkload {
    pub const ALL: [SimWorkload; 3] = [
        SimWorkload::FwdChurn,
        SimWorkload::RecoveryMix,
        SimWorkload::Scale512,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::FwdChurn => "sim_fwd_churn",
            SimWorkload::RecoveryMix => "sim_recovery_mix",
            SimWorkload::Scale512 => "sim_scale_512",
        }
    }

    /// Simulated seconds of one rep.
    pub fn horizon_s(self) -> u64 {
        match self {
            SimWorkload::FwdChurn => 30,
            SimWorkload::RecoveryMix => 20,
            SimWorkload::Scale512 => 3,
        }
    }

    /// Share of the packets sent that must arrive on time. What the
    /// scenario's own faults take (a flapped link until the neighbours
    /// notice, a loss roll no retransmission beat, the cut ring link) stays
    /// above it on every seed tried: 0.942–0.979, 0.9959–0.9985 and 0.9695.
    pub fn delivery_floor(self) -> f64 {
        match self {
            SimWorkload::FwdChurn => 0.90,
            SimWorkload::RecoveryMix => 0.99,
            SimWorkload::Scale512 => 0.95,
        }
    }
}

/// One flow of a plan.
#[derive(Debug, Clone)]
pub struct FlowPlan {
    pub src: NodeId,
    pub dst: NodeId,
    pub spec: FlowSpec,
    pub interval: SimDuration,
}

/// Everything that distinguishes one seed's reps from another's. A pure
/// function of `(workload, seed)`; the program is built from it, never from
/// the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: SimWorkload,
    pub sim_seed: u64,
    pub flows: Vec<FlowPlan>,
    /// `(edge, down_at, up_at)` link outages.
    pub outages: Vec<(EdgeId, SimTime, SimTime)>,
    pub horizon: SimTime,
}

/// The 512-node ring with a chord from `i` to `i + n/2` every 16 positions
/// on the first half: the shape of `son_bench::scale::scale_topology`.
pub fn scale_topology(n: usize, hop_ms: f64) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), hop_ms);
    }
    for i in (0..n / 2).step_by(16) {
        g.add_edge(NodeId(i), NodeId(i + n / 2), hop_ms * 1.5);
    }
    g
}

/// The endpoints of `sim_recovery_mix`, as in `exp_throughput`. They are
/// fixed, and the seed drives the loss rolls only: how much a source-routed
/// service costs depends on where its endpoints sit (seeded endpoints moved
/// the rep wall time between 0.40 s and 0.89 s).
const RECOVERY_ENDPOINTS: [(usize, usize); inputs::FLOWS] = [
    (0, 6),
    (1, 7),
    (2, 8),
    (3, 9),
    (4, 10),
    (5, 11),
    (6, 0),
    (7, 1),
];

/// The 12-city overlay's link weights as the daemons see them once the
/// measured latencies have been advertised: ten simulated seconds without
/// traffic, then node 0's view. Input generation only, done once per
/// process and never timed.
fn converged_view() -> Graph {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    let mut sim: Simulation<Wire> = Simulation::new(0);
    sim.set_underlay(sc.underlay);
    let overlay = OverlayBuilder::new(topo)
        .place_in_cities(cities)
        .build(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    sim.proc_ref::<OverlayNode>(overlay.daemons[0])
        .expect("daemon")
        .connectivity()
        .current_graph()
}

/// The eight services of `sim_recovery_mix`, in flow order.
fn recovery_specs() -> Vec<FlowSpec> {
    let source = |link, route| {
        FlowSpec::best_effort()
            .with_link(link)
            .with_routing(RoutingService::SourceBased(route))
    };
    vec![
        FlowSpec::reliable(),
        FlowSpec::reliable(),
        FlowSpec::live_video(SimDuration::from_millis(200)),
        FlowSpec::live_video(SimDuration::from_millis(200)),
        FlowSpec::best_effort().with_link(LinkService::Fec(FecParams::light())),
        source(LinkService::ItPriority, SourceRoute::ConstrainedFlooding),
        source(LinkService::ItReliable, SourceRoute::DisjointPaths(2)).with_ordered(true),
        source(LinkService::BestEffort, SourceRoute::DisseminationGraph),
    ]
}

/// Generates the plan of `(workload, seed)`.
pub fn plan(workload: SimWorkload, seed: u64, horizon_s: u64) -> Plan {
    let horizon = SimTime::from_secs(horizon_s);
    let best_effort = |pairs: Vec<(NodeId, NodeId)>| -> Vec<FlowPlan> {
        pairs
            .into_iter()
            .map(|(src, dst)| FlowPlan {
                src,
                dst,
                spec: FlowSpec::best_effort(),
                interval: SimDuration::from_millis(2),
            })
            .collect()
    };
    let (flows, outages) = match workload {
        SimWorkload::FwdChurn => {
            let (topo, _) = continental_overlay(&continental_us(DEFAULT_CONVERGENCE));
            let flows = best_effort(inputs::continental_flows(&topo, &converged_view(), seed));
            // One link per two-second window: down one second, up the next.
            let order = inputs::flap_order(&topo, seed);
            let outages = (0..)
                .map(|w| (w, SimTime::from_secs(1 + 2 * w as u64)))
                .take_while(|&(_, down)| down < horizon)
                .map(|(w, down)| {
                    (
                        order[w % order.len()],
                        down,
                        down + SimDuration::from_secs(1),
                    )
                })
                .collect();
            (flows, outages)
        }
        SimWorkload::RecoveryMix => {
            let flows = RECOVERY_ENDPOINTS
                .into_iter()
                .zip(recovery_specs())
                .map(|((src, dst), spec)| FlowPlan {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    spec,
                    interval: SimDuration::from_millis(5),
                })
                .collect();
            (flows, Vec::new())
        }
        SimWorkload::Scale512 => {
            let (pairs, cut) = inputs::scale_inputs(SCALE_N, seed);
            // Ring link `cut` is edge id `cut`: ring edges are added first.
            let outage = (
                EdgeId(cut),
                SimTime::from_millis(1500),
                SimTime::from_millis(2200),
            );
            (best_effort(pairs), vec![outage])
        }
    };
    Plan {
        workload,
        sim_seed: seed,
        flows,
        outages,
        horizon,
    }
}

/// A built, not yet run, simulation.
pub struct Built {
    pub sim: Simulation<Wire>,
    pub overlay: OverlayHandle,
    /// Receiver client of each flow.
    pub rxs: Vec<ProcessId>,
    /// Sender client of each flow.
    pub txs: Vec<ProcessId>,
}

/// Builds the plan's world from scratch: topology, overlay, clients,
/// outage schedule. `perf` switches on the program's own profiler (event
/// loop and every daemon); `shards > 1` installs a shard plan.
pub fn build(plan: &Plan, perf: bool, shards: usize) -> Built {
    let mut sim: Simulation<Wire> = Simulation::new(plan.sim_seed);
    if perf {
        sim.enable_perf();
    }
    let mut config = NodeConfig {
        perf,
        ..NodeConfig::default()
    };
    let builder = match plan.workload {
        SimWorkload::FwdChurn | SimWorkload::RecoveryMix => {
            let sc = continental_us(DEFAULT_CONVERGENCE);
            let (topo, cities) = continental_overlay(&sc);
            sim.set_underlay(sc.underlay);
            let b = OverlayBuilder::new(topo).place_in_cities(cities);
            if plan.workload == SimWorkload::RecoveryMix {
                b.default_loss(LossConfig::Bernoulli { p: 0.02 })
            } else {
                b
            }
        }
        SimWorkload::Scale512 => {
            config.connectivity = ConnectivityConfig {
                rebuild_hold_down: SimDuration::from_millis(250),
                ..ConnectivityConfig::default()
            };
            OverlayBuilder::new(scale_topology(SCALE_N, 10.0))
        }
    };
    let overlay = builder.node_config(config).build(&mut sim);

    let sending = plan
        .horizon
        .saturating_since(FLOW_START)
        .saturating_sub(QUIET_TAIL);
    let mut rxs = Vec::new();
    let mut txs = Vec::new();
    for (k, f) in plan.flows.iter().enumerate() {
        let k16 = k as u16;
        rxs.push(sim.add_process(ClientProcess::new(ClientConfig {
            daemon: overlay.daemon(f.dst),
            port: RX_PORT + k16,
            joins: vec![],
            flows: vec![],
        })));
        txs.push(sim.add_process(ClientProcess::new(ClientConfig {
            daemon: overlay.daemon(f.src),
            port: TX_PORT + k16,
            joins: vec![],
            flows: vec![ClientFlow {
                local_flow: 1,
                dst: Destination::Unicast(OverlayAddr::new(f.dst, RX_PORT + k16)),
                spec: f.spec,
                workload: Workload::Cbr {
                    size: PAYLOAD,
                    interval: f.interval,
                    count: sending.as_nanos() / f.interval.as_nanos(),
                    start: FLOW_START,
                },
            }],
        })));
    }
    if shards > 1 {
        // Clients talk to their daemon over zero-latency IPC, so they ride
        // its shard.
        let mut sp = overlay.shard_plan(shards, sim.process_count());
        for (k, f) in plan.flows.iter().enumerate() {
            overlay.colocate(&mut sp, rxs[k], f.dst);
            overlay.colocate(&mut sp, txs[k], f.src);
        }
        sim.set_shard_plan(Some(sp));
    }
    for &(edge, down, up) in &plan.outages {
        for &(ab, ba) in &overlay.edge_pipes[&edge] {
            sim.schedule(down, ScenarioEvent::DisablePipe(ab));
            sim.schedule(down, ScenarioEvent::DisablePipe(ba));
            sim.schedule(up, ScenarioEvent::EnablePipe(ab));
            sim.schedule(up, ScenarioEvent::EnablePipe(ba));
        }
    }
    Built {
        sim,
        overlay,
        rxs,
        txs,
    }
}

/// What one rep's finished simulation says about itself. Everything here
/// except `perf` is a pure function of the plan, so it must repeat exactly.
#[derive(Debug)]
pub struct Harvest {
    pub fingerprint: u64,
    /// Exact-repeat counts by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Data packets the senders emitted.
    pub sent: u64,
    /// Of those, delivered (once) within the flow's deadline.
    pub on_time: u64,
    /// Unique deliveries, on time or not.
    pub delivered: u64,
    /// Operations the program got wrong: application duplicates, deliveries
    /// of packets nobody sent, and what `on_time` is short of the
    /// workload's delivery floor. Zero on a correct run.
    pub failed: u64,
    /// Broken invariants; empty on a correct run.
    pub violations: Vec<String>,
    /// Daemons in the deployment.
    pub nodes: usize,
    pub footprint: FootprintReport,
    /// Every daemon's profiler and the event loop's, absorbed (traced reps).
    pub perf: Option<PerfRegistry>,
}

/// One value of every link service, for `OverlayNode::service_stats`
/// (which looks at the service slot, not its parameters).
fn all_services() -> [LinkService; 7] {
    [
        LinkService::BestEffort,
        LinkService::Reliable,
        LinkService::Realtime(RealtimeParams::live_tv()),
        LinkService::ItPriority,
        LinkService::ItReliable,
        LinkService::Fifo,
        LinkService::Fec(FecParams::light()),
    ]
}

/// Reads the finished simulation through its public accessors.
pub fn harvest(plan: &Plan, built: &Built, perf: Option<PerfRegistry>) -> Harvest {
    let Built {
        sim,
        overlay,
        rxs,
        txs,
    } = built;
    let mut violations = Vec::new();
    let mut counts = BTreeMap::new();

    let mut sent = 0;
    let mut delivered = 0;
    let mut on_time = 0;
    let mut wrong = 0;
    let mut latencies = Vec::new();
    for (k, f) in plan.flows.iter().enumerate() {
        let flow_sent = sim
            .proc_ref::<ClientProcess>(txs[k])
            .expect("sender client")
            .sent(1);
        sent += flow_sent;
        let rx = sim
            .proc_ref::<ClientProcess>(rxs[k])
            .expect("receiver client");
        if rx.recv.len() > 1 {
            violations.push(format!("flow {k}: receiver logged {} flows", rx.recv.len()));
        }
        let Some(recv) = rx.recv.values().next() else {
            violations.push(format!("flow {k}: nothing delivered"));
            continue;
        };
        if recv.received > flow_sent {
            violations.push(format!(
                "flow {k}: {} unique deliveries of {flow_sent} sent",
                recv.received
            ));
        }
        if recv.app_duplicates > 0 {
            violations.push(format!(
                "flow {k}: {} application duplicates",
                recv.app_duplicates
            ));
        }
        wrong += recv.app_duplicates + recv.received.saturating_sub(flow_sent);
        delivered += recv.received;
        on_time += recv.within_deadline(f.spec.deadline.unwrap_or(DEFAULT_DEADLINE));
        latencies.extend_from_slice(&recv.latencies_ms);
    }
    latencies.sort_by(f64::total_cmp);
    let floor = plan.workload.delivery_floor();
    let short = crate::stats::shortfall(sent, on_time, floor);
    if short > 0 {
        violations.push(format!("{on_time} of {sent} packets on time (< {floor})"));
    }

    let mut totals = NodeTotals::default();
    for &d in &overlay.daemons {
        let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
        totals.add(node);
        if let Some(p) = &perf {
            p.absorb(node.obs().perf());
        }
    }
    if let (Some(p), Some(event_loop)) = (&perf, sim.perf()) {
        p.absorb(event_loop);
    }

    let c = sim.counters();
    let pipe_dropped: u64 = DropClass::ALL
        .iter()
        .filter(|class| class.is_pipe())
        .map(|class| c.get(class.label()))
        .sum();
    let q = sim.queue_stats();
    let payload_bytes = (delivered * PAYLOAD as u64).max(1);
    counts.insert("netsim.events", sim.events_processed() as f64);
    counts.insert("netsim.queue.live_at_end", q.live as f64);
    counts.insert("netsim.queue.tombstones_peak", q.tombstones_peak as f64);
    counts.insert("netsim.queue.compactions", q.compactions as f64);
    counts.insert(
        "netsim.pipe.sent",
        (c.get("pipe.delivered") + pipe_dropped) as f64,
    );
    counts.insert("netsim.pipe.dropped", pipe_dropped as f64);
    totals.counts_into(&mut counts);
    delivery_counts_into(
        &mut counts,
        &latencies,
        delivered as f64 / sent.max(1) as f64,
        c.get("pipe.bytes") as f64 / payload_bytes as f64,
    );

    Harvest {
        fingerprint: sim.fingerprint(),
        counts,
        sent,
        on_time,
        delivered,
        failed: wrong + short,
        violations,
        nodes: overlay.daemons.len(),
        footprint: totals.footprint,
        perf,
    }
}

/// What the daemons of one deployment counted, summed.
#[derive(Debug, Default)]
pub struct NodeTotals {
    forwarded: u64,
    reroutes: u64,
    dedup: u64,
    drops: u64,
    retransmitted: u64,
    ctl: u64,
    pub footprint: FootprintReport,
}

impl NodeTotals {
    pub fn add(&mut self, node: &OverlayNode) {
        let m = node.metrics();
        self.forwarded += m.forwarded;
        self.reroutes += m.counters.get("reroutes");
        self.dedup += m.dedup_suppressed;
        self.drops += node
            .obs()
            .registry()
            .counters()
            .filter(|(desc, _)| desc.name.starts_with("drop."))
            .map(|(_, v)| v)
            .sum::<u64>();
        for service in all_services() {
            let s = node.service_stats(service);
            self.retransmitted += s.retransmitted;
            self.ctl += s.ctl_sent;
        }
        self.footprint.merge(&node.footprint());
    }

    pub fn counts_into(&self, counts: &mut BTreeMap<&'static str, f64>) {
        counts.insert("overlay.forwarded", self.forwarded as f64);
        counts.insert("overlay.reroutes", self.reroutes as f64);
        counts.insert("overlay.link.retransmitted", self.retransmitted as f64);
        counts.insert("overlay.link.ctl", self.ctl as f64);
        counts.insert("overlay.dedup.suppressed", self.dedup as f64);
        counts.insert("overlay.drops_total", self.drops as f64);
    }
}

/// The receivers' side of the counts: `latencies_ms` ascending.
pub fn delivery_counts_into(
    counts: &mut BTreeMap<&'static str, f64>,
    latencies_ms: &[f64],
    delivery_frac: f64,
    wire_bytes_per_payload_byte: f64,
) {
    counts.insert("overlay.delivery_frac", delivery_frac);
    if let Some(p50) = crate::stats::quantile_sorted(latencies_ms, 0.5) {
        counts.insert("overlay.deliver_p50_ms", p50);
    }
    if let Some(p99) = crate::stats::quantile_checked(latencies_ms, 0.99) {
        counts.insert("overlay.deliver_p99_ms", p99);
    }
    counts.insert(
        "overlay.wire_bytes_per_payload_byte",
        wire_bytes_per_payload_byte,
    );
}

/// Makes the event loop's profiler and every daemon's record every span.
/// They are separate registries that by default each sample one event tree
/// in 16 on their own count, so a handler's spans and the event-loop span
/// around it are rarely the same tree; subtracting one from the other then
/// mixes instrumented and uninstrumented runs (the event loop's own share
/// came out at −5 %). Recording every tree keeps the nesting exact, at the
/// price `trace.overhead_frac` reports.
fn record_every_span(built: &Built) {
    if let Some(p) = built.sim.perf() {
        p.set_sample_every(1);
    }
    for &d in &built.overlay.daemons {
        let node = built.sim.proc_ref::<OverlayNode>(d).expect("daemon");
        node.obs().perf().set_sample_every(1);
    }
}

/// One rep's timings (host time) and harvest.
#[derive(Debug)]
pub struct Rep {
    pub build_s: f64,
    pub run_wall_s: f64,
    /// On-CPU seconds of this thread inside `run_until`.
    pub run_cpu_s: f64,
    pub harvest_s: f64,
    pub harvest: Harvest,
}

impl Rep {
    /// Whether the program's profiler was on.
    pub fn traced(&self) -> bool {
        self.harvest.perf.is_some()
    }
}

/// Runs one rep of `plan` on this thread.
pub fn run_rep(plan: &Plan, traced: bool, shards: usize, spans: &mut Spans, tid: u32) -> Rep {
    // Created before the build so its tick calibration spans the whole run.
    let merged = traced.then(|| PerfRegistry::new(false));
    let (mut built, build_s) = spans.time("bench.build", |_| build(plan, traced, shards));
    if traced {
        record_every_span(&built);
    }
    let id = spans.enter("bench.run");
    let cpu0 = procfs::thread_cpu_ns(tid).expect("schedstat");
    let wall = Instant::now();
    built.sim.run_until(plan.horizon);
    let run_wall_s = wall.elapsed().as_secs_f64();
    let run_cpu_s = (procfs::thread_cpu_ns(tid).expect("schedstat") - cpu0) as f64 / 1e9;
    spans.exit(id);
    // Dropping the world is part of harvest: at N=512 it is not free.
    let (harvest, harvest_s) = spans.time("bench.harvest", |_| {
        let h = harvest(plan, &built, merged);
        drop(built);
        h
    });
    Rep {
        build_s,
        run_wall_s,
        run_cpu_s,
        harvest_s,
        harvest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` determinism: two reps of `sim_fwd_churn` on one seed give
    /// one fingerprint and one set of counts; another seed gives other flow
    /// endpoints.
    #[test]
    fn same_seed_same_fingerprint_other_seed_other_endpoints() {
        let tid = procfs::current_tid().unwrap();
        let mut spans = Spans::new();
        // The whole horizon: the delivery floor is set for it, and one flap
        // in a two-second rep would be under it.
        let horizon_s = SimWorkload::FwdChurn.horizon_s();
        let p = plan(SimWorkload::FwdChurn, 5, horizon_s);
        let a = run_rep(&p, false, 1, &mut spans, tid);
        let b = run_rep(&p, false, 1, &mut spans, tid);
        assert_eq!(a.harvest.fingerprint, b.harvest.fingerprint);
        assert_eq!(a.harvest.counts, b.harvest.counts);
        assert_eq!(a.harvest.sent, b.harvest.sent);
        assert!(
            a.harvest.violations.is_empty(),
            "{:?}",
            a.harvest.violations
        );
        assert!(a.harvest.on_time > 0);
        assert_eq!(a.harvest.failed, 0);

        let endpoints = |p: &Plan| p.flows.iter().map(|f| (f.src, f.dst)).collect::<Vec<_>>();
        let q = plan(SimWorkload::FwdChurn, 6, horizon_s);
        assert_ne!(endpoints(&p), endpoints(&q));
        assert_eq!(
            endpoints(&p),
            endpoints(&plan(SimWorkload::FwdChurn, 5, horizon_s))
        );
    }

    #[test]
    fn recovery_mix_has_a_flow_on_every_recovering_service() {
        let p = plan(SimWorkload::RecoveryMix, 1, 2);
        assert_eq!(p.flows.len(), inputs::FLOWS);
        assert!(p.outages.is_empty());
        let links: std::collections::BTreeSet<&str> =
            p.flows.iter().map(|f| f.spec.link.label()).collect();
        let want = [
            "best_effort",
            "fec",
            "it_priority",
            "it_reliable",
            "realtime",
            "reliable",
        ];
        assert_eq!(links.into_iter().collect::<Vec<_>>(), want);
        let source_routed = p
            .flows
            .iter()
            .filter(|f| matches!(f.spec.routing, RoutingService::SourceBased(_)))
            .count();
        assert_eq!(source_routed, 3);
        // The seed moves the loss rolls, not the endpoints.
        let q = plan(SimWorkload::RecoveryMix, 2, 2);
        assert_ne!(p.sim_seed, q.sim_seed);
        assert!(p
            .flows
            .iter()
            .zip(&q.flows)
            .all(|(a, b)| (a.src, a.dst) == (b.src, b.dst)));
    }
}
