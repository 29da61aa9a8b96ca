//! E16 — the scale observatory harness.
//!
//! Sweeps seeded ring-with-chords overlays over increasing node counts and
//! measures, per N, the three axes the paper's scaling story rests on:
//!
//! 1. **Throughput** — simulated packets forwarded per wall-clock second
//!    while CBR flows cross the overlay and one link fails mid-run.
//! 2. **Memory** — retained bytes per node, broken down by subsystem via
//!    [`son_overlay::node::OverlayNode::footprint`]. Per-node state holds
//!    the full link-state view, so bytes/node grows O(N); the committed
//!    `BENCH_scale.json` curve gates against anything worse (O(N²) per
//!    node would mean O(N³) fleet-wide — a design regression).
//! 3. **Reroute latency** — the `route.rebuild` profiler stage's total-time
//!    percentiles: what installing one topology change costs a daemon (the
//!    snapshot rebuild and the swap), as N grows. The Dijkstra runs happen
//!    later, at the first lookup of a version, as `route.spt` spans; the
//!    `spt_builds` count says how many there were.
//!
//! Each N runs twice on the same seed: once with the profiler off (the
//! clean throughput figure) and once with it on (profiler stages). The sim
//! is deterministic, so both passes execute the identical event sequence.

use std::time::Instant;

use son_netsim::event::QueueStats;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::{FootprintReport, PerfRegistry, PerfStageStats};
use son_overlay::builder::OverlayBuilder;
use son_overlay::client::Workload;
use son_overlay::node::{CtlFrames, OverlayNode};
use son_overlay::state::connectivity::ConnectivityConfig;
use son_overlay::{Fleet, FlowSpec, NodeConfig};
use son_topo::{EdgeId, Graph, NodeId};

use crate::ring_with_chords;

/// Master seed for every scale run: the sweep must be reproducible so the
/// committed `BENCH_scale.json` curve is comparable across machines.
pub const SCALE_SEED: u64 = 11;

/// Cross-overlay CBR flows per run — constant across N so throughput
/// differences isolate the per-node routing and data-path costs.
pub const SCALE_FLOWS: usize = 8;

/// LSA rebuild hold-down used by every scale run. Without it, cold start
/// is an O(N²) convergence storm: each of N daemons rebuilds routes once
/// per arriving LSA during the initial flood (~N rebuilds per daemon).
/// With the debounce the flood coalesces into a handful of rebuilds per
/// daemon, so fleet-wide rebuilds stay O(N).
pub const SCALE_HOLD_DOWN: SimDuration = SimDuration::from_millis(250);

/// [`ring_with_chords`] with a chord every 16 positions: link-state unicast
/// routing never builds edge masks, so the sweep's topologies run far past
/// the 256-edge source-route mask.
#[must_use]
pub fn scale_topology(n: usize, hop_ms: f64) -> Graph {
    assert!(
        n >= 16 && n.is_multiple_of(2),
        "scale topology needs an even n >= 16"
    );
    ring_with_chords(n, hop_ms, 16)
}

/// One measured point of the sweep.
pub struct ScaleResult {
    /// Overlay size.
    pub n: usize,
    /// Event-queue occupancy and compaction counters (perf-off pass).
    pub queue_stats: QueueStats,
    /// Virtual-time horizon of the run.
    pub sim_seconds: f64,
    /// Wall-clock cost of the profiler-off pass.
    pub wall_seconds: f64,
    /// Wall-clock cost of the profiler-on pass (same event sequence).
    pub perf_wall_seconds: f64,
    /// Data packets forwarded onto links, summed over daemons (perf-off).
    pub forwarded: u64,
    /// Packets the flow receivers logged (perf-off).
    pub delivered: u64,
    /// Topology versions installed, summed over daemons (perf-off).
    pub reroutes: u64,
    /// Shortest-path trees computed, summed over daemons (perf-off): one
    /// per installed version a daemon read, plus multicast/anycast roots.
    pub spt_builds: u64,
    /// Frames handed to overlay links, delivered or dropped (perf-off): the
    /// control plane's volume, since data is a few thousand packets.
    pub pipe_sent: u64,
    /// The control frames among them, by kind, summed over daemons.
    pub ctl_frames: CtlFrames,
    /// Share of daemons whose view of every origin equals that origin's
    /// own adverts at the horizon (an origin never heard from counts as
    /// its configured default): whether the run converged. No daemon
    /// leaves a scale run, so every origin is live.
    pub lsdb_complete_frac: f64,
    /// Retained-bytes estimate summed over every daemon, by subsystem
    /// (taken from the perf-off pass so profiler state is not charged).
    pub footprint: FootprintReport,
    /// Every daemon's profiler plus the event loop's, absorbed into one
    /// fleet-wide view (from the perf-on pass).
    pub perf: PerfRegistry,
    /// The simulator fingerprint (identical for both passes).
    pub fingerprint: u64,
    /// Heap allocations on this thread during the perf-off run.
    pub allocs: u64,
}

impl ScaleResult {
    /// Simulated packets forwarded per wall-clock second (perf-off pass).
    #[must_use]
    pub fn pkts_per_wall_s(&self) -> f64 {
        self.forwarded as f64 / self.wall_seconds.max(1e-9)
    }

    /// Average retained bytes per node, by subsystem label.
    #[must_use]
    pub fn bytes_per_node(&self) -> Vec<(&'static str, f64)> {
        self.footprint
            .parts()
            .iter()
            .map(|p| (p.label, p.bytes as f64 / self.n as f64))
            .collect()
    }

    /// Average retained bytes per node, all subsystems.
    #[must_use]
    pub fn bytes_per_node_total(&self) -> f64 {
        self.footprint.total() as f64 / self.n as f64
    }

    /// Average retained bytes per node excluding observability (`rings`):
    /// the protocol state — link-state DB, routing tables, topology.
    #[must_use]
    pub fn bytes_per_node_state(&self) -> f64 {
        let rings = self
            .footprint
            .parts()
            .iter()
            .find(|p| p.label == "rings")
            .map_or(0, |p| p.bytes);
        (self.footprint.total() - rings) as f64 / self.n as f64
    }

    /// The fleet-wide `route.rebuild` stage, if the perf pass recorded it:
    /// what installing one topology change costs a daemon (snapshot + swap).
    #[must_use]
    pub fn reroute_stage(&self) -> Option<PerfStageStats> {
        self.perf
            .stats()
            .into_iter()
            .find(|s| s.label == "route.rebuild")
    }
}

/// One deterministic run at size `n`: CBR flows crossing the overlay, one
/// ring link cut at 1.5s and restored at 2.2s (forcing a fleet-wide
/// reroute wave), horizon `sim_seconds`. A single pass reports its own
/// wall time in both wall-clock fields.
fn run_pass(n: usize, sim_seconds: u64, perf: bool) -> ScaleResult {
    let connectivity = ConnectivityConfig {
        rebuild_hold_down: SCALE_HOLD_DOWN,
        ..ConnectivityConfig::default()
    };
    let mut fleet = Fleet::new(
        SCALE_SEED,
        None,
        OverlayBuilder::new(scale_topology(n, 10.0)).node_config(NodeConfig {
            perf,
            connectivity,
            ..NodeConfig::default()
        }),
    );
    if perf {
        fleet.sim.enable_perf();
    }

    // Flows from evenly spaced sources to (almost) the antipode: the +5
    // offset keeps each path off a single chord so forwarding does real
    // multi-hop work.
    for k in 0..SCALE_FLOWS {
        let a = k * n / SCALE_FLOWS;
        fleet.flow(
            NodeId(a),
            NodeId((a + n / 2 + 5) % n),
            FlowSpec::best_effort(),
            Workload::Cbr {
                size: 1000,
                interval: SimDuration::from_millis(2),
                count: u64::MAX,
                start: SimTime::from_millis(500),
            },
        );
    }

    // Cut one ring link mid-run and bring it back: every daemon sees the
    // failure LSA, rebuilds, then rebuilds again on recovery.
    fleet.edge_outage(
        EdgeId(1),
        SimTime::from_millis(1500),
        SimDuration::from_millis(700),
    );

    let allocs = son_obs::alloc::thread_allocations();
    let wall = Instant::now();
    fleet.run(SimTime::from_secs(sim_seconds));
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = son_obs::alloc::thread_allocations() - allocs;

    let mut footprint = FootprintReport::new();
    let merged = PerfRegistry::new(false);
    for node in fleet.nodes() {
        footprint.merge(&node.footprint());
        merged.absorb(node.obs().perf());
    }
    let own: Vec<(NodeId, &[_])> = (0..n)
        .map(NodeId)
        .map(|origin| {
            let conn = fleet.node(origin).connectivity();
            (
                origin,
                &**conn
                    .adverts_of(origin)
                    .expect("a daemon holds its own adverts"),
            )
        })
        .collect();
    let converged = |node: &&OverlayNode| {
        own.iter()
            .all(|&(origin, adverts)| node.connectivity().believes(origin, adverts))
    };
    if let Some(p) = fleet.sim.perf() {
        merged.absorb(p);
    }
    ScaleResult {
        n,
        queue_stats: fleet.sim.queue_stats(),
        sim_seconds: sim_seconds as f64,
        wall_seconds,
        perf_wall_seconds: wall_seconds,
        forwarded: fleet.forwarded(),
        delivered: fleet.delivered(),
        reroutes: fleet.reroutes(),
        spt_builds: fleet.nodes().map(OverlayNode::spt_builds).sum(),
        pipe_sent: fleet.pipe_sent(),
        ctl_frames: fleet.ctl_frames(),
        lsdb_complete_frac: fleet.nodes().filter(converged).count() as f64 / n as f64,
        footprint,
        perf: merged,
        fingerprint: fleet.sim.fingerprint(),
        allocs,
    }
}

/// Measures one point of the sweep: the perf-off pass (throughput and
/// footprints) followed by the perf-on pass (profiler stages) on the same
/// seed and event sequence.
#[must_use]
pub fn run_scale(n: usize, sim_seconds: u64) -> ScaleResult {
    let base = run_pass(n, sim_seconds, false);
    let profiled = run_pass(n, sim_seconds, true);
    debug_assert_eq!(
        base.fingerprint, profiled.fingerprint,
        "profiler must not perturb the simulation"
    );
    ScaleResult {
        perf_wall_seconds: profiled.wall_seconds,
        perf: profiled.perf,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use son_overlay::packet::Adverts;

    use super::*;

    #[test]
    fn scale_topology_shape() {
        let g = scale_topology(64, 10.0);
        assert_eq!(g.node_count(), 64);
        // 64 ring edges + chords at 0 and 16.
        assert_eq!(g.edge_count(), 66);
        let big = scale_topology(1024, 10.0);
        assert!(big.edge_count() > son_topo::graph::MAX_EDGES);
    }

    #[test]
    fn scale_point_measures_all_three_axes() {
        let r = run_scale(16, 3);
        assert!(r.delivered > 0, "flows must deliver");
        assert!(r.forwarded > r.delivered, "multi-hop paths forward more");
        assert!(r.reroutes > 0, "the link cut must trigger reroutes");
        assert!(r.bytes_per_node_total() > 0.0);
        let labels: Vec<&str> = r.footprint.parts().iter().map(|p| p.label).collect();
        for want in ["routing", "lsdb", "topo", "rings"] {
            assert!(labels.contains(&want), "missing footprint label {want}");
        }
        let stage = r.reroute_stage().expect("route.rebuild stage recorded");
        assert!(stage.count > 0);
        assert!(stage.total_p50_ns > 0.0);
        // The profiled pass must replay the identical event sequence.
        assert_eq!(r.forwarded, run_pass(16, 3, true).forwarded);
    }

    #[test]
    fn fleet_built_scale_point_matches_the_parent_commit() {
        // Recorded at f6b3f84, before `Fleet` built this run (the same
        // counts as the committed n=64 row of `BENCH_scale.json`). The
        // fingerprint was re-recorded when pipes began counting encoded
        // frame bytes (`pipe.bytes`); the counts did not move. It and the
        // reroutes (132 before) were re-recorded when a cold start stopped
        // flooding default-equal LSAs; forwarded and delivered did not move.
        let r = run_scale(64, 3);
        assert_eq!(r.fingerprint, 0x9fce_c578_368f_7d63);
        assert_eq!((r.forwarded, r.delivered, r.reroutes), (88_848, 9_366, 68));
    }

    #[test]
    fn hold_down_caps_cold_start_rebuilds() {
        // Without the hold-down each daemon rebuilds ~once per arriving
        // LSA during the cold-start flood (~N per daemon → ~N^2 fleet-wide);
        // with it the flood coalesces to a handful per daemon.
        let r = run_scale(32, 3);
        assert!(
            r.reroutes <= 32 * 10,
            "cold-start rebuild storm is back: {} reroutes at n=32",
            r.reroutes
        );
    }

    /// A flood leaves one copy of each LSA in the process: once the LSAs a
    /// cut link makes have spread, every daemon's entry for an origin that
    /// flooded is the origin's own allocation. (A cold start floods
    /// nothing, so without the cut there would be no LSA to share.)
    #[test]
    fn fleet_shares_one_allocation_per_lsa() {
        const N: usize = 64;
        let topology = scale_topology(N, 10.0);
        let mut fleet = Fleet::new(SCALE_SEED, None, OverlayBuilder::new(topology.clone()));
        let cut = EdgeId(1);
        fleet.edge_outage(cut, SimTime::from_secs(1), SimDuration::from_secs(60));
        fleet.run(SimTime::from_secs(2));
        let (a, b) = topology.endpoints(cut);
        for origin in (0..N).map(NodeId) {
            let own = fleet.node(origin).connectivity().adverts_of(origin);
            let own = own.expect("a daemon always holds its own adverts");
            if origin != a && origin != b {
                let heard = fleet
                    .nodes()
                    .filter(|node| node.connectivity().adverts_of(origin).is_some());
                assert_eq!(
                    heard.count(),
                    1,
                    "{origin} never flooded; only it holds its adverts"
                );
                continue;
            }
            for node in fleet.nodes() {
                let held = node.connectivity().adverts_of(origin);
                assert!(
                    held.is_some_and(|held| Adverts::ptr_eq(held, own)),
                    "a daemon holds its own copy of {origin}'s LSA"
                );
            }
            assert_eq!(own.holders(), N, "and nobody else does");
        }
    }
}
