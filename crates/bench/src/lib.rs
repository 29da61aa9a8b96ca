//! # son-bench — the experiment harness
//!
//! Every experiment regenerates a figure or quantitative claim of the
//! paper (see `DESIGN.md` §3 for the index and `EXPERIMENTS.md` for
//! paper-vs-measured results). Each is a module under [`exp`], listed in
//! [`exp::EXPERIMENTS`] and run by the one `son-exp` binary; all of them
//! build their deployment through [`son_overlay::Fleet`], write `BENCH_*.json` through
//! [`write_bench`] and are gated by [`gate`]. This library also holds the
//! shared campaign runners and table-printing helpers.

pub mod churn;
pub mod exp;
pub mod export;
pub mod gate;
pub mod scale;
pub mod telemetry;
pub mod watchdog;

pub use export::{export_rows, finish_export, obs_sink, tag_run, write_bench};
pub use gate::Gate;
pub use telemetry::{ClusterState, Collector, NodeState};

/// The unit tests count allocations as `son-exp` does.
#[cfg(test)]
#[global_allocator]
static ALLOCATOR: son_obs::alloc::CountingAlloc = son_obs::alloc::CountingAlloc;

use son_netsim::loss::LossConfig;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::trace::TraceEvent;
use son_obs::{Registry, TelemetrySnapshot};
use son_overlay::builder::OverlayBuilder;
use son_overlay::client::{FlowRecv, Workload};
use son_overlay::linkproto::LinkProtoStats;
use son_overlay::{Fleet, FlowSpec, NodeConfig};
use son_topo::{Graph, NodeId};

/// The result of one unicast harness run.
#[derive(Debug)]
pub struct UnicastOutcome {
    /// Packets the sender emitted.
    pub sent: u64,
    /// The receiver's log.
    pub recv: FlowRecv,
    /// Wire accounting for the flow's link service.
    pub wire: LinkProtoStats,
    /// Total de-duplication suppressions across nodes.
    pub dedup_suppressed: u64,
    /// Total daemon-level forwards (transmission count onto links).
    pub forwarded: u64,
    /// Every daemon's metrics registry absorbed into one experiment-wide
    /// view, plus the simulator's pipe-level counters.
    pub registry: Registry,
    /// Every daemon's trace events, merged and time-sorted. Empty unless
    /// the run's `node_config` enables sampling (`trace_sample > 0`).
    pub traces: Vec<TraceEvent>,
    /// Every daemon's telemetry snapshot of every epoch
    /// ([`Fleet::run_with_telemetry`]), in emission order.
    pub telemetry: Vec<TelemetrySnapshot>,
    /// The simulator fingerprint (same seed ⇒ identical).
    pub fingerprint: u64,
}

/// Configuration of one unicast harness run.
#[derive(Debug, Clone)]
pub struct UnicastRun {
    /// Overlay topology (weights = one-way ms).
    pub topology: Graph,
    /// Daemon config.
    pub node_config: NodeConfig,
    /// Loss model on every link.
    pub loss: LossConfig,
    /// Flow services.
    pub spec: FlowSpec,
    /// Source overlay node.
    pub from: NodeId,
    /// Destination overlay node.
    pub to: NodeId,
    /// Packets to send.
    pub count: u64,
    /// Payload size.
    pub size: usize,
    /// Packet interval.
    pub interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Virtual time horizon.
    pub run_for: SimDuration,
}

impl UnicastRun {
    /// A run with defaults suitable for most experiments.
    #[must_use]
    pub fn new(topology: Graph, spec: FlowSpec, from: NodeId, to: NodeId) -> Self {
        UnicastRun {
            topology,
            node_config: NodeConfig::default(),
            loss: LossConfig::Perfect,
            spec,
            from,
            to,
            count: 1000,
            size: 1000,
            interval: SimDuration::from_millis(10),
            seed: 42,
            run_for: SimDuration::from_secs(30),
        }
    }

    /// Executes the run.
    #[must_use]
    pub fn run(self) -> UnicastOutcome {
        let mut fleet = Fleet::new(
            self.seed,
            None,
            OverlayBuilder::new(self.topology)
                .node_config(self.node_config)
                .default_loss(self.loss),
        );
        fleet.flow(
            self.from,
            self.to,
            self.spec,
            Workload::Cbr {
                size: self.size,
                interval: self.interval,
                count: self.count,
                start: SimTime::from_millis(500),
            },
        );
        let mut telemetry = Vec::new();
        fleet.run_with_telemetry(SimTime::ZERO + self.run_for, |snap| telemetry.push(snap));
        UnicastOutcome {
            sent: fleet.sent(0),
            recv: fleet.recv(0).clone(),
            wire: fleet.wire_stats(self.spec.link),
            dedup_suppressed: fleet.nodes().map(|n| n.metrics().dedup_suppressed).sum(),
            forwarded: fleet.forwarded(),
            registry: fleet.registry(),
            traces: fleet.traces(),
            telemetry,
            fingerprint: fleet.sim.fingerprint(),
        }
    }
}

/// The outage a flow saw: the longest gap between consecutive arrivals
/// that ends after `after` (`None` if nothing arrived after it).
#[must_use]
pub fn longest_gap(recv: &FlowRecv, after: SimTime) -> Option<SimDuration> {
    let gaps = recv.arrivals.windows(2).filter(|w| w[1].0 > after);
    gaps.map(|w| w[1].0.saturating_since(w[0].0)).max()
}

/// A ring of `n` nodes (`hop_ms` per link) plus a long chord from `i` to
/// `i + n/2` every `chord_every` positions on the first half of the ring
/// (`0` = plain ring). Source-route masks hold 256 edges: a caller that
/// builds them keeps the edge count under `son_topo::graph::MAX_EDGES` (at
/// 256 nodes the ring alone uses every mask bit, so it carries no chords).
#[must_use]
pub fn ring_with_chords(n: usize, hop_ms: f64, chord_every: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), hop_ms);
    }
    if chord_every > 0 {
        for i in (0..n / 2).step_by(chord_every) {
            g.add_edge(NodeId(i), NodeId(i + n / 2), hop_ms * 1.5);
        }
    }
    g
}

/// Prints an experiment header.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("    {claim}");
    println!();
}

/// Prints a table header row and a separator.
pub fn table_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, width) in cols {
        line.push_str(&format!("{name:>width$}  ", width = width));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(120)));
}

/// Formats a cell-aligned row.
pub fn row(cells: &[(String, usize)]) {
    let mut line = String::new();
    for (value, width) in cells {
        line.push_str(&format!("{value:>width$}  ", width = width));
    }
    println!("{line}");
}

/// Shorthand for fixed-precision cells.
#[must_use]
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::builder::chain_topology;

    #[test]
    fn unicast_run_delivers() {
        let mut run = UnicastRun::new(
            chain_topology(3, 10.0),
            FlowSpec::reliable(),
            NodeId(0),
            NodeId(2),
        );
        run.count = 50;
        let out = run.run();
        assert_eq!(out.sent, 50);
        assert_eq!(out.recv.received, 50);
        assert_eq!(
            out.wire.overhead_ratio(),
            1.0,
            "no loss, no retransmissions"
        );
        assert!(out.forwarded >= 100, "two hops per packet");
        let epochs = out.telemetry.iter().filter(|s| s.node == 0).count();
        assert_eq!(
            out.telemetry.len(),
            3 * epochs,
            "one snapshot per daemon per epoch"
        );
        assert_eq!(epochs as u64, 30_000_000_000 / son_obs::snapshot::EPOCH_NS);
    }

    #[test]
    fn unicast_run_with_loss_recovers() {
        let mut run = UnicastRun::new(
            chain_topology(3, 10.0),
            FlowSpec::reliable(),
            NodeId(0),
            NodeId(2),
        );
        run.count = 200;
        run.loss = LossConfig::Bernoulli { p: 0.05 };
        let out = run.run();
        assert_eq!(out.recv.received, 200);
        assert!(out.wire.retransmitted > 0);
        assert!(out.wire.overhead_ratio() > 1.0);
        // Re-recorded when the ARQ core replaced one RTO timer per packet
        // with one per link: fewer timer events, the same deliveries.
        assert_eq!(
            (out.fingerprint, out.forwarded, out.recv.received),
            (0x7baf_b267_7854_c886, 400, 200)
        );
        assert_eq!(out.registry.counter_total("reroutes"), 49);
    }
}
