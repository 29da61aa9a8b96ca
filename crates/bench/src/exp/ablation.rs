//! E13 — ablations of the design choices behind the headline results.
//!
//! 1. **Hello cadence vs failover time** — the sub-second reroute claim
//!    rests on hello interval × miss threshold; we sweep both and measure
//!    the outage a flow sees against the control-plane overhead paid.
//! 2. **Strike spacing vs burst correlation** — NM-Strikes spreads its
//!    requests "to reduce the probability that all of the requests are
//!    affected by the same correlated loss event"; we shrink the recovery
//!    budget (and therefore the spacing) below the burst length and watch
//!    recovery collapse.
//! 3. **RTO factor** — the Reliable Data Link's timeout multiplier trades
//!    recovery latency against spurious retransmissions.

use son_netsim::loss::LossConfig;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::state::connectivity::ConnectivityConfig;
use son_overlay::{Fleet, FlowSpec, LinkService, NodeConfig, RealtimeParams};
use son_topo::{Graph, NodeId};

use super::Opts;
use crate::{f, row, table_header, UnicastRun};

fn failover_run(hello_ms: u64, down_misses: u32) -> (f64, f64) {
    // Square topology, fail the primary path's first link.
    let mut topo = Graph::new(4);
    let e01 = topo.add_edge(NodeId(0), NodeId(1), 10.0);
    topo.add_edge(NodeId(1), NodeId(3), 10.0);
    topo.add_edge(NodeId(0), NodeId(2), 15.0);
    topo.add_edge(NodeId(2), NodeId(3), 15.0);
    let config = NodeConfig {
        connectivity: ConnectivityConfig {
            hello_interval: SimDuration::from_millis(hello_ms),
            down_misses,
            ..ConnectivityConfig::default()
        },
        ..Default::default()
    };
    let mut fleet = Fleet::new(81, None, OverlayBuilder::new(topo).node_config(config));
    fleet.flow(
        NodeId(0),
        NodeId(3),
        FlowSpec::best_effort(),
        Workload::Cbr {
            size: 500,
            interval: SimDuration::from_millis(5),
            count: u64::MAX,
            start: SimTime::from_millis(500),
        },
    );
    fleet.edge_outage(e01, SimTime::from_secs(3), SimDuration::MAX);
    fleet.run(SimTime::from_secs(10));
    let outage = fleet.recv(0).longest_gap(SimTime::from_secs(3));
    let outage = outage.map_or(0.0, SimDuration::as_millis_f64);
    // Control overhead: hello+ack messages per second per link direction.
    let ctl_per_sec = 2.0 * 1000.0 / hello_ms as f64;
    (outage, ctl_per_sec)
}

fn spacing_run(budget_ms: u64) -> (f64, f64) {
    // 20ms bursts at 5% on a 4-hop path; NM 3x2 with the given budget.
    let params = RealtimeParams {
        n_requests: 3,
        m_retransmissions: 2,
        budget: SimDuration::from_millis(budget_ms),
    };
    let spec = FlowSpec::best_effort()
        .with_link(LinkService::Realtime(params))
        .with_ordered(true)
        .with_deadline(SimDuration::from_millis(200));
    let mut run = UnicastRun::new(chain_topology(5, 10.0), spec, NodeId(0), NodeId(4));
    run.loss = LossConfig::bursts(SimDuration::from_millis(380), SimDuration::from_millis(20));
    run.count = 20_000;
    run.interval = SimDuration::from_millis(2);
    run.run_for = SimDuration::from_secs(90);
    run.seed = 82;
    let out = run.run();
    let within = out.recv.latency_ms().fraction_within(200.0).unwrap_or(0.0)
        * out.recv.received as f64
        / out.sent as f64;
    (within, params.spacing().as_millis_f64())
}

fn rto_run(factor: f64) -> (f64, f64) {
    let config = NodeConfig {
        rto_factor: factor,
        ..Default::default()
    };
    let mut run = UnicastRun::new(
        chain_topology(5, 10.0),
        FlowSpec::reliable(),
        NodeId(0),
        NodeId(4),
    );
    run.node_config = config;
    run.loss = LossConfig::Bernoulli { p: 0.02 };
    run.count = 10_000;
    run.interval = SimDuration::from_millis(5);
    run.run_for = SimDuration::from_secs(90);
    run.seed = 83;
    let out = run.run();
    let mut lat = out.recv.latency_ms();
    (
        lat.quantile(0.999).unwrap_or(f64::NAN),
        out.wire.overhead_ratio(),
    )
}

pub fn run(_: &Opts) {
    println!("-- hello cadence vs failover (link cut at t=3s) --");
    table_header(&[
        ("hello", 8),
        ("misses", 7),
        ("outage ms", 10),
        ("ctl msgs/s/link", 15),
    ]);
    for (hello, misses) in [
        (50u64, 3u32),
        (100, 3),
        (100, 5),
        (250, 3),
        (500, 3),
        (1000, 3),
    ] {
        let (outage, ctl) = failover_run(hello, misses);
        row(&[
            (format!("{hello}ms"), 8),
            (misses.to_string(), 7),
            (f(outage, 0), 10),
            (f(ctl, 1), 15),
        ]);
    }

    println!("\n-- NM-Strikes spacing vs 20ms bursts (5% loss, 3x2 strikes) --");
    table_header(&[("budget", 8), ("spacing ms", 10), ("within 200ms", 12)]);
    for budget in [10u64, 25, 50, 100, 160] {
        let (within, spacing) = spacing_run(budget);
        row(&[
            (format!("{budget}ms"), 8),
            (f(spacing, 1), 10),
            (f(within * 100.0, 2) + "%", 12),
        ]);
    }

    println!("\n-- Reliable Data Link RTO factor (2% loss) --");
    table_header(&[("rto factor", 10), ("p99.9 ms", 9), ("overhead", 8)]);
    for factor in [1.5f64, 2.0, 3.0, 5.0, 8.0] {
        let (p999, overhead) = rto_run(factor);
        row(&[(f(factor, 1), 10), (f(p999, 1), 9), (f(overhead, 3), 8)]);
    }

    println!();
    println!("Shape check: failover time ~= hello_interval x down_misses (+ flood), so");
    println!("sub-second reaction needs sub-second hellos at modest overhead; strike");
    println!("spacing below the burst length wastes the extra strikes (all land in the");
    println!("same correlated loss window); aggressive RTOs cut the tail at the price");
    println!("of spurious retransmissions.");
}
