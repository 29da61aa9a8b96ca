//! Cross-layer packet conservation: every data packet put on a wire is
//! either delivered to a client or attributed to exactly one drop counter.
//!
//! This is the accounting identity the unified drop taxonomy exists to make
//! checkable: the simulator tags data-plane pipe drops `data.drop.<reason>`
//! (keyed by `DropClass`), and the overlay node counts its own drops under
//! the same `drop.<reason>` names with a `node` label. Summing the ledger
//! against the sender's count must balance exactly — any unattributed loss
//! is a bug in either the instrumentation or the forwarding path.
//!
//! The runs use the Best Effort service: it neither retransmits nor buffers,
//! so each client send corresponds to exactly one end-to-end forwarding
//! attempt and the identity holds packet-for-packet. (Recovery protocols
//! intentionally break per-packet accounting — one send may cross a pipe
//! five times.)

use std::collections::HashMap;

use proptest::prelude::*;
use son_bench::UnicastRun;
use son_netsim::loss::LossConfig;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::Registry;
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::Fleet;
use son_overlay::{FlowSpec, NodeConfig};
use son_topo::NodeId;

/// Sums the ledger: (delivered to clients, data drops inside pipes, drops
/// at overlay nodes or link protocols).
fn ledger(reg: &Registry) -> (u64, u64, u64) {
    let delivered = reg.counter_total("node.delivered_local");
    let mut pipe_drops = 0;
    let mut node_drops = 0;
    for (desc, v) in reg.counters() {
        if desc.name.starts_with("data.drop.") {
            pipe_drops += v;
        } else if desc.name.starts_with("drop.") && desc.labels().any(|(k, _)| k == "node") {
            node_drops += v;
        }
    }
    (delivered, pipe_drops, node_drops)
}

fn lossy_run(loss_millis: u64, seed: u64, hops: usize, ttl: u8) -> UnicastRun {
    let last = NodeId(hops);
    let mut run = UnicastRun::new(
        chain_topology(hops + 1, 5.0),
        FlowSpec::best_effort(),
        NodeId(0),
        last,
    );
    run.loss = LossConfig::Bernoulli {
        p: loss_millis as f64 / 1000.0,
    };
    run.count = 150;
    run.interval = SimDuration::from_millis(5);
    run.run_for = SimDuration::from_secs(10);
    run.seed = seed;
    run.node_config.ttl = ttl;
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    fn data_packets_are_conserved_under_loss(
        loss_millis in 0u64..300,
        seed in 0u64..1_000_000,
        hops in 1usize..4,
    ) {
        let run = lossy_run(loss_millis, seed, hops, 32);
        let sent = run.count;
        let out = run.run();
        prop_assert_eq!(out.sent, sent);
        let (delivered, pipe_drops, node_drops) = ledger(&out.registry);
        prop_assert_eq!(
            sent,
            delivered + pipe_drops + node_drops,
            "sent {} != delivered {} + pipe drops {} + node drops {}",
            sent, delivered, pipe_drops, node_drops
        );
    }
}

#[test]
fn ttl_exhaustion_shows_up_in_the_ledger() {
    // A 4-hop chain with a 2-hop budget: every packet that survives the
    // pipes dies of TTL exhaustion at the third node, attributed.
    let run = lossy_run(50, 7, 4, 2);
    let sent = run.count;
    let out = run.run();
    let (delivered, pipe_drops, node_drops) = ledger(&out.registry);
    assert_eq!(delivered, 0, "nothing can cross 4 hops on a 2-hop budget");
    assert!(node_drops > 0, "TTL drops must be attributed");
    assert_eq!(out.registry.counter_total("drop.ttl"), node_drops);
    assert_eq!(sent, delivered + pipe_drops + node_drops);
}

#[test]
fn perfect_run_attributes_nothing() {
    let run = lossy_run(0, 1, 2, 32);
    let sent = run.count;
    let out = run.run();
    let (delivered, pipe_drops, node_drops) = ledger(&out.registry);
    assert_eq!((delivered, pipe_drops, node_drops), (sent, 0, 0));
}

// ---------------------------------------------------------------------------
// Per-FlowKey conservation
//
// The aggregate identity above can hide cross-flow misattribution (flow A's
// drop charged to flow B still balances in total). The `FlowTable` gives
// every daemon per-flow counters labelled with the flow's stable id, so the
// identity must also hold *per FlowKey*, summed over all daemons:
//
//     flow.sent == flow.delivered + flow.dropped
//
// Pipes are lossless here because pipe drops are deliberately not
// flow-attributed (the pipe layer has no flow concept); Best Effort unicast
// keeps the accounting packet-for-packet.
// ---------------------------------------------------------------------------

const PER_FLOW_COUNT: u64 = 60;

/// `sum(flow.sent/delivered/dropped)` over all daemons, grouped by the
/// `flow` label.
fn flow_ledger(reg: &Registry) -> HashMap<String, (u64, u64, u64)> {
    let mut per_flow: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for (desc, v) in reg.counters() {
        let Some((_, label)) = desc.labels().find(|(k, _)| *k == "flow") else {
            continue;
        };
        let e = per_flow.entry(label.to_owned()).or_default();
        match desc.name {
            "flow.sent" => e.0 += v,
            "flow.delivered" => e.1 += v,
            "flow.dropped" => e.2 += v,
            _ => {}
        }
    }
    per_flow
}

/// Runs several Best Effort unicast flows from node 0 over a lossless
/// 6-node chain (flow `i` targets `NodeId(dsts[i])` on its own port) and
/// returns the experiment-wide registry.
fn multi_flow_registry(seed: u64, ttl: u8, dsts: &[usize]) -> Registry {
    let config = NodeConfig {
        ttl,
        ..NodeConfig::default()
    };
    let builder = OverlayBuilder::new(chain_topology(6, 5.0)).node_config(config);
    let mut fleet = Fleet::new(seed, None, builder);
    for &dst in dsts {
        fleet.flow(
            NodeId(0),
            NodeId(dst),
            FlowSpec::best_effort(),
            Workload::Cbr {
                size: 600,
                interval: SimDuration::from_millis(5),
                count: PER_FLOW_COUNT,
                start: SimTime::from_millis(500),
            },
        );
    }
    fleet.run(SimTime::from_secs(5));
    fleet.registry()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    fn conservation_holds_per_flow_key(
        seed in 0u64..1_000_000,
        ttl in 2u8..6,
        dsts in proptest::collection::vec(1usize..6, 2..5),
    ) {
        let reg = multi_flow_registry(seed, ttl, &dsts);
        let per_flow = flow_ledger(&reg);
        prop_assert_eq!(per_flow.len(), dsts.len(), "one ledger entry per FlowKey");
        let mut total_sent = 0;
        for (flow, &(sent, delivered, dropped)) in &per_flow {
            prop_assert_eq!(
                sent,
                delivered + dropped,
                "flow {}: sent {} != delivered {} + dropped {}",
                flow, sent, delivered, dropped
            );
            total_sent += sent;
        }
        prop_assert_eq!(total_sent, PER_FLOW_COUNT * dsts.len() as u64);
    }
}

#[test]
fn per_flow_ledger_separates_delivered_from_ttl_dropped_flows() {
    // On a 3-hop budget, the 1-hop flow delivers everything and the 5-hop
    // flow loses everything to TTL — and each flow's ledger says which.
    let reg = multi_flow_registry(9, 3, &[1, 5]);
    let per_flow = flow_ledger(&reg);
    assert_eq!(per_flow.len(), 2);
    let mut outcomes: Vec<(u64, u64, u64)> = per_flow.values().copied().collect();
    outcomes.sort_by_key(|&(_, delivered, _)| std::cmp::Reverse(delivered));
    assert_eq!(
        outcomes[0],
        (PER_FLOW_COUNT, PER_FLOW_COUNT, 0),
        "1-hop flow: all delivered, nothing attributed"
    );
    assert_eq!(
        outcomes[1],
        (PER_FLOW_COUNT, 0, PER_FLOW_COUNT),
        "5-hop flow: every packet attributed to a flow-labelled drop"
    );
    assert_eq!(
        reg.counter_total("drop.ttl"),
        PER_FLOW_COUNT,
        "the flow-labelled drops are the TTL drops"
    );
}
