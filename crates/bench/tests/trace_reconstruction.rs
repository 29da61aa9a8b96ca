//! End-to-end trace reconstruction: the distributed tracer's timelines,
//! reconstructed from per-daemon rings, must (a) be causally consistent for
//! every sampled packet, and (b) attribute recovery latency the way the
//! paper's Figure 3 argument predicts — hop-by-hop recovery on a 10 ms link
//! repairs in tens of milliseconds while end-to-end recovery on a 50 ms
//! path costs 100 ms-plus.

use std::collections::BTreeSet;

use proptest::prelude::*;
use son_bench::UnicastRun;
use son_netsim::loss::LossConfig;
use son_netsim::time::SimDuration;
use son_obs::trace::{attribute, median_ns, reconstruct, self_check, Terminal, TraceStage};
use son_obs::DropClass;
use son_overlay::builder::chain_topology;
use son_overlay::FlowSpec;
use son_topo::NodeId;

/// A reliable unicast run over an `n`-node chain with per-link Bernoulli
/// loss, every packet traced (`trace_sample = 1`) so reconstruction sees
/// the losses it needs.
fn traced_run(nodes: usize, hop_ms: f64, loss: f64, seed: u64, count: u64) -> UnicastRun {
    let mut run = UnicastRun::new(
        chain_topology(nodes, hop_ms),
        FlowSpec::reliable(),
        NodeId(0),
        NodeId(nodes - 1),
    );
    run.loss = LossConfig::Bernoulli { p: loss };
    run.count = count;
    run.interval = SimDuration::from_millis(5);
    run.run_for = SimDuration::from_secs(30);
    run.seed = seed;
    run.node_config.trace_sample = 1;
    run
}

/// The E1 acceptance criterion: reconstructed timelines must show
/// hop-by-hop recovery repairing at ~10–30 ms on a lossy 10 ms link while
/// the 50 ms end-to-end path repairs at ~100 ms-plus, and the recovered
/// packets' end-to-end latencies must order the same way.
#[test]
fn fig3_recovery_attribution_is_hop_local_vs_end_to_end() {
    // Five 10 ms links, lossy; recovery is hop-local.
    let hbh = traced_run(6, 10.0, 0.02, 11, 2_000).run();
    // One 50 ms link, matched end-to-end loss 1-(1-0.02)^5 ~= 0.096; the
    // only place to recover is the whole path.
    let e2e = traced_run(2, 50.0, 0.096, 12, 2_000).run();

    let hbh_tl = reconstruct(&hbh.traces);
    let e2e_tl = reconstruct(&e2e.traces);
    assert!(hbh_tl.len() >= 1_000, "every packet is sampled");
    assert!(e2e_tl.len() >= 1_000, "every packet is sampled");
    for report in [self_check(&hbh.traces), self_check(&e2e.traces)] {
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    // Hop-by-hop: recoveries appear at interior hops, and the per-recovery
    // latency is a couple of 10 ms RTTs (gap notice + NACK round trip),
    // nowhere near the 100 ms an end-to-end repair would cost.
    let hbh_stats = attribute(&hbh_tl);
    let hbh_recoveries: u64 = hbh_stats.iter().map(|s| s.recoveries).sum();
    assert!(hbh_recoveries > 10, "lossy links must show recoveries");
    let hbh_rec: Vec<u64> = hbh_stats
        .iter()
        .flat_map(|s| s.recovery_ns.iter().copied())
        .collect();
    let hbh_p50 = median_ns(&hbh_rec);
    assert!(
        (5_000_000..=60_000_000).contains(&hbh_p50),
        "hop-local recovery p50 {} ms should be tens of ms",
        hbh_p50 / 1_000_000
    );

    // End-to-end: every recovery is on the single 50 ms link, so the
    // gap-to-recovery latency carries at least one full 100 ms RTT.
    let e2e_stats = attribute(&e2e_tl);
    let e2e_rec: Vec<u64> = e2e_stats
        .iter()
        .flat_map(|s| s.recovery_ns.iter().copied())
        .collect();
    assert!(e2e_rec.len() > 10, "lossy link must show recoveries");
    let e2e_p50 = median_ns(&e2e_rec);
    assert!(
        e2e_p50 >= 80_000_000,
        "end-to-end recovery p50 {} ms should be >= ~100 ms",
        e2e_p50 / 1_000_000
    );
    assert!(
        hbh_p50 * 3 <= e2e_p50,
        "hop-by-hop recovery ({} ms) must be several times faster than \
         end-to-end ({} ms)",
        hbh_p50 / 1_000_000,
        e2e_p50 / 1_000_000
    );

    // The recovered packets' total latency orders the same way: the paper's
    // ~70 ms vs ~150 ms comparison.
    let rec_e2e_latency = |tls: &[son_obs::Timeline]| {
        let lat: Vec<u64> = tls
            .iter()
            .filter(|t| t.recovery_ns() > 0 && t.terminal() == Terminal::Delivered)
            .filter_map(|t| t.e2e_ns())
            .collect();
        median_ns(&lat)
    };
    let hbh_lat = rec_e2e_latency(&hbh_tl);
    let e2e_lat = rec_e2e_latency(&e2e_tl);
    assert!(
        (55_000_000..=110_000_000).contains(&hbh_lat),
        "recovered hop-by-hop packets {} ms, expected ~70 ms",
        hbh_lat / 1_000_000
    );
    assert!(
        e2e_lat >= 120_000_000,
        "recovered end-to-end packets {} ms, expected ~150 ms",
        e2e_lat / 1_000_000
    );
}

/// The reconstructed path must match the chain the packets actually walked,
/// each recovered timeline must carry its retransmissions at the hop
/// *before* the recovery, and with every packet sampled the rings hold the
/// whole per-packet lifecycle: enqueue, transmit, recovery, delivery, and
/// classified drops.
#[test]
fn timelines_record_the_path_and_localize_retransmissions() {
    let out = traced_run(4, 10.0, 0.03, 21, 1_000).run();
    let stages: BTreeSet<&str> = out.traces.iter().map(|e| e.stage.label()).collect();
    for stage in ["enqueue", "transmit", "recovered", "deliver"] {
        assert!(stages.contains(stage), "no {stage} event in {stages:?}");
    }
    // A TTL too small for the chain: every packet dies at node 1, on record.
    let mut starved = traced_run(4, 10.0, 0.0, 22, 20);
    starved.node_config.ttl = 1;
    let starved = starved.run();
    let ttl_drops = starved
        .traces
        .iter()
        .filter(|e| e.node == 1 && e.stage == TraceStage::Drop(DropClass::Ttl));
    assert_eq!(ttl_drops.count(), 20, "one classified drop per packet");

    let timelines = reconstruct(&out.traces);
    assert!(!timelines.is_empty());
    for tl in &timelines {
        if tl.terminal() == Terminal::Delivered && tl.max_hop() == 3 {
            assert_eq!(tl.path(), vec![0, 1, 2, 3], "chain path in hop order");
        }
        for e in &tl.events {
            if let TraceStage::Recovered { .. } = e.stage {
                assert!(
                    tl.events.iter().any(|r| {
                        matches!(r.stage, TraceStage::Retransmit) && r.hop + 1 == e.hop
                    }),
                    "recovery at hop {} without a retransmission at hop {}",
                    e.hop,
                    e.hop - 1
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Causal ordering as a property: for any loss rate and seed, every
    /// sampled packet's timeline starts with ingress at hop 0, covers a
    /// contiguous, time-ordered hop range, and terminates in exactly one
    /// of delivered / classified drop (`Timeline::check`), and recovery
    /// never appears at hop 0 (nothing precedes the ingress link).
    fn sampled_timelines_are_causally_ordered(
        loss_millis in 0u64..80,
        seed in 0u64..1_000_000,
        nodes in 3usize..6,
    ) {
        let out = traced_run(
            nodes,
            10.0,
            loss_millis as f64 / 1000.0,
            seed,
            300,
        )
        .run();
        let report = self_check(&out.traces);
        prop_assert!(report.timelines > 0, "every packet is sampled");
        prop_assert!(report.ok(), "violations: {:?}", report.violations);
        for tl in reconstruct(&out.traces) {
            for e in &tl.events {
                if matches!(e.stage, TraceStage::Recovered { .. }) {
                    prop_assert!(e.hop > 0, "recovery cannot precede ingress");
                }
            }
        }
    }
}
