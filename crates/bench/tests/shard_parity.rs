//! Determinism parity locks for the sharded conservative event engine.
//!
//! The contract under test: for any shard count K, a sharded run is
//! **bit-identical** to the sequential run of the same `(topology,
//! workload, seed)` — same `Simulation::fingerprint()`, same forwarded and
//! delivered counts, same watchdog audit history. Sharding may only change
//! wall-clock time, never results.
//!
//! Covered here: the scale observatory's ring (with the LSA rebuild
//! hold-down active, so the debounce and the shard windows interleave), a
//! chorded ring, the placed continental-US overlay (underlay-bound pipes,
//! whose lookahead comes from real fiber latencies), and a watchdog
//! fault-injection campaign (crash/restart flaps plus remediation).

use son_bench::churn::{ChurnPattern, ChurnRun};
use son_bench::ring_with_chords;
use son_bench::scale::{scale_topology, SCALE_HOLD_DOWN};
use son_bench::watchdog::{router_failure_campaign, WatchdogRun};
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::state::connectivity::ConnectivityConfig;
use son_overlay::Fleet;
use son_overlay::{FlowSpec, NodeConfig};
use son_topo::{EdgeId, Graph, NodeId};

/// What a run leaves behind; equality means the runs were identical.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    forwarded: u64,
    delivered: u64,
    reroutes: u64,
}

/// Builds the standard parity workload over `topo`: four CBR flows across
/// the overlay, one edge cut at 800ms and restored at 1400ms, horizon 2s.
/// With `placed` the overlay is bound to the continental-US underlay.
fn observe(topo: &Graph, placed: bool, seed: u64, shards: usize) -> Observed {
    let n = topo.node_count();
    let config = NodeConfig {
        connectivity: ConnectivityConfig {
            rebuild_hold_down: SCALE_HOLD_DOWN,
            ..ConnectivityConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut fleet = if placed {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let (placed_topo, cities) = continental_overlay(&sc);
        assert_eq!(placed_topo.node_count(), n, "caller passes the placed topo");
        let builder = OverlayBuilder::new(placed_topo)
            .node_config(config)
            .place_in_cities(cities);
        Fleet::new(seed, Some(sc.underlay), builder)
    } else {
        let builder = OverlayBuilder::new(topo.clone()).node_config(config);
        Fleet::new(seed, None, builder)
    };

    for k in 0..4usize {
        let a = k * n / 4;
        fleet.flow(
            NodeId(a),
            NodeId((a + n / 2 + 1) % n),
            FlowSpec::best_effort(),
            Workload::Cbr {
                size: 1000,
                interval: SimDuration::from_millis(2),
                count: u64::MAX,
                start: SimTime::from_millis(400),
            },
        );
    }
    fleet.edge_outage(
        EdgeId(1),
        SimTime::from_millis(800),
        SimDuration::from_millis(600),
    );
    fleet.shards(shards);
    fleet.run(SimTime::from_secs(2));

    Observed {
        fingerprint: fleet.sim.fingerprint(),
        forwarded: fleet.forwarded(),
        delivered: fleet.delivered(),
        reroutes: fleet.reroutes(),
    }
}

#[test]
fn ring_parity_across_shard_counts_and_seeds() {
    let topo = scale_topology(16, 10.0);
    for seed in [3, 11] {
        let seq = observe(&topo, false, seed, 1);
        assert!(seq.delivered > 0, "workload must deliver (seed {seed})");
        for shards in [2, 4, 8] {
            let par = observe(&topo, false, seed, shards);
            assert_eq!(
                par, seq,
                "shards={shards} seed={seed} diverged from sequential"
            );
        }
    }
}

#[test]
fn chorded_ring_parity() {
    let topo = ring_with_chords(24, 10.0, 4);
    let seq = observe(&topo, false, 7, 1);
    assert!(seq.delivered > 0);
    for shards in [2, 4] {
        let par = observe(&topo, false, 7, shards);
        assert_eq!(par, seq, "shards={shards} diverged on the chorded ring");
    }
}

#[test]
fn continental_parity_with_underlay_bound_pipes() {
    // The placed overlay's cross-shard lookahead comes from
    // `Underlay::min_link_latency` — real fiber latencies, not configs.
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let seq = observe(&topo, true, 5, 1);
    assert!(seq.delivered > 0);
    for shards in [2, 4] {
        let par = observe(&topo, true, 5, shards);
        assert_eq!(par, seq, "shards={shards} diverged on continental-US");
    }
}

#[test]
fn watchdog_campaign_parity_including_watch_history() {
    // Fault injection (daemon crash/restart flaps) + watchdog remediation,
    // run sequentially and sharded: fingerprints, delivery counts, and the
    // complete watchdog audit history must all match.
    let run = |shards: usize| {
        let mut r = WatchdogRun::new("parity", 71, router_failure_campaign)
            .with_watch()
            .with_shards(shards);
        r.run_for = SimDuration::from_secs(12);
        r.count = 800;
        r.run()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(par.fingerprint, seq.fingerprint, "fingerprint diverged");
    assert_eq!(par.sent, seq.sent);
    assert_eq!(par.received, seq.received);
    assert_eq!(par.within_deadline, seq.within_deadline);
    assert_eq!(
        par.watch_events, seq.watch_events,
        "watchdog audit history diverged"
    );
    assert!(
        !seq.watch_events.is_empty(),
        "campaign must exercise the watchdog for the parity to mean anything"
    );
}

#[test]
fn churn_campaign_parity_with_membership_active() {
    // Sustained graceful churn with the full membership machinery live:
    // leave floods, crash detection epochs, evictions, rejoin incarnation
    // bumps. Sequential and sharded runs must stay bit-identical — the
    // tentpole's determinism requirement.
    let run = |shards: usize| {
        let mut r = ChurnRun::new(
            "parity",
            53,
            ChurnPattern::Sustained {
                events: 6,
                downtime: SimDuration::from_secs(2),
                graceful: true,
            },
        )
        .with_shards(shards);
        r.nodes = 32;
        r.run_for = SimDuration::from_secs(14);
        r.count = 800;
        r.run()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(par.fingerprint, seq.fingerprint, "fingerprint diverged");
    assert_eq!(par.sent, seq.sent);
    assert_eq!(par.received, seq.received);
    assert_eq!(par.max_lag, seq.max_lag);
    assert_eq!(par.evictions, seq.evictions, "eviction counts diverged");
    assert!(
        seq.evictions > 0 && seq.graceful_leaves > 0,
        "campaign must exercise membership for the parity to mean anything"
    );
}
