//! Whole-system integration tests spanning every crate: applications from
//! `son-apps` running over `son-overlay` daemons on the `son-netsim`
//! multi-ISP underlay.

use son_apps::video::{score, VideoProfile};
use son_netsim::scenario::{continental_us, global_20, DEFAULT_CONVERGENCE};
use son_netsim::sim::Simulation;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, global_overlay, OverlayBuilder};
use son_overlay::client::{ClientConfig, ClientFlow, ClientProcess};
use son_overlay::node::OverlayNode;
use son_overlay::{Destination, Fleet, FlowSpec, OverlayAddr, Wire};
use son_topo::NodeId;

/// Broadcast video across the real (simulated) multi-ISP underlay, with a
/// fiber cut mid-stream: the multihomed overlay link switches provider and
/// the reliable stream never drops a packet.
#[test]
fn video_survives_fiber_cut_via_provider_switch() {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    let builder = OverlayBuilder::new(topo).place_in_cities(cities.clone());
    let mut fleet = Fleet::new(71, Some(sc.underlay.clone()), builder);

    let nyc = NodeId(cities.iter().position(|&c| c == sc.city("NYC")).unwrap());
    let chi = NodeId(cities.iter().position(|&c| c == sc.city("CHI")).unwrap());
    let profile = VideoProfile::proxy();
    let rx = fleet.client(chi, 80, vec![], vec![]);
    let dst = Destination::Unicast(OverlayAddr::new(chi, 80));
    let workload = profile.workload(SimTime::from_secs(1), SimDuration::from_secs(20));
    let flow = ClientFlow::new(dst, FlowSpec::reliable(), workload);
    let tx = fleet.client(nyc, 81, vec![], vec![flow]);

    // Cut the first ISP's NYC-CHI fiber at t=5s. BGP won't reconverge for
    // 40s, but the overlay link is triple-homed.
    let isp = sc.isps[0];
    let mut ul = sc.underlay.clone();
    let route = ul
        .resolve(
            SimTime::ZERO,
            son_netsim::underlay::Attachment::OnNet(isp),
            sc.city("NYC"),
            sc.city("CHI"),
        )
        .unwrap()
        .edges;
    for e in route {
        fleet.sim.schedule(
            SimTime::from_secs(5),
            son_netsim::sim::ScenarioEvent::FailUnderlayEdge(e),
        );
    }
    fleet.run(SimTime::from_secs(25));

    let sent = fleet.client_ref(tx).sent(1);
    let recv = fleet.client_ref(rx).sole_recv();
    let report = score(recv, sent, &profile, None);
    assert_eq!(
        report.delivered_frac, 1.0,
        "provider switch must be lossless to the app"
    );
    assert!(
        report.continuity_100ms > 0.99,
        "continuity {}",
        report.continuity_100ms
    );

    // At least one daemon actually switched providers.
    let switches: u64 = fleet.counter("provider_switches");
    assert!(switches > 0, "the cut must have forced a provider switch");
}

/// Live video across the planet: NM-Strikes under bursty loss on the
/// 20-city global overlay meets the paper's 200 ms live-TV bound.
#[test]
fn global_live_video_meets_200ms_bound() {
    let sc = global_20(DEFAULT_CONVERGENCE);
    let (topo, cities) = global_overlay(&sc);
    let bursts = son_netsim::loss::LossConfig::bursts(
        SimDuration::from_millis(990),
        SimDuration::from_millis(10),
    );
    let mut fleet = Fleet::new(72, None, OverlayBuilder::new(topo).default_loss(bursts));
    let lon = NodeId(cities.iter().position(|&c| c == sc.city("LON")).unwrap());
    let hkg = NodeId(cities.iter().position(|&c| c == sc.city("HKG")).unwrap());
    let rx = fleet.client(hkg, 80, vec![], vec![]);
    let dst = Destination::Unicast(OverlayAddr::new(hkg, 80));
    let workload = son_overlay::Workload::Cbr {
        size: 1316,
        interval: SimDuration::from_millis(3),
        count: 5000,
        start: SimTime::from_secs(1),
    };
    let spec = FlowSpec::live_video(SimDuration::from_millis(200));
    let tx = fleet.client(lon, 81, vec![], vec![ClientFlow::new(dst, spec, workload)]);
    fleet.run(SimTime::from_secs(25));
    let sent = fleet.client_ref(tx).sent(1);
    let recv = fleet.client_ref(rx).sole_recv();
    assert!(
        recv.received as f64 > 0.98 * sent as f64,
        "{}/{sent} delivered",
        recv.received
    );
    let max = recv.latency_ms().max().unwrap();
    assert!(max <= 200.5, "every delivery within the bound: {max}ms");
}

/// SCADA agreement on the continental overlay with a compromised overlay
/// node (not just a compromised replica): flooding carries the protocol
/// around the blackhole and the budget still holds.
#[test]
fn scada_agreement_survives_compromised_overlay_node() {
    use son_apps::scada::{
        agreement_spec, Device, FieldUnit, Replica, ReplicaConfig, ReplicaFault,
    };
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let config = son_overlay::NodeConfig {
        auth_enabled: true,
        ..Default::default()
    };
    let mut fleet = Fleet::new(73, None, OverlayBuilder::new(topo).node_config(config));

    // DAL's overlay node is compromised and blackholes transit data.
    fleet
        .node_mut(NodeId(6))
        .set_behavior(son_overlay::adversary::Behavior::Blackhole);

    let sites = [0usize, 5, 3, 8]; // NYC CHI ATL DEN
    for (i, &site) in sites.iter().enumerate() {
        fleet.sim.add_process(Replica::new(ReplicaConfig {
            daemon: fleet.overlay.daemon(NodeId(site)),
            port: 300 + i as u16,
            index: i as u16,
            n: 4,
            fault: ReplicaFault::None,
            spec: agreement_spec(),
        }));
    }
    let device = fleet
        .sim
        .add_process(Device::new(fleet.overlay.daemon(NodeId(11)), 400));
    let _unit = fleet.sim.add_process(FieldUnit::new(
        fleet.overlay.daemon(NodeId(4)),
        401,
        SimDuration::from_millis(100),
        30,
        agreement_spec(),
    ));
    fleet.run(SimTime::from_secs(10));
    let dev = fleet.sim.proc_ref::<Device>(device).unwrap();
    assert_eq!(
        dev.commands.len(),
        30,
        "agreement must route around the blackhole"
    );
    let max = dev.latency_ms.clone().max().unwrap();
    assert!(max <= 200.0, "SCADA budget: {max}ms");
}

/// The whole stack is deterministic: two runs of a multi-application
/// deployment produce byte-identical metrics.
#[test]
fn full_deployment_is_deterministic() {
    let run = || {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let (topo, cities) = continental_overlay(&sc);
        let builder = OverlayBuilder::new(topo)
            .place_in_cities(cities)
            .default_loss(son_netsim::loss::LossConfig::Bernoulli { p: 0.01 });
        let mut fleet = Fleet::new(1234, Some(sc.underlay), builder);
        let rx = fleet.client(NodeId(11), 80, vec![], vec![]);
        let dst = Destination::Unicast(OverlayAddr::new(NodeId(11), 80));
        let workload = son_overlay::Workload::Cbr {
            size: 700,
            interval: SimDuration::from_millis(10),
            count: 500,
            start: SimTime::from_millis(500),
        };
        let flow = ClientFlow::new(dst, FlowSpec::reliable(), workload);
        fleet.client(NodeId(0), 81, vec![], vec![flow]);
        fleet.run(SimTime::from_secs(15));
        let recv = fleet.client_ref(rx).sole_recv();
        (
            recv.received,
            recv.latencies_ms.clone(),
            fleet.sim.events_processed(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.0, 500);
}

/// §II-D: a cluster of parallel overlays splits the client population; both
/// instances carry their assigned flows independently. Each instance is its
/// own deployment of the topology in one simulation, with its own daemons,
/// pipes and key domain.
#[test]
fn parallel_overlays_share_the_load() {
    use son_overlay::builder::{chain_topology, MASTER_SECRET};
    use son_overlay::client::Workload;

    let topo = chain_topology(3, 10.0);
    let mut sim: Simulation<Wire> = Simulation::new(74);
    let cluster: Vec<_> = (0..2u64)
        .map(|i| {
            OverlayBuilder::new(topo.clone())
                .master_secret(MASTER_SECRET ^ (i << 32))
                .build(&mut sim)
        })
        .collect();

    // Eight senders, split across the instances by port.
    let mut rxs = Vec::new();
    for port in 0..8u16 {
        let shard = &cluster[usize::from(port % 2)];
        let rx = sim.add_process(ClientProcess::new(ClientConfig {
            daemon: shard.daemon(NodeId(2)),
            port: 70 + port,
            joins: vec![],
            flows: vec![],
        }));
        let _tx = sim.add_process(ClientProcess::new(ClientConfig {
            daemon: shard.daemon(NodeId(0)),
            port: 50 + port,
            joins: vec![],
            flows: vec![ClientFlow {
                local_flow: 1,
                dst: Destination::Unicast(OverlayAddr::new(NodeId(2), 70 + port)),
                spec: FlowSpec::reliable(),
                workload: Workload::Cbr {
                    size: 500,
                    interval: SimDuration::from_millis(10),
                    count: 100,
                    start: SimTime::from_millis(500),
                },
            }],
        }));
        rxs.push(rx);
    }
    sim.run_until(SimTime::from_secs(5));
    for rx in rxs {
        let got: u64 = sim
            .proc_ref::<ClientProcess>(rx)
            .unwrap()
            .recv
            .values()
            .map(|r| r.received)
            .sum();
        assert_eq!(got, 100);
    }
    // Both shards actually carried traffic (the hash split the population).
    let carried: Vec<u64> = cluster
        .iter()
        .map(|s| {
            s.daemons
                .iter()
                .filter_map(|&d| {
                    let node = sim.proc_ref::<OverlayNode>(d).unwrap();
                    node.obs().counter("node.forwarded")
                })
                .sum()
        })
        .collect();
    assert!(
        carried.iter().all(|&c| c > 0),
        "both shards must serve flows: {carried:?}"
    );
}

/// A geographically correlated failure (regional blast) takes out every
/// fiber near Denver across all providers; the overlay routes around the
/// region while BGP is still converging.
#[test]
fn regional_failure_is_routed_around() {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    let builder = OverlayBuilder::new(topo).place_in_cities(cities.clone());
    let mut fleet = Fleet::new(75, Some(sc.underlay.clone()), builder);
    let nyc = NodeId(cities.iter().position(|&c| c == sc.city("NYC")).unwrap());
    let sf = NodeId(cities.iter().position(|&c| c == sc.city("SF")).unwrap());

    let rx = fleet.client(sf, 80, vec![], vec![]);
    let dst = Destination::Unicast(OverlayAddr::new(sf, 80));
    let workload = son_overlay::Workload::Cbr {
        size: 500,
        interval: SimDuration::from_millis(10),
        count: u64::MAX,
        start: SimTime::from_millis(500),
    };
    let flow = ClientFlow::new(dst, FlowSpec::best_effort(), workload);
    fleet.client(nyc, 81, vec![], vec![flow]);
    // Blast everything within 700km of Denver at t=5s.
    let den = sc.city("DEN");
    let victims = fleet.sim.underlay().unwrap().edges_near(den, 700.0);
    assert!(
        victims.len() >= 4,
        "the blast zone must cover several fibers"
    );
    for e in victims {
        fleet.sim.schedule(
            SimTime::from_secs(5),
            son_netsim::sim::ScenarioEvent::FailUnderlayEdge(e),
        );
    }
    fleet.run(SimTime::from_secs(15));
    let recv = fleet.client_ref(rx).sole_recv();
    let gap = recv
        .arrivals
        .windows(2)
        .filter(|w| w[1].0 > SimTime::from_secs(5))
        .map(|w| w[1].0.saturating_since(w[0].0))
        .max()
        .unwrap();
    assert!(
        gap < SimDuration::from_millis(1500),
        "the overlay must route around the region quickly, gap {gap}"
    );
    let last = recv.arrivals.last().unwrap().0;
    assert!(
        last > SimTime::from_millis(14_800),
        "still flowing at the end"
    );
}

/// A variable-bitrate GOP stream (big I-frame bursts every half second)
/// survives bursty loss end to end under hop-by-hop recovery, and the
/// trace-driven workload delivers exactly the scheduled bytes.
#[test]
fn vbr_video_stream_over_lossy_overlay() {
    use son_apps::video::GopProfile;
    use son_overlay::builder::chain_topology;

    let profile = GopProfile::standard();
    let schedule = profile.schedule(SimTime::from_secs(1), SimDuration::from_secs(10));
    let expected_packets = schedule.len() as u64;
    let bursts = son_netsim::loss::LossConfig::bursts(
        SimDuration::from_millis(990),
        SimDuration::from_millis(10),
    );
    let builder = OverlayBuilder::new(chain_topology(4, 10.0)).default_loss(bursts);
    let mut fleet = Fleet::new(76, None, builder);
    let rx = fleet.client(NodeId(3), 80, vec![], vec![]);
    let dst = Destination::Unicast(OverlayAddr::new(NodeId(3), 80));
    let workload = son_overlay::Workload::Trace {
        schedule: std::sync::Arc::new(schedule),
    };
    let flow = ClientFlow::new(dst, FlowSpec::reliable(), workload);
    let tx = fleet.client(NodeId(0), 81, vec![], vec![flow]);
    fleet.run(SimTime::from_secs(20));
    let sent = fleet.client_ref(tx).sent(1);
    assert_eq!(
        sent, expected_packets,
        "the trace drives exactly its schedule"
    );
    let recv = fleet.client_ref(rx).sole_recv();
    assert_eq!(
        recv.received, sent,
        "hop-by-hop recovery absorbs the bursts"
    );
    assert_eq!(recv.out_of_order, 0);
}
