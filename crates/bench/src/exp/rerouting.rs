//! E3 — Figure 1 / §II-A: sub-second overlay rerouting vs BGP convergence,
//! and multihoming across ISP backbones.
//!
//! "This is in contrast to the 40 seconds to minutes that BGP may take to
//! converge during some network faults." A CBR flow crosses the continental
//! US while we kill fiber links out from under it, and we measure the outage
//! the application actually sees:
//!
//! * **Internet baseline** — a direct NYC→LA path on one provider; the flow
//!   is blackholed until BGP reconverges (40 s).
//! * **Overlay, one ISP fails under a link** — the multihomed overlay link
//!   switches provider after a couple of missed hellos (no reroute needed).
//! * **Overlay, a whole link dies** — every provider pipe of one overlay
//!   link is cut; link-state flooding reroutes around it.

use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::ScenarioEvent;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::{registry_rows, TelemetrySnapshot, TraceEvent};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::fleet::{edge_pipes, Fleet};
use son_overlay::FlowSpec;
use son_topo::NodeId;

use super::Opts;
use crate::{export_rows, f, finish_export, obs_sink, row, table_header};

const FAIL_AT: SimTime = SimTime::from_secs(5);
const RUN_FOR: SimTime = SimTime::from_secs(60);

/// The outage the application saw: the longest inter-arrival gap after the
/// failure instant, and whether traffic was flowing at the end.
fn outage(recv: &son_overlay::client::FlowRecv) -> (SimDuration, bool) {
    let gap = recv.longest_gap(FAIL_AT).unwrap_or(SimDuration::MAX);
    let flowing = recv
        .arrivals
        .last()
        .is_some_and(|&(t, _)| t > RUN_FOR - SimDuration::from_millis(500));
    (gap, flowing)
}

fn cbr_forever() -> Workload {
    Workload::cbr(1000, u64::MAX, SimDuration::from_millis(10))
}

pub fn run(_: &Opts) {
    table_header(&[
        ("configuration", 34),
        ("failure", 26),
        ("outage seen", 12),
        ("recovered", 10),
    ]);

    let mut sink = obs_sink("exp_rerouting");
    let mut trace_sink = obs_sink("exp_rerouting.trace");
    let mut telemetry_sink = obs_sink("exp_rerouting.telemetry");

    // ---- Internet baseline: one "overlay" link NYC->LA on one ISP. -------
    {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let mut topo = son_topo::Graph::new(2);
        let link = topo.add_edge(NodeId(0), NodeId(1), 40.0);
        // Pin the endpoints to NYC and LA; the builder binds one pipe pair
        // per shared provider, but we disable all but the first so the flow
        // rides exactly one provider, like a normal Internet path.
        let mut fleet = Fleet::new(
            31,
            Some(sc.underlay.clone()),
            OverlayBuilder::new(topo).place_in_cities(vec![sc.city("NYC"), sc.city("LA")]),
        );
        let pipes = edge_pipes(&fleet.overlay, link);
        fleet.pipe_outage(&pipes[2..], SimTime::ZERO, SimDuration::MAX);
        fleet.flow(NodeId(0), NodeId(1), FlowSpec::best_effort(), cbr_forever());
        // Fail every fiber on the first ISP's current NYC->LA route.
        let isp = sc.isps[0];
        let route = {
            let mut ul = sc.underlay.clone();
            ul.resolve(
                SimTime::ZERO,
                son_netsim::underlay::Attachment::OnNet(isp),
                sc.city("NYC"),
                sc.city("LA"),
            )
            .expect("route exists")
            .edges
        };
        // Cutting one edge of the route is enough to blackhole it.
        fleet
            .sim
            .schedule(FAIL_AT, ScenarioEvent::FailUnderlayEdge(route[0]));
        fleet.run(RUN_FOR);
        if let Some(sink) = &mut sink {
            let rows = registry_rows(&fleet.registry());
            let _ = export_rows(sink, "internet_baseline", rows);
        }
        let (gap, flowing) = outage(fleet.recv(0));
        row(&[
            ("Internet path (1 ISP, no overlay)".into(), 34),
            ("fiber cut on the route".into(), 26),
            (f(gap.as_secs_f64(), 2) + "s", 12),
            (if flowing { "yes" } else { "NO" }.to_string(), 10),
        ]);
    }

    // ---- Overlay on the 12-city topology. ---------------------------------
    // Flow NYC -> LA across the overlay; the victim link is the first hop of
    // the flow's current overlay route, so the failure definitely bites.
    let scenarios: [(&str, &str, bool); 2] = [
        ("overlay 1st-hop link, 1 ISP", "provider switch", false),
        ("overlay 1st-hop link, all ISPs", "link-state reroute", true),
    ];
    for (what, how, kill_all) in scenarios {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let (topo, cities) = continental_overlay(&sc);
        let nyc = NodeId(cities.iter().position(|&c| c == sc.city("NYC")).unwrap());
        let la = NodeId(cities.iter().position(|&c| c == sc.city("LA")).unwrap());
        // Sample 1-in-16 packets for tracing so the exported trace records
        // the reroute markers and the rerouted packets' new paths.
        let node_config = son_overlay::NodeConfig {
            trace_sample: 16,
            ..son_overlay::NodeConfig::default()
        };
        let mut fleet = Fleet::new(
            32,
            Some(sc.underlay.clone()),
            OverlayBuilder::new(topo.clone())
                .place_in_cities(cities.clone())
                .node_config(node_config),
        );
        fleet.flow(nyc, la, FlowSpec::best_effort(), cbr_forever());
        // Cut the first-hop overlay link of the NYC->LA route: one
        // provider's pipe pair, or all of them.
        let edge = son_topo::shortest_path(&topo, nyc, la)
            .expect("route")
            .edges[0];
        let pipes = edge_pipes(&fleet.overlay, edge);
        let victims = if kill_all { &pipes[..] } else { &pipes[..2] };
        fleet.pipe_outage(victims, FAIL_AT, SimDuration::MAX);
        let mut telemetry = Vec::new();
        fleet.run_with_telemetry(RUN_FOR, |snap| telemetry.push(snap));
        if let Some(sink) = &mut sink {
            let _ = export_rows(sink, what, registry_rows(&fleet.registry()));
        }
        if let Some(sink) = &mut trace_sink {
            let _ = export_rows(sink, what, fleet.traces().iter().map(TraceEvent::row));
        }
        if let Some(sink) = &mut telemetry_sink {
            let _ = export_rows(sink, what, telemetry.iter().map(TelemetrySnapshot::row));
        }
        let (gap, flowing) = outage(fleet.recv(0));
        // Count provider switches / reroutes across daemons for the record.
        let switches = fleet.counter("provider_switches");
        let reroutes = fleet.reroutes();
        row(&[
            (
                format!("{what} [{switches} switches, {reroutes} reroutes]"),
                34,
            ),
            (how.to_string(), 26),
            (f(gap.as_secs_f64() * 1000.0, 0) + "ms", 12),
            (if flowing { "yes" } else { "NO" }.to_string(), 10),
        ]);
    }

    for s in [sink, trace_sink, telemetry_sink].into_iter().flatten() {
        finish_export(s);
    }
    println!();
    println!("Shape check (paper): the native Internet path blackholes for ~the BGP");
    println!("convergence time (40s); the overlay masks a single-provider fault by");
    println!("switching ISPs under the link in a few hello intervals, and survives a");
    println!("full overlay-link failure by rerouting at the overlay level — both at");
    println!("sub-second scale, while the flow keeps running.");
}
