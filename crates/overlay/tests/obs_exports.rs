//! What a daemon's observability exports read, pinned byte for byte: the
//! registry rows of one `NodeObs`, its telemetry datagram, and the rows of
//! two daemons' registries absorbed into one view. Any change to how the
//! registry stores instruments must leave all three as they are.

use son_netsim::time::{SimDuration, SimTime};
use son_obs::snapshot::NodeHealth;
use son_obs::{registry_rows, DropClass, Json, LatencyHistogram, Registry, SnapshotProducer};
use son_obs::{TelemetrySnapshot, WatchKind};
use son_overlay::linkproto::LinkEvent;
use son_overlay::{Destination, FlowKey, NodeObs, OverlayAddr};
use son_topo::NodeId;

/// A daemon's observability after a little of everything: node-labelled
/// counters (fixed and ad hoc), proto-labelled link counters and a
/// recovery histogram, flow-labelled counters, a `watch.*` counter, and a
/// delivery histogram that records only when `deliver` is set.
fn node_obs(id: usize, deliver: bool) -> NodeObs {
    let mut obs = NodeObs::new(NodeId(id));
    obs.forwarded();
    obs.forwarded();
    obs.drop(DropClass::Ttl);
    obs.drop(DropClass::Expired);
    obs.named("reroutes");
    obs.link_event("reliable", LinkEvent::Retransmit);
    obs.link_event("realtime", LinkEvent::Drop(DropClass::Expired));
    obs.link_event(
        "reliable",
        LinkEvent::Recovered {
            after: SimDuration::from_millis(3),
        },
    );
    let flow = FlowKey::new(
        OverlayAddr::new(NodeId(id), 50),
        Destination::Unicast(OverlayAddr::new(NodeId(9), 70)),
    );
    let handles = obs.flow_counters(&flow);
    obs.inc(handles.sent);
    obs.inc(handles.forwarded);
    obs.watch_event(SimTime::from_millis(5), WatchKind::LinkReadmitted, Some(1));
    if deliver {
        obs.delivered_local(2_500_000);
    }
    obs
}

fn rows(registry: &Registry) -> String {
    let rows = registry_rows(registry);
    rows.iter().map(|r| r.to_json() + "\n").collect()
}

const NODE_ROWS: &str = r#"{"kind":"counter","name":"obs.trace_overflow","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"node.forwarded","labels":{"node":"1"},"value":2}
{"kind":"counter","name":"node.delivered_local","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"node.adversary_injected","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.ttl","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"drop.auth","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.dedup_duplicate","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.unroutable","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.adversary","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.expired","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"reroutes","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"link.retransmit","labels":{"node":"1","proto":"reliable"},"value":1}
{"kind":"counter","name":"drop.expired","labels":{"node":"1","proto":"realtime"},"value":1}
{"kind":"counter","name":"flow.sent","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":1}
{"kind":"counter","name":"flow.delivered","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":0}
{"kind":"counter","name":"flow.forwarded","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":1}
{"kind":"counter","name":"flow.dropped","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":0}
{"kind":"counter","name":"watch.link_readmitted","labels":{"node":"1"},"value":1}
{"kind":"hist","name":"node.delivery_latency_ns","labels":{"node":"1"},"count":1,"p50_ms":2.5,"p90_ms":2.5,"p99_ms":2.5,"max_ms":2.5,"mean_ms":2.5}
{"kind":"hist","name":"link.recovery_ns","labels":{"node":"1","proto":"reliable"},"count":1,"p50_ms":3,"p90_ms":3,"p99_ms":3,"max_ms":3,"mean_ms":3}
"#;

const NODE_DATAGRAM: &str = concat!(
    r#"{"kind":"telemetry","v":1,"node":1,"seq":0,"restarts":0,"at_ns":500000000,"wall_ns":7,"#,
    r#""uptime_ns":0,"queue_depth":3,"flows":1,"footprint_bytes":4096,"links":[],"counters":["#,
    r#"{"key":"obs.trace_overflow{node=1}","total":0,"delta":0},"#,
    r#"{"key":"node.forwarded{node=1}","total":2,"delta":2},"#,
    r#"{"key":"node.delivered_local{node=1}","total":1,"delta":1},"#,
    r#"{"key":"node.adversary_injected{node=1}","total":0,"delta":0},"#,
    r#"{"key":"drop.ttl{node=1}","total":1,"delta":1},"#,
    r#"{"key":"drop.auth{node=1}","total":0,"delta":0},"#,
    r#"{"key":"drop.dedup_duplicate{node=1}","total":0,"delta":0},"#,
    r#"{"key":"drop.unroutable{node=1}","total":0,"delta":0},"#,
    r#"{"key":"drop.adversary{node=1}","total":0,"delta":0},"#,
    r#"{"key":"drop.expired{node=1}","total":1,"delta":1},"#,
    r#"{"key":"reroutes{node=1}","total":1,"delta":1},"#,
    r#"{"key":"link.retransmit{node=1,proto=reliable}","total":1,"delta":1},"#,
    r#"{"key":"drop.expired{node=1,proto=realtime}","total":1,"delta":1},"#,
    r#"{"key":"flow.sent{node=1,flow=2e68a1e0da3b89b8}","total":1,"delta":1},"#,
    r#"{"key":"flow.delivered{node=1,flow=2e68a1e0da3b89b8}","total":0,"delta":0},"#,
    r#"{"key":"flow.forwarded{node=1,flow=2e68a1e0da3b89b8}","total":1,"delta":1},"#,
    r#"{"key":"flow.dropped{node=1,flow=2e68a1e0da3b89b8}","total":0,"delta":0},"#,
    r#"{"key":"watch.link_readmitted{node=1}","total":1,"delta":1}],"hists":["#,
    r#"{"key":"node.delivery_latency_ns{node=1}","count":1,"sum_hi":0,"sum_lo":2500000,"#,
    r#""min":2500000,"max":2500000,"buckets":[[22,1]]},"#,
    r#"{"key":"link.recovery_ns{node=1,proto=reliable}","count":1,"sum_hi":0,"sum_lo":3000000,"#,
    r#""min":3000000,"max":3000000,"buckets":[[22,1]]}]}"#,
);

const ABSORBED_ROWS: &str = r#"{"kind":"counter","name":"obs.trace_overflow","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"node.forwarded","labels":{"node":"1"},"value":2}
{"kind":"counter","name":"node.delivered_local","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"node.adversary_injected","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.ttl","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"drop.auth","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.dedup_duplicate","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.unroutable","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.adversary","labels":{"node":"1"},"value":0}
{"kind":"counter","name":"drop.expired","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"reroutes","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"link.retransmit","labels":{"node":"1","proto":"reliable"},"value":1}
{"kind":"counter","name":"drop.expired","labels":{"node":"1","proto":"realtime"},"value":1}
{"kind":"counter","name":"flow.sent","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":1}
{"kind":"counter","name":"flow.delivered","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":0}
{"kind":"counter","name":"flow.forwarded","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":1}
{"kind":"counter","name":"flow.dropped","labels":{"node":"1","flow":"2e68a1e0da3b89b8"},"value":0}
{"kind":"counter","name":"watch.link_readmitted","labels":{"node":"1"},"value":1}
{"kind":"counter","name":"obs.trace_overflow","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"node.forwarded","labels":{"node":"2"},"value":2}
{"kind":"counter","name":"node.delivered_local","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"node.adversary_injected","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"drop.ttl","labels":{"node":"2"},"value":1}
{"kind":"counter","name":"drop.auth","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"drop.dedup_duplicate","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"drop.unroutable","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"drop.adversary","labels":{"node":"2"},"value":0}
{"kind":"counter","name":"drop.expired","labels":{"node":"2"},"value":1}
{"kind":"counter","name":"reroutes","labels":{"node":"2"},"value":1}
{"kind":"counter","name":"link.retransmit","labels":{"node":"2","proto":"reliable"},"value":1}
{"kind":"counter","name":"drop.expired","labels":{"node":"2","proto":"realtime"},"value":1}
{"kind":"counter","name":"flow.sent","labels":{"node":"2","flow":"179e9f8b3b7dfc1b"},"value":1}
{"kind":"counter","name":"flow.delivered","labels":{"node":"2","flow":"179e9f8b3b7dfc1b"},"value":0}
{"kind":"counter","name":"flow.forwarded","labels":{"node":"2","flow":"179e9f8b3b7dfc1b"},"value":1}
{"kind":"counter","name":"flow.dropped","labels":{"node":"2","flow":"179e9f8b3b7dfc1b"},"value":0}
{"kind":"counter","name":"watch.link_readmitted","labels":{"node":"2"},"value":1}
{"kind":"hist","name":"node.delivery_latency_ns","labels":{"node":"1"},"count":1,"p50_ms":2.5,"p90_ms":2.5,"p99_ms":2.5,"max_ms":2.5,"mean_ms":2.5}
{"kind":"hist","name":"link.recovery_ns","labels":{"node":"1","proto":"reliable"},"count":1,"p50_ms":3,"p90_ms":3,"p99_ms":3,"max_ms":3,"mean_ms":3}
{"kind":"hist","name":"node.delivery_latency_ns","labels":{"node":"2"},"count":0,"p50_ms":0,"p90_ms":0,"p99_ms":0,"max_ms":0,"mean_ms":0}
{"kind":"hist","name":"link.recovery_ns","labels":{"node":"2","proto":"reliable"},"count":1,"p50_ms":3,"p90_ms":3,"p99_ms":3,"max_ms":3,"mean_ms":3}
"#;

#[test]
fn registry_rows_datagram_and_absorbed_view_are_pinned() {
    let one = node_obs(1, true);
    let two = node_obs(2, false);
    let node_rows = rows(one.registry());

    let health = NodeHealth {
        queue_depth: 3,
        links: Vec::new(),
        flows: 1,
        footprint_bytes: 4_096,
    };
    let snap = SnapshotProducer::new(1).produce(500_000_000, 7, one.registry(), &health);
    let datagram = snap.encode().expect("one datagram");
    assert_eq!(TelemetrySnapshot::decode(&datagram), Ok(snap));

    let mut view = Registry::new();
    view.absorb(one.registry());
    view.absorb(two.registry());
    let absorbed = rows(&view);

    assert_eq!(node_rows, NODE_ROWS);
    assert_eq!(String::from_utf8(datagram).unwrap(), NODE_DATAGRAM);
    assert_eq!(absorbed, ABSORBED_ROWS);
}

/// A histogram that never recorded is the one a snapshot decodes for an
/// empty histogram, and the one a fresh `LatencyHistogram` is.
#[test]
fn a_never_recorded_histogram_equals_a_decoded_empty_one() {
    let two = node_obs(2, false);
    let never = two
        .registry()
        .hist_named("node.delivery_latency_ns", &[("node", "2")])
        .expect("registered at construction");
    assert!(never.is_empty());
    let row = concat!(
        r#"{"kind":"telemetry","v":1,"node":2,"seq":0,"restarts":0,"at_ns":0,"wall_ns":0,"#,
        r#""uptime_ns":0,"queue_depth":0,"flows":0,"footprint_bytes":0,"links":[],"#,
        r#""counters":[],"hists":[{"key":"node.delivery_latency_ns{node=2}","count":0,"#,
        r#""sum_hi":0,"sum_lo":0,"min":18446744073709551615,"max":0,"buckets":[]}]}"#,
    );
    let decoded = TelemetrySnapshot::decode(row.as_bytes()).expect("a telemetry row");
    assert_eq!(&decoded.hists[0].hist, never);
    assert_eq!(decoded.hists[0].hist, LatencyHistogram::new());
    assert_eq!(
        Json::parse(&decoded.row_json()).unwrap().to_json(),
        Json::parse(row).unwrap().to_json()
    );
}
