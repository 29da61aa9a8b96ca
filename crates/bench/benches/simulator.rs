//! Simulator throughput: event-queue operations and whole-deployment
//! event processing rate (how much virtual traffic a host can push).

use criterion::{criterion_group, criterion_main, Criterion};
use son_bench::Fleet;
use son_netsim::event::EventQueue;
use son_netsim::link::PipeId;
use son_netsim::process::ProcessId;
use son_netsim::rng::SimRng;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::addr::FlowKey;
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::packet::DataPacket;
use son_overlay::{Destination, FlowSpec, OverlayAddr, Wire};
use son_topo::NodeId;

fn data_packet(flow_seq: u64) -> DataPacket {
    DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(0), 50),
            Destination::Unicast(OverlayAddr::new(NodeId(9), 70)),
        ),
        flow_seq,
        origin: NodeId(0),
        spec: FlowSpec::best_effort(),
        mask: None,
        resolved_dst: None,
        link_seq: 0,
        created_at: SimTime::ZERO,
        size: 1000,
        payload: bytes::Bytes::new(),
        ttl: 32,
        auth_tag: 0,
        trace: None,
    }
}

fn bench_simulator(c: &mut Criterion) {
    // Hold model at the depth of the benchmark's `hold_ns.d4096` probes: pop
    // the earliest event, reschedule it a random step later. Unlike those
    // probes the payload is the size of the simulator's private
    // `Event::Deliver`, so a queue that sifts payloads shows it here.
    c.bench_function("event_queue_schedule_pop", |b| {
        const DEPTH: usize = 4096;
        type Deliver = (ProcessId, ProcessId, Option<PipeId>, Wire);
        let mut rng = SimRng::seed(1);
        let steps: Vec<u64> = (0..DEPTH).map(|_| rng.uniform_u64(1, 2_000_000)).collect();
        let mut q: EventQueue<Deliver> = EventQueue::new();
        for (i, &s) in steps.iter().enumerate() {
            let msg = Wire::Data(data_packet(i as u64));
            let event = (ProcessId(i % 12), ProcessId(0), Some(PipeId(i)), msg);
            q.schedule(SimTime::from_nanos(s), event);
        }
        let mut i = 0;
        b.iter(|| {
            let (at, event) = q.pop().expect("steady depth");
            i = (i + 1) % DEPTH;
            q.schedule(at + SimDuration::from_nanos(steps[i]), event);
        })
    });

    c.bench_function("overlay_5hop_reliable_1s_stream", |b| {
        b.iter(|| {
            let mut fleet = Fleet::new(1, None, OverlayBuilder::new(chain_topology(6, 10.0)));
            fleet.flow(
                NodeId(0),
                NodeId(5),
                FlowSpec::reliable(),
                Workload::Cbr {
                    size: 1316,
                    interval: SimDuration::from_millis(10),
                    count: 100,
                    start: SimTime::from_millis(100),
                },
            );
            fleet.run(SimTime::from_secs(2));
            std::hint::black_box(fleet.sim.events_processed())
        })
    });
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
