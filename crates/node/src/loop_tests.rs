//! Run-loop tests: the event-driven wait, over the in-memory vnet (a
//! deterministic transport under the wall clock) and over a tap on it that
//! fails sends.

use son_obs::trace::TraceStage;
use son_overlay::builder::HOP_PROCESSING;
use son_overlay::node::CLIENT_IPC_DELAY;
use son_overlay::packet::Control;

use super::tests::{
    chain_mesh, dgram, exclusive, lone_driver, loopback_scenario, run_cluster, totals,
};
use super::*;

/// A vnet endpoint that counts sends and fails every `fail_every`-th one
/// the way a socket does: with an error, the frame gone.
struct Tap {
    inner: VnetTransport,
    fail_every: u64,
    sends: u64,
    failed_data: u64,
    /// The bytes of every datagram sent, less its framing.
    frame_bytes: u64,
}

impl Tap {
    fn chain(nodes: usize, fail_every: u64) -> Vec<Tap> {
        chain_mesh(nodes)
            .into_iter()
            .map(|inner| Tap {
                inner,
                fail_every,
                sends: 0,
                failed_data: 0,
                frame_bytes: 0,
            })
            .collect()
    }
}

fn decode_dgram(dgram: &[u8]) -> Wire {
    son_overlay::wire::decode(&dgram[FRAMING_BYTES..]).expect("daemons emit well-formed frames")
}

impl Transport for Tap {
    fn send_to(&mut self, peer: usize, frame: &[u8]) -> io::Result<()> {
        self.sends += 1;
        if self.fail_every > 0 && self.sends.is_multiple_of(self.fail_every) {
            self.failed_data += u64::from(matches!(decode_dgram(frame), Wire::Data(_)));
            return Err(io::Error::other("message too long"));
        }
        self.frame_bytes += (frame.len() - FRAMING_BYTES) as u64;
        self.inner.send_to(peer, frame)
    }

    fn recv_from(&mut self) -> io::Result<Option<(usize, Vec<u8>)>> {
        self.inner.recv_from()
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        self.inner.wait_readable(timeout)
    }
}

/// An idle chain sleeps from one hello tick to the next: a daemon waits a
/// few times per 100 ms tick (the tick, its hellos' link latency, the
/// neighbours' hellos and acks — ≈ 22 times in all here), not once per
/// 200 µs.
#[test]
fn idle_chain_waits_per_timer_not_per_poll_interval() {
    let mut scenario = loopback_scenario();
    scenario.run_for_ms = 500; // ends before the flow starts
    let runtimes = run_cluster(&scenario, chain_mesh(scenario.nodes), |_| {});
    for rt in &runtimes {
        let c = rt.counters();
        let waits = c.get("loop.wait");
        assert!(
            (5..=100).contains(&waits),
            "node {} waited {waits} times in 500 ms (polling made ≈2,500)",
            rt.me
        );
        assert_eq!(
            c.get("loop.wake_readable") + c.get("loop.wake_deadline"),
            waits
        );
        assert!(c.get("loop.wake_readable") > 0 && c.get("loop.wake_deadline") > 0);
    }
}

/// Link latency and the client IPC delay are lower bounds: no frame is
/// dispatched at the receiving daemon before the sender's `now` plus the
/// link's latency, and no local message before the sender's `now` plus its
/// delay. Every packet is traced, so each of its two link crossings is
/// checked where the latency is served — the sender's `Transmit` against
/// the receiver's dispatch (`Transmit` at node 1, `Deliver` at node 2) —
/// and its hand-off to the receiving client against that client's `now`.
#[test]
fn nothing_fires_before_its_due_time() {
    let mut scenario = loopback_scenario();
    scenario.trace_sample = 1;
    let runtimes = run_cluster(&scenario, chain_mesh(scenario.nodes), |_| {});
    let (_, received) = totals(&runtimes);
    assert_eq!(received, scenario.count);

    let latency_ns = (SimDuration::from_millis_f64(scenario.hop_ms) + HOP_PROCESSING).as_nanos();
    let ipc_ns = CLIENT_IPC_DELAY.as_nanos();
    let recv = runtimes[2].clients()[0].recv.values().next().unwrap();
    let stage_at = |node: usize, seq: u64, want: fn(&TraceStage) -> bool| {
        let at = runtimes[node]
            .node()
            .obs()
            .traces()
            .events()
            .find(|e| !e.is_marker() && e.packet.seq == seq && want(&e.stage))
            .map(|e| e.at_ns);
        at.unwrap_or_else(|| panic!("packet {seq} left no such event at node {node}"))
    };
    for &(arrived, seq) in &recv.arrivals {
        let hops = [
            stage_at(0, seq, |s| matches!(s, TraceStage::Transmit)),
            stage_at(1, seq, |s| matches!(s, TraceStage::Transmit)),
            stage_at(2, seq, |s| matches!(s, TraceStage::Deliver)),
        ];
        for (node, link) in hops.windows(2).enumerate() {
            assert!(
                link[1] >= link[0] + latency_ns,
                "node {} dispatched packet {seq} {} ns before its link latency was up",
                node + 1,
                link[0] + latency_ns - link[1]
            );
        }
        assert!(arrived.as_nanos() >= hops[2] + ipc_ns);
    }
    // At 100 pps each packet finds node 1 idle, with no deadline within a
    // link's latency: the loop watches the socket and wakes on its arrival.
    let readable = runtimes[1].counters().get("loop.wake_readable");
    assert!(readable >= scenario.count, "{readable} readable wakes");
}

/// A steady flow whose packets come closer together than a link's latency
/// keeps every daemon's next deadline within that latency, so the loops
/// sleep to their deadlines without watching the socket: a packet costs the
/// client timer, two client IPCs and two link holds — 5 waits over the
/// three daemons, where waking on every readable socket made 7 — and node 1,
/// which only holds and forwards, wakes on a readable socket a handful of
/// times (hellos before the flow starts and after it ends).
#[test]
fn steady_flow_sleeps_without_readable_wakes() {
    let mut scenario = loopback_scenario();
    (scenario.interval_us, scenario.count) = (1_000, 400);
    // Ends soon after the flow, so idle hello ticks weigh little.
    scenario.run_for_ms = scenario.start_ms + 450;
    let runtimes = run_cluster(&scenario, chain_mesh(scenario.nodes), |_| {});
    let (_, received) = totals(&runtimes);
    assert_eq!(received, scenario.count);

    let waits: u64 = runtimes
        .iter()
        .map(|rt| rt.counters().get("loop.wait"))
        .sum();
    let per_packet = waits as f64 / received as f64;
    assert!(per_packet <= 5.5, "{per_packet:.2} waits per packet");
    let readable = runtimes[1].counters().get("loop.wake_readable");
    assert!(
        readable <= 20,
        "node 1 woke {readable} times on a readable socket"
    );
}

/// A send the transport refuses is that frame's loss: counted, labelled as
/// data loss when it was data, and the daemon carries on — the flow's other
/// packets still arrive and every daemon reaches its horizon.
///
/// Every third send fails. With every second one the failures alias with
/// the hello schedule, whose sends per tick come in even counts: the same
/// hello or ack of a link fails every tick, the link goes down and no data
/// is sent at all.
#[test]
fn failed_sends_are_counted_loss_not_a_dead_daemon() {
    const FAIL_EVERY: u64 = 3;
    let scenario = loopback_scenario();
    let runtimes = run_cluster(&scenario, Tap::chain(scenario.nodes, FAIL_EVERY), |_| {});
    let (sent, received) = totals(&runtimes);
    assert_eq!(sent, scenario.count);
    assert!(
        received > 0 && received < sent,
        "{received} of {sent} arrived with every third send failing"
    );
    for rt in &runtimes {
        let (c, tap) = (rt.counters(), &rt.driver.transport);
        assert!(tap.sends >= 2, "node {} sent hellos at least", rt.me);
        assert_eq!(c.get("transport.send_error"), tap.sends / FAIL_EVERY);
        assert_eq!(c.get(DropClass::NoRoute.label()), tap.sends / FAIL_EVERY);
        assert_eq!(c.get(DropClass::NoRoute.data_label()), tap.failed_data);
    }
    assert!(runtimes[0].driver.transport.failed_data > 0);
}

/// `pipe.bytes` is what the daemon put on its links: the datagrams it
/// sent, less their framing — hellos, LSAs and data frames, each at its
/// encoded length rather than the simulator's charge for it.
#[test]
fn pipe_bytes_are_the_frames_the_daemon_sent() {
    let mut scenario = loopback_scenario();
    scenario.run_for_ms = scenario.start_ms + 100;
    let runtimes = run_cluster(&scenario, Tap::chain(scenario.nodes, 0), |_| {});
    for rt in &runtimes {
        let bytes = rt.counters().get("pipe.bytes");
        assert_eq!(bytes, rt.driver.transport.frame_bytes, "node {}", rt.me);
    }
    assert!(runtimes[0].counters().get("data.pipe.sent") > 0);
    assert!(runtimes[1].counters().get("data.pipe.sent") > 0);
}

/// A datagram that arrives while the loop is blocked toward a far deadline
/// wakes it: a hello sent to a lone daemon halfway between two of its
/// 100 ms ticks is answered one link latency later, not at the next tick.
/// (Three probes, the best one judged: the shared host now and then stalls
/// a thread for tens of milliseconds.)
#[test]
fn datagram_arriving_mid_wait_is_dispatched_before_the_armed_deadline() {
    let _alone = exclusive();
    let mut scenario = loopback_scenario();
    scenario.run_for_ms = 500;
    let mut nets = chain_mesh(scenario.nodes);
    let _silent = nets.pop().expect("node 2");
    let daemon_net = nets.pop().expect("node 1");
    let mut prober = nets.pop().expect("node 0");
    let epoch = unix_now_ns() + 20_000_000;
    let link_ms = scenario.hop_ms + HOP_PROCESSING.as_millis_f64();
    let daemon = std::thread::spawn(move || {
        let mut rt = NodeRuntime::new(scenario, NodeId(1), daemon_net, epoch);
        rt.run().expect("vnet never fails");
        rt
    });

    let rtts_ms: Vec<f64> = (0..3u64)
        .map(|probe| {
            // 50 ms after one tick and 50 ms before the next, with nothing
            // else scheduled in between.
            let at = epoch + (150 + 100 * probe) * 1_000_000;
            std::thread::sleep(Duration::from_nanos(at.saturating_sub(unix_now_ns())));
            let probe_seq = 0xABCD + probe;
            let hello = Control::Hello {
                seq: probe_seq,
                sent_at: SimTime::ZERO,
            };
            let probed = unix_now_ns();
            prober
                .send_to(1, &dgram(&Wire::Control(hello)))
                .expect("vnet send");
            loop {
                assert!(
                    prober.wait_readable(Duration::from_millis(200)).unwrap(),
                    "the daemon never answered probe {probe}"
                );
                let (_, dgram) = prober.recv_from().unwrap().expect("readable");
                if matches!(
                    decode_dgram(&dgram),
                    Wire::Control(Control::HelloAck { seq, .. }) if seq == probe_seq
                ) {
                    break (unix_now_ns() - probed) as f64 / 1e6;
                }
            }
        })
        .collect();
    let best_ms = rtts_ms.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        best_ms >= link_ms && best_ms < link_ms + 20.0,
        "answers after {rtts_ms:?} ms over a {link_ms:.2} ms link; the armed tick was 50 ms away"
    );
    let rt = daemon.join().unwrap();
    assert!(rt.counters().get("loop.wake_readable") >= 3);
}

/// Cancelling never leaves the queue more than half dead (above its floor
/// of 64 tombstones), and the loop does not sleep toward a cancelled timer:
/// after 100 k set + cancel pairs the heap is bounded and the next deadline
/// is the one live timer's.
#[test]
fn cancelled_timers_neither_pile_up_nor_set_the_deadline() {
    let mut d = lone_driver();
    d.refresh_now();
    let now_ns = d.now.as_nanos();
    let far = SimDuration::from_secs(10);
    let live = d.set_timer(ProcessId(0), far, 1);
    for _ in 0..100_000 {
        let soon = d.set_timer(ProcessId(0), SimDuration::from_millis(1), 2);
        assert!(d.cancel_timer(ProcessId(0), soon));
        let stats = d.due.stats();
        assert!(stats.live + stats.tombstones <= 2 * 64 + 2, "{stats:?}");
    }
    assert_eq!(d.next_deadline_ns(), Some(now_ns + far.as_nanos()));
    let stats = d.due.stats();
    assert_eq!(
        (stats.live, stats.tombstones),
        (1, 0),
        "dead heads were popped"
    );
    assert!(d.pop_due(now_ns + 1_000_000_000).is_none());
    assert!(d.cancel_timer(ProcessId(0), live));
    assert_eq!(d.next_deadline_ns(), None);
}

/// A receive that stops at its skip budget is not an empty socket: the pass
/// says the transport did not run empty (so the run loop waits on the
/// socket, which returns at once, instead of sleeping to its next deadline
/// with a peer's frame queued behind the noise), and the passes after it
/// read the frame.
#[test]
fn a_skip_budget_spent_on_noise_is_not_an_empty_socket() {
    use std::net::UdpSocket;

    let peer0 = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peers = vec![Some(peer0.local_addr().unwrap()), None, None];
    let transport = UdpTransport::bind("127.0.0.1:0".parse().unwrap(), peers).unwrap();
    let to = transport.local_addr().unwrap();
    let outsider = UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..40 {
        outsider.send_to(&[0xAB; 64], to).unwrap();
    }
    let hello = Wire::Control(Control::Hello {
        seq: 1,
        sent_at: SimTime::ZERO,
    });
    peer0.send_to(&dgram(&hello), to).unwrap();

    let mut rt = NodeRuntime::new(loopback_scenario(), NodeId(1), transport, unix_now_ns());
    rt.driver.refresh_now();
    let now_ns = rt.driver.now.as_nanos();
    assert!(!rt.pass(now_ns).unwrap(), "16 of 40 noise datagrams read");
    assert_eq!(rt.driver.transport.unknown_src, 16);
    assert!(rt.driver.transport.wait_readable(Duration::ZERO).unwrap());
    let mut passes = 1;
    loop {
        passes += 1;
        if rt.pass(now_ns).unwrap() {
            break;
        }
    }
    assert_eq!((passes, rt.driver.transport.unknown_src), (3, 40));
    assert_eq!((rt.decode_errors, rt.unknown_pipe), (0, 0));
    assert!(rt.driver.next_deadline_ns().is_some(), "the hello is held");
}

/// An outsider spraying the daemon's socket does not starve its timers:
/// the hello ticks still fire on time and the run still ends at its
/// horizon, with the spray counted and never decoded.
#[test]
fn unknown_source_spray_does_not_starve_the_timers() {
    use std::net::UdpSocket;
    use std::sync::atomic::{AtomicBool, Ordering};

    let _alone = exclusive();
    let mut scenario = loopback_scenario();
    scenario.run_for_ms = 300;
    // The neighbours are bound but silent, so nothing but the spray arrives.
    let silent: Vec<UdpSocket> = (0..2)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers = vec![
        Some(silent[0].local_addr().unwrap()),
        None,
        Some(silent[1].local_addr().unwrap()),
    ];
    let transport = UdpTransport::bind("127.0.0.1:0".parse().unwrap(), peers).unwrap();
    let to = transport.local_addr().unwrap();
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let sprayer = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let outsider = UdpSocket::bind("127.0.0.1:0").unwrap();
            while !stop.load(Ordering::Relaxed) {
                let _ = outsider.send_to(&[0xAB; 64], to);
            }
        })
    };

    let epoch = unix_now_ns();
    let mut rt = NodeRuntime::new(scenario, NodeId(1), transport, epoch);
    rt.run().expect("a spray is not a receive-side failure");
    let ran_ms = (unix_now_ns() - epoch) / 1_000_000;
    stop.store(true, Ordering::Relaxed);
    sprayer.join().unwrap();

    assert!((300..600).contains(&ran_ms), "ran {ran_ms} ms of 300");
    // Ticks at 0, 100 and 200 ms, a hello per link each at least.
    assert!(rt.counters().get("pipe.sent") >= 6);
    assert!(rt.driver.transport.unknown_src > 0);
    assert_eq!((rt.decode_errors, rt.unknown_pipe), (0, 0));
}
