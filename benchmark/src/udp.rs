//! The `udp_chain3` cluster: three `NodeRuntime<UdpTransport>` daemons, one
//! thread and one UDP socket each, in this process on `127.0.0.1` (host
//! loopback, not a real link). The daemon threads are the system under
//! test; the harness thread only samples `/proc` at chunk boundaries.
//!
//! Cost on this leg is on-CPU time and latency, never wall ÷ packets: the
//! wall clock is fixed by the scenario schedule (design rules 2 and 3).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::time::Duration;

use son_netsim::stats::Counters;
use son_node::{unix_now_ns, NodeRuntime, Scenario, TopoKind, UdpTransport};
use son_obs::trace::{TraceEvent, TraceStage};
use son_overlay::builder::HOP_PROCESSING;
use son_overlay::client::FlowRecv;
use son_topo::NodeId;

use crate::procfs;
use crate::sim::NodeTotals;
use crate::spans::Spans;
use crate::stats;

/// Daemons in the chain.
pub const NODES: usize = 3;
/// Emulated one-way latency of each link, ms.
const HOP_MS: f64 = 1.0;
/// Payload bytes per packet.
const SIZE: usize = 1000;
/// The run outlasts the measured window by this much so its last packets land.
const TAIL_MS: u64 = 150;
/// A delivery later than this beyond the emulated path latency is not on time.
const DEADLINE_US: f64 = 50_000.0;
/// Share of the packets sent in the window that must arrive on time.
const DELIVERY_FLOOR: f64 = 0.99;
/// Chunks the measured window is cut into.
pub const CHUNKS: usize = 5;

/// Emulated latency of the whole 0 → 2 path, µs: two links, each its
/// propagation plus the hop-processing charge.
pub fn path_latency_us() -> f64 {
    2.0 * (HOP_MS * 1000.0 + HOP_PROCESSING.as_nanos() as f64 / 1000.0)
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    pub seed: u64,
    /// Nominal gap between packets, µs.
    pub interval_us: u64,
    /// When the sender starts, ms after the epoch.
    pub start_ms: u64,
    /// Length of the measured traffic window, ms.
    pub window_ms: u64,
    /// Ingress trace sampling (0 = off).
    pub trace_sample: u32,
    /// Cut the window into this many sampled chunks (0 = no sampling).
    pub chunks: usize,
}

/// One `/proc` reading of the three daemon threads.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was taken, ns after the cluster epoch.
    pub at_ns: u64,
    pub cpu_ns: [u64; NODES],
    pub voluntary_switches: [u64; NODES],
}

/// Everything harvested from one finished cluster.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Wall seconds from the first thread spawn to the receiver's first
    /// delivery.
    pub spawn_to_first_delivery_s: f64,
    /// Packets the sender emitted over the whole run.
    pub sent: u64,
    /// The receiver's log (times are ns after the cluster epoch).
    pub recv: FlowRecv,
    /// `chunks + 1` readings at the chunk boundaries.
    pub samples: Vec<Sample>,
    pub decode_errors: u64,
    pub unknown_pipe: u64,
    /// The three drivers' counters, merged.
    pub counters: Counters,
    /// What the three daemons counted, and their footprints.
    pub nodes: NodeTotals,
    /// Every daemon's trace ring, concatenated.
    pub traces: Vec<TraceEvent>,
}

fn scenario(spec: &ClusterSpec) -> Scenario {
    Scenario {
        name: "udp_chain3".to_owned(),
        topo: TopoKind::Chain,
        nodes: NODES,
        hop_ms: HOP_MS,
        loss: 0.0,
        spec: "best_effort".to_owned(),
        deadline_ms: None,
        from: 0,
        to: (NODES - 1) as u32,
        count: u64::MAX,
        size: SIZE,
        interval_us: spec.interval_us,
        start_ms: spec.start_ms,
        run_for_ms: spec.start_ms + spec.window_ms + TAIL_MS,
        seed: spec.seed,
        trace_sample: spec.trace_sample,
        watch: false,
        membership: false,
        outage: None,
    }
}

/// Three loopback addresses with free ports, found by binding port 0 and
/// letting go again.
fn free_addrs() -> io::Result<Vec<SocketAddr>> {
    let probes: Vec<UdpSocket> = (0..NODES)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    probes.iter().map(UdpSocket::local_addr).collect()
}

/// Binds the chain's three transports: node `i` knows its neighbours only.
fn bind_chain() -> io::Result<Vec<UdpTransport>> {
    let mut last = None;
    // Another process can grab a probed port before the rebind; try again.
    for _ in 0..8 {
        let addrs = free_addrs()?;
        let bound: io::Result<Vec<UdpTransport>> = (0..NODES)
            .map(|i| {
                let peers = (0..NODES)
                    .map(|j| (i.abs_diff(j) == 1).then_some(addrs[j]))
                    .collect();
                UdpTransport::bind(addrs[i], peers)
            })
            .collect();
        match bound {
            Ok(t) => return Ok(t),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

fn sleep_until_unix_ns(target: u64) {
    let now = unix_now_ns();
    if target > now {
        std::thread::sleep(Duration::from_nanos(target - now));
    }
}

/// Runs one cluster to its horizon and harvests it.
pub fn run_cluster(spec: ClusterSpec, spans: &mut Spans) -> io::Result<ClusterOutcome> {
    let scenario = scenario(&spec);
    let build = spans.enter("bench.build");
    let spawned_unix = unix_now_ns();
    let transports = bind_chain()?;
    // The sockets are bound already, so a frame sent before a slower
    // neighbour's thread is up waits in its socket buffer: no lead time is
    // needed, the epoch is now.
    let epoch_ns = unix_now_ns();
    let (tid_tx, tid_rx) = mpsc::channel();
    let handles: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let scenario = scenario.clone();
            let tid_tx = tid_tx.clone();
            std::thread::Builder::new()
                .name(format!("daemon-{i}"))
                .spawn(move || -> io::Result<NodeRuntime<UdpTransport>> {
                    tid_tx
                        .send((i, procfs::current_tid()?))
                        .expect("harness waits for every tid");
                    let mut rt = NodeRuntime::new(scenario, NodeId(i), transport, epoch_ns);
                    rt.run()?;
                    Ok(rt)
                })
        })
        .collect::<io::Result<_>>()?;
    drop(tid_tx);

    let mut tids = [0u32; NODES];
    for _ in 0..NODES {
        let (i, tid) = tid_rx
            .recv()
            .map_err(|_| io::Error::other("a daemon thread died before reporting its tid"))?;
        tids[i] = tid;
    }
    spans.exit(build);

    let run = spans.enter("bench.run");
    let mut samples = Vec::new();
    if spec.chunks > 0 {
        for k in 0..=spec.chunks as u64 {
            let offset_ms = spec.start_ms * spec.chunks as u64 + k * spec.window_ms;
            sleep_until_unix_ns(epoch_ns + offset_ms * 1_000_000 / spec.chunks as u64);
            let mut s = Sample {
                at_ns: unix_now_ns().saturating_sub(epoch_ns),
                cpu_ns: [0; NODES],
                voluntary_switches: [0; NODES],
            };
            for (i, &tid) in tids.iter().enumerate() {
                s.cpu_ns[i] = procfs::thread_cpu_ns(tid)?;
                s.voluntary_switches[i] = procfs::thread_voluntary_switches(tid)?;
            }
            samples.push(s);
        }
    }

    let mut runtimes = Vec::new();
    for h in handles {
        let rt = h
            .join()
            .map_err(|_| io::Error::other("a daemon thread panicked"))??;
        runtimes.push(rt);
    }
    spans.exit(run);

    let harvest = spans.enter("bench.harvest");
    let mut counters = Counters::new();
    let mut nodes = NodeTotals::default();
    let mut traces = Vec::new();
    let (mut decode_errors, mut unknown_pipe, mut sent) = (0, 0, 0);
    let mut recv = None;
    for rt in &runtimes {
        decode_errors += rt.decode_errors;
        unknown_pipe += rt.unknown_pipe;
        counters.merge(rt.counters());
        nodes.add(rt.node());
        traces.extend(rt.node().obs().traces().events().copied());
        for c in rt.clients() {
            sent += c.sent(1);
            if let Some(r) = c.recv.values().next() {
                recv = Some(r.clone());
            }
        }
    }
    let recv = recv.ok_or_else(|| io::Error::other("the receiver logged no delivery"))?;
    let first_ns = recv.arrivals.first().map_or(0, |&(at, _)| at.as_nanos());
    drop(runtimes);
    spans.exit(harvest);
    Ok(ClusterOutcome {
        spawn_to_first_delivery_s: (epoch_ns + first_ns).saturating_sub(spawned_unix) as f64 / 1e9,
        sent,
        recv,
        samples,
        decode_errors,
        unknown_pipe,
        counters,
        nodes,
        traces,
    })
}

/// One chunk of the measured window.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub wall_s: f64,
    /// Packets delivered in the chunk.
    pub delivered: usize,
    /// Added latency of each of them, µs, ascending.
    pub added_us: Vec<f64>,
    /// On-CPU ns of each daemon thread over the chunk.
    pub cpu_ns: [u64; NODES],
    pub voluntary_switches: u64,
}

impl Chunk {
    pub fn cpu_us_per_delivered_pkt(&self) -> Option<f64> {
        (self.delivered > 0)
            .then(|| self.cpu_ns.iter().sum::<u64>() as f64 / 1000.0 / self.delivered as f64)
    }

    /// On-CPU share of the wall time of the busiest daemon thread.
    pub fn busiest_thread_frac(&self) -> f64 {
        *self.cpu_ns.iter().max().expect("three daemons") as f64 / 1e9 / self.wall_s
    }
}

/// The measured window of a finished cluster, cut at its samples.
#[derive(Debug)]
pub struct Window {
    pub chunks: Vec<Chunk>,
    /// Packets the sender emitted inside the window.
    pub attempted: u64,
    /// Of those, delivered within [`DEADLINE_US`] of the emulated latency.
    pub on_time: u64,
    /// Of those, delivered at all.
    pub delivered: u64,
    pub wall_s: f64,
}

/// Cuts the receiver's log at the sample times. A packet belongs to the
/// window when it was sent inside it (send time = arrival − latency, both
/// on the cluster clock) and to the chunk it arrived in.
pub fn window(out: &ClusterOutcome) -> Window {
    let path_us = path_latency_us();
    let (w0, w1) = (
        out.samples.first().map_or(0, |s| s.at_ns),
        out.samples.last().map_or(u64::MAX, |s| s.at_ns),
    );
    let mut chunks: Vec<Chunk> = out
        .samples
        .windows(2)
        .map(|w| Chunk {
            wall_s: (w[1].at_ns - w[0].at_ns) as f64 / 1e9,
            delivered: 0,
            added_us: Vec::new(),
            cpu_ns: std::array::from_fn(|i| w[1].cpu_ns[i] - w[0].cpu_ns[i]),
            voluntary_switches: (0..NODES)
                .map(|i| w[1].voluntary_switches[i] - w[0].voluntary_switches[i])
                .sum(),
        })
        .collect();
    let (mut first_seq, mut last_seq) = (u64::MAX, 0);
    let (mut delivered, mut on_time) = (0, 0);
    for (&(at, seq), &lat_ms) in out.recv.arrivals.iter().zip(&out.recv.latencies_ms) {
        let at_ns = at.as_nanos();
        let added_us = lat_ms * 1000.0 - path_us;
        let sent_ns = at_ns.saturating_sub((lat_ms * 1e6) as u64);
        if sent_ns >= w0 && sent_ns <= w1 {
            first_seq = first_seq.min(seq);
            last_seq = last_seq.max(seq);
            delivered += 1;
            on_time += u64::from(added_us <= DEADLINE_US);
        }
        if let Some(k) = out.samples.iter().rposition(|s| s.at_ns <= at_ns) {
            if let Some(c) = chunks.get_mut(k) {
                c.delivered += 1;
                c.added_us.push(added_us);
            }
        }
    }
    for c in &mut chunks {
        c.added_us.sort_by(f64::total_cmp);
    }
    Window {
        chunks,
        // Sequence numbers are consecutive in send order, so the span of
        // those seen covers the undelivered ones between them too.
        attempted: if delivered == 0 {
            0
        } else {
            last_seq - first_seq + 1
        },
        on_time,
        delivered,
        wall_s: w1.saturating_sub(w0) as f64 / 1e9,
    }
}

/// The three segments a sampled packet's added latency splits into, µs:
/// `transmit`@0 → `transmit`@1 and `transmit`@1 → `deliver`@2, each minus
/// the emulated link latency, and the receiver's recorded latency minus
/// `deliver`@2 − `ingress`@0 (the hand-off to the client).
#[derive(Debug, Default)]
pub struct Segments {
    pub hop01_excess_us: Vec<f64>,
    pub hop12_excess_us: Vec<f64>,
    pub client_handoff_us: Vec<f64>,
}

pub fn segments(out: &ClusterOutcome) -> Segments {
    let link_us = path_latency_us() / 2.0;
    let latency_by_seq: HashMap<u64, f64> = out
        .recv
        .arrivals
        .iter()
        .zip(&out.recv.latencies_ms)
        .map(|(&(_, seq), &ms)| (seq, ms * 1000.0))
        .collect();
    // trace id -> (seq, ingress@0, transmit@0, transmit@1, deliver@2), ns.
    let mut by_trace: HashMap<u64, (u64, [Option<u64>; 4])> = HashMap::new();
    for ev in out.traces.iter().filter(|e| !e.is_marker()) {
        let slot = match (ev.stage, ev.node) {
            (TraceStage::Ingress { .. }, 0) => 0,
            (TraceStage::Transmit, 0) => 1,
            (TraceStage::Transmit, 1) => 2,
            (TraceStage::Deliver, 2) => 3,
            _ => continue,
        };
        by_trace
            .entry(ev.trace_id)
            .or_insert((ev.packet.seq, [None; 4]))
            .1[slot] = Some(ev.at_ns);
    }
    let mut seg = Segments::default();
    for (seq, at) in by_trace.into_values() {
        let ([Some(i0), Some(t0), Some(t1), Some(d2)], Some(&lat_us)) =
            (at, latency_by_seq.get(&seq))
        else {
            continue;
        };
        let us = |later: u64, earlier: u64| (later as f64 - earlier as f64) / 1000.0;
        seg.hop01_excess_us.push(us(t1, t0) - link_us);
        seg.hop12_excess_us.push(us(d2, t1) - link_us);
        seg.client_handoff_us.push(lat_us - us(d2, i0));
    }
    seg
}

/// Median spawn-to-first-delivery over `n` throwaway clusters that start
/// sending at once: set-up without the main cluster's fixed start delay.
pub fn setup_samples(seed: u64, n: usize) -> io::Result<Vec<f64>> {
    // Their spans would drown the measured cluster's; they are not kept.
    let mut scratch = Spans::new();
    (0..n)
        .map(|_| {
            let spec = ClusterSpec {
                seed,
                interval_us: 1000,
                start_ms: 0,
                window_ms: 20,
                trace_sample: 0,
                chunks: 0,
            };
            run_cluster(spec, &mut scratch).map(|o| o.spawn_to_first_delivery_s)
        })
        .collect()
}

/// Checks every cluster must pass; returns the broken ones.
pub fn violations(out: &ClusterOutcome, w: &Window) -> Vec<String> {
    let mut v = Vec::new();
    if out.decode_errors > 0 {
        v.push(format!("{} datagrams failed to decode", out.decode_errors));
    }
    if out.unknown_pipe > 0 {
        v.push(format!("{} frames from an unknown pipe", out.unknown_pipe));
    }
    if out.recv.app_duplicates > 0 {
        v.push(format!(
            "{} application duplicates",
            out.recv.app_duplicates
        ));
    }
    if out.recv.received > out.sent {
        v.push(format!(
            "{} unique deliveries of {} sent",
            out.recv.received, out.sent
        ));
    }
    if stats::shortfall(w.attempted, w.on_time, DELIVERY_FLOOR) > 0 {
        v.push(format!(
            "{} of {} sent in the window on time (< {DELIVERY_FLOOR})",
            w.on_time, w.attempted
        ));
    }
    v
}

/// Operations the cluster got wrong: application duplicates, deliveries of
/// packets nobody sent, and what the window's on-time deliveries are short
/// of [`DELIVERY_FLOOR`]. Zero when [`violations`] finds nothing.
pub fn failed(out: &ClusterOutcome, w: &Window) -> u64 {
    out.recv.app_duplicates
        + out.recv.received.saturating_sub(out.sent)
        + stats::shortfall(w.attempted, w.on_time, DELIVERY_FLOOR)
}

#[cfg(test)]
mod tests {
    use son_netsim::time::SimTime;

    use super::*;

    /// A cluster that delivered one packet per millisecond from 800 ms on,
    /// each `latency_ms` after it was sent, sampled every 100 ms.
    fn outcome(latency_ms: f64, packets: u64, lost: &[u64]) -> ClusterOutcome {
        let mut recv = FlowRecv::default();
        for seq in (1..=packets).filter(|s| !lost.contains(s)) {
            let sent_ns = (800 + seq) * 1_000_000;
            let at = SimTime::from_nanos(sent_ns + (latency_ms * 1e6) as u64);
            recv.arrivals.push((at, seq));
            recv.latencies_ms.push(latency_ms);
            recv.received += 1;
        }
        ClusterOutcome {
            spawn_to_first_delivery_s: 0.0,
            sent: packets,
            recv,
            samples: (0..=3)
                .map(|k| Sample {
                    at_ns: (800 + 100 * k) * 1_000_000,
                    cpu_ns: [k * 1_000_000, k * 2_000_000, k * 3_000_000],
                    voluntary_switches: [k * 10; NODES],
                })
                .collect(),
            decode_errors: 0,
            unknown_pipe: 0,
            counters: Counters::new(),
            nodes: NodeTotals::default(),
            traces: Vec::new(),
        }
    }

    #[test]
    fn window_counts_what_was_sent_inside_it_and_chunks_by_arrival() {
        // 400 packets sent over 400 ms; the window is the first 300 ms.
        let out = outcome(3.4, 400, &[150]);
        let w = window(&out);
        assert_eq!(w.chunks.len(), 3);
        assert!((w.wall_s - 0.3).abs() < 1e-9);
        // Packets 1..=300 were sent inside the window; 150 never arrived.
        assert_eq!((w.attempted, w.delivered, w.on_time), (300, 299, 299));
        // Packet 100 was sent at 900 ms but arrived in the second chunk.
        let per_chunk: Vec<usize> = w.chunks.iter().map(|c| c.delivered).collect();
        assert_eq!(per_chunk, [96, 99, 100]);
        assert!(w
            .chunks
            .iter()
            .all(|c| c.cpu_ns == [1_000_000, 2_000_000, 3_000_000]));
        let added = w.chunks[0].added_us[0];
        assert!(
            (added - (3400.0 - path_latency_us())).abs() < 1e-6,
            "{added}"
        );
        let cpu = w.chunks[0].cpu_us_per_delivered_pkt().unwrap();
        assert!((cpu - 6000.0 / 96.0).abs() < 1e-9);
        assert!((w.chunks[0].busiest_thread_frac() - 0.03).abs() < 1e-9);
        // One lost in three hundred is the loopback's doing and above the
        // floor: no operation failed.
        assert!(violations(&out, &w).is_empty());
        assert_eq!(failed(&out, &w), 0);
    }

    #[test]
    fn late_and_missing_deliveries_fail_the_checks() {
        // 60 ms late is past the 50 ms deadline: delivered, but not on time.
        let late = outcome(path_latency_us() / 1000.0 + 60.0, 200, &[]);
        let w = window(&late);
        assert!(w.delivered > 0 && w.on_time == 0);
        assert!(violations(&late, &w).iter().any(|v| v.contains("< 0.99")));
        // Five in three hundred lost is under the 0.99 floor by two.
        let lossy = outcome(3.4, 400, &[10, 20, 30, 40, 50]);
        let w = window(&lossy);
        assert!(violations(&lossy, &w).iter().any(|v| v.contains("< 0.99")));
        assert_eq!((w.attempted, w.on_time), (300, 295));
        assert_eq!(failed(&lossy, &w), 2);
        let mut noisy = outcome(3.4, 400, &[]);
        noisy.decode_errors = 1;
        assert_eq!(violations(&noisy, &window(&noisy)).len(), 1);
    }
}
