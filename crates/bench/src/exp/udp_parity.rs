//! E18 — sim-vs-real parity: the same scenario file, the same node state
//! machines, run twice — once inside the deterministic simulator, once as a
//! multi-process UDP loopback cluster of `son-node` daemons — and compared.
//!
//! The claim under test is the transport abstraction itself: protocol code
//! compiled once against `Ctx` must produce the same *protocol outcomes*
//! whether its driver is the virtual-time event queue or wall-clock timers
//! over real sockets. Outcomes, not bytes: the UDP leg schedules on a real
//! OS, so wall-clock jitter is expected and the comparison uses tolerance
//! bands (documented in `EXPERIMENTS.md` E18):
//!
//! * delivery ratio within ±5 pp (±10 pp for the blackout scenario, where
//!   a reroute-timing difference of a second moves percentage points);
//! * end-to-end p50 within ±20% + 5 ms;
//! * zero codec decode errors and zero misattributed frames on the wire.
//!
//! Two scenario shapes: **E1** (the Fig. 3 chain, hop-by-hop recovery
//! under per-link loss) and **E3** (a ring with a mid-run link blackout
//! and the watchdog on; both worlds must reroute rather than wait it out).
//! `--smoke` runs both reduced, over 4 and 5 processes, in a few
//! wall-seconds each — the CI `udp_loopback_smoke` job. Both legs lower the
//! scenario through the same [`Scenario::overlay`], [`Scenario::flow`] and
//! [`Scenario::blackout`]; the sim leg is their [`Scenario::fleet`].
//! Results go to `BENCH_forwarding.json`
//! (override with `--out`) as `"mode":"udp"` rows, replacing any previous
//! `udp_parity` rows.

use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use son_netsim::time::{SimDuration, SimTime};
use son_node::{unix_now_ns, Scenario, TopoKind};
use son_obs::Json;

use super::Opts;
use crate::telemetry::{ClusterState, Collector};
use crate::{f, row, table_header, write_bench};

/// One leg's outcome, sim or UDP.
#[derive(Debug, Clone, Copy, Default)]
struct Leg {
    sent: u64,
    received: u64,
    p50_ms: f64,
    p90_ms: f64,
    max_gap_ms: f64,
    decode_errors: u64,
    unknown_pipe: u64,
    /// Blocking waits the daemons' run loops made (`loop.wait`; UDP only).
    waits: u64,
}

impl Leg {
    fn delivery(&self) -> f64 {
        self.received as f64 / (self.sent as f64).max(1.0)
    }
}

fn e1_scenario(smoke: bool) -> Scenario {
    Scenario {
        name: if smoke { "udp_e1_smoke" } else { "udp_e1" }.to_owned(),
        topo: TopoKind::Chain,
        nodes: if smoke { 4 } else { 8 },
        hop_ms: if smoke { 5.0 } else { 10.0 },
        loss: 0.01,
        spec: "reliable".to_owned(),
        deadline_ms: None,
        from: 0,
        to: if smoke { 3 } else { 7 },
        count: if smoke { 300 } else { 2000 },
        size: 200,
        interval_us: 5_000,
        start_ms: if smoke { 800 } else { 1_000 },
        run_for_ms: if smoke { 4_000 } else { 16_000 },
        seed: 1_000,
        trace_sample: 8,
        watch: false,
        membership: false,
        outage: None,
    }
}

/// The E3 ring: a blackout on a link of the flow's path, the watchdog on.
/// The smoke ring's flow has one shortest path, 0-1-2, and loses 1-2 for
/// 1.5 s, three times what rerouting around it takes.
fn e3_scenario(smoke: bool) -> Scenario {
    let full = Scenario {
        name: "udp_e3".to_owned(),
        topo: TopoKind::Ring,
        nodes: 6,
        loss: 0.0,
        spec: "best_effort".to_owned(),
        to: 3,
        count: 2_400,
        seed: 2_000,
        watch: true,
        outage: Some(son_node::Outage {
            a: 1,
            b: 2,
            from_ms: 4_000,
            to_ms: 8_000,
        }),
        ..e1_scenario(false)
    };
    if !smoke {
        return full;
    }
    Scenario {
        name: "udp_e3_smoke".to_owned(),
        nodes: 5,
        hop_ms: 5.0,
        to: 2,
        count: 600,
        start_ms: 800,
        run_for_ms: 4_000,
        outage: Some(son_node::Outage {
            a: 1,
            b: 2,
            from_ms: 1_500,
            to_ms: 3_000,
        }),
        ..full
    }
}

/// Runs the scenario's [`Scenario::fleet`] inside the deterministic
/// simulator, emitting the same telemetry rows the UDP leg streams —
/// through `Fleet::run_with_telemetry`, into
/// `<dir>/<name>.sim.telemetry.jsonl` — so one schema serves both legs.
fn run_in_sim(s: &Scenario, dir: &Path) -> Leg {
    let mut fleet = s.fleet();
    let _ = std::fs::create_dir_all(dir);
    let telemetry_path = dir.join(format!("{}.sim.telemetry.jsonl", s.name));
    let mut telemetry = std::fs::File::create(&telemetry_path).ok();
    fleet.run_with_telemetry(SimTime::from_millis(s.run_for_ms), |snap| {
        if let Some(f) = telemetry.as_mut() {
            let _ = writeln!(f, "{}", snap.row_json());
        }
    });

    let recv = fleet.recv(0);
    let mut lat = recv.latency_ms();
    Leg {
        sent: fleet.sent(0),
        received: recv.received,
        p50_ms: lat.quantile(0.5).unwrap_or(0.0),
        p90_ms: lat.quantile(0.9).unwrap_or(0.0),
        max_gap_ms: recv
            .longest_gap(SimTime::ZERO)
            .map_or(0.0, SimDuration::as_millis_f64),
        ..Leg::default()
    }
}

/// Locates the `son-node` binary next to the `son-exp` binary.
fn son_node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    let bin = dir.join("son-node");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found — build it first (cargo build -p son-node)",
            bin.display()
        ))
    }
}

/// Runs the scenario as a multi-process UDP loopback cluster and
/// aggregates the per-process result files. Each daemon streams telemetry
/// to a [`Collector`], which this thread runs between polls of the
/// daemons; after the run, the live roll-up is asserted byte-identical to
/// replaying the collector's own JSONL recording (acceptance: one schema,
/// live and replay agree).
fn run_on_udp(s: &Scenario, base_port: u16, dir: &Path) -> Result<(Leg, ClusterState), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let scenario_path = dir.join(format!("{}.scenario.json", s.name));
    std::fs::write(&scenario_path, s.to_json())
        .map_err(|e| format!("write {}: {e}", scenario_path.display()))?;
    let bin = son_node_bin()?;
    let record_path = dir.join(format!("{}.udp.telemetry.jsonl", s.name));
    let mut collector = Collector::bind("127.0.0.1:0", Some(&record_path))?;

    // Every daemon waits for this shared instant before starting its clock;
    // the lead time covers process spawn and socket binding.
    let epoch_ns = unix_now_ns() + 800_000_000;
    let mut children = Vec::new();
    for i in 0..s.nodes {
        let out = dir.join(format!("{}.result.{i}.json", s.name));
        let child = std::process::Command::new(&bin)
            .arg("--scenario")
            .arg(&scenario_path)
            .arg("--node")
            .arg(i.to_string())
            .arg("--epoch")
            .arg(epoch_ns.to_string())
            .arg("--base-port")
            .arg(base_port.to_string())
            .arg("--out")
            .arg(&out)
            .arg("--telemetry")
            .arg(collector.addr.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        children.push((i, child, out));
    }

    // Grace = epoch lead + scenario horizon + generous slack for a loaded
    // host; a daemon past that is hung and gets killed.
    let deadline = Instant::now() + Duration::from_millis(800 + s.run_for_ms + 15_000);
    let mut collect_for = |ms| {
        collector
            .receive_until(Instant::now() + Duration::from_millis(ms))
            .map_err(|e| format!("collector: {e}"))
    };
    let mut failures = Vec::new();
    for (i, child, _) in &mut children {
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    let mut err = String::new();
                    if let Some(mut e) = child.stderr.take() {
                        let _ = e.read_to_string(&mut err);
                    }
                    failures.push(format!("node {i} exited {status}: {}", err.trim()));
                    break;
                }
                Ok(None) if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    failures.push(format!("node {i} hung past the deadline; killed"));
                    break;
                }
                Ok(None) => collect_for(50)?,
                Err(e) => {
                    failures.push(format!("node {i} wait: {e}"));
                    break;
                }
            }
        }
    }
    // Every daemon has exited; give the last in-flight datagrams a beat,
    // then compare live vs replay.
    collect_for(200)?;
    let live = collector.cluster;
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    // The recording holds only what was accepted: a bad datagram shows as
    // `decode_errors` in the live roll-up alone.
    let mut replay = ClusterState::new();
    replay.ingest_file(&record_path)?;
    let live_rollup = live.rollup(5).to_json();
    let replay_rollup = replay.rollup(5).to_json();
    if live_rollup != replay_rollup {
        return Err(format!(
            "telemetry roll-up diverged between live ingest and JSONL replay:\nlive:   {live_rollup}\nreplay: {replay_rollup}"
        ));
    }
    let mut leg = Leg::default();
    for (i, _, out) in &children {
        let text = std::fs::read_to_string(out)
            .map_err(|e| format!("node {i} wrote no result ({}: {e})", out.display()))?;
        let first = text
            .lines()
            .next()
            .ok_or_else(|| format!("node {i}: empty result"))?;
        let summary = Json::parse(first).map_err(|e| format!("node {i} summary: {e}"))?;
        let get_u64 = |key: &str| summary.get(key).and_then(Json::as_u64).unwrap_or(0);
        let get_f64 = |key: &str| summary.get(key).and_then(Json::as_f64);
        leg.sent += get_u64("sent");
        leg.received += get_u64("received");
        leg.decode_errors += get_u64("decode_errors");
        leg.unknown_pipe += get_u64("unknown_pipe");
        let counters = summary.get("counters");
        leg.waits += counters
            .and_then(|c| c.get("loop.wait"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(p) = get_f64("p50_ms") {
            leg.p50_ms = p;
        }
        if let Some(p) = get_f64("p90_ms") {
            leg.p90_ms = p;
        }
        if let Some(g) = get_f64("max_gap_ms") {
            leg.max_gap_ms = g;
        }
    }
    Ok((leg, live))
}

struct Comparison {
    scenario: Scenario,
    sim: Leg,
    udp: Leg,
    delivery_band: f64,
}

fn compare(s: Scenario, delivery_band: f64, base_port: u16, dir: &Path) -> Comparison {
    println!("\nscenario {}: {} nodes, spec {}", s.name, s.nodes, s.spec);
    let sim = run_in_sim(&s, dir);
    let (udp, live) = match run_on_udp(&s, base_port, dir) {
        Ok(outcome) => outcome,
        Err(e) => panic!("UDP cluster failed for {}: {e}", s.name),
    };
    println!(
        "telemetry: {} snapshots from {} nodes ({} lost in flight, {} bad datagrams); \
         live == replay roll-up",
        live.snapshots(),
        live.node_count(),
        live.nodes().map(|(_, n)| n.lost).sum::<u64>(),
        live.decode_errors
    );
    table_header(&[
        ("leg", 5),
        ("sent", 7),
        ("recv", 7),
        ("delivery", 9),
        ("p50 ms", 8),
        ("p90 ms", 8),
        ("max gap ms", 11),
    ]);
    for (name, l) in [("sim", &sim), ("udp", &udp)] {
        row(&[
            (name.to_string(), 5),
            (l.sent.to_string(), 7),
            (l.received.to_string(), 7),
            (f(l.delivery() * 100.0, 1) + "%", 9),
            (f(l.p50_ms, 2), 8),
            (f(l.p90_ms, 2), 8),
            (f(l.max_gap_ms, 1), 11),
        ]);
    }
    Comparison {
        scenario: s,
        sim,
        udp,
        delivery_band,
    }
}

impl Comparison {
    /// What one overlay hop costs on the socket path over its emulated
    /// latency, µs at the median: the UDP leg's p50 minus the simulator's
    /// (which charges the links and nothing else), per link crossed. The
    /// paper's §II-D puts it under a millisecond.
    fn added_per_hop_p50_us(&self) -> f64 {
        let ((from, to), _, _) = self.scenario.flow();
        let path = son_topo::shortest_path(&self.scenario.topology(), from, to);
        let hops = path.expect("scenario topologies are connected").edges.len();
        (self.udp.p50_ms - self.sim.p50_ms) * 1000.0 / hops as f64
    }

    /// The E18 parity assertions; panics name the violated band.
    fn check(&self) {
        let name = &self.scenario.name;
        assert_eq!(
            self.udp.decode_errors, 0,
            "{name}: the cluster saw undecodable frames"
        );
        assert_eq!(
            self.udp.unknown_pipe, 0,
            "{name}: frames arrived from unregistered (peer, provider) pairs"
        );
        assert_eq!(
            self.udp.sent, self.scenario.count,
            "{name}: the UDP sender did not finish its workload"
        );
        let dd = (self.udp.delivery() - self.sim.delivery()).abs();
        assert!(
            dd <= self.delivery_band,
            "{name}: delivery ratio diverged: sim {:.3} vs udp {:.3} (band ±{:.0} pp)",
            self.sim.delivery(),
            self.udp.delivery(),
            self.delivery_band * 100.0
        );
        let p50_band = (self.sim.p50_ms * 0.20).max(0.0) + 5.0;
        assert!(
            (self.udp.p50_ms - self.sim.p50_ms).abs() <= p50_band,
            "{name}: p50 diverged: sim {:.2} ms vs udp {:.2} ms (band ±{:.2} ms)",
            self.sim.p50_ms,
            self.udp.p50_ms,
            p50_band
        );
        if let Some(o) = self.scenario.outage {
            let blackout_ms = (o.to_ms - o.from_ms) as f64;
            assert!(
                self.sim.max_gap_ms < blackout_ms && self.udp.max_gap_ms < blackout_ms,
                "{name}: a leg waited out the blackout instead of rerouting \
                 (sim gap {:.0} ms, udp gap {:.0} ms, blackout {blackout_ms:.0} ms)",
                self.sim.max_gap_ms,
                self.udp.max_gap_ms
            );
        }
        println!(
            "parity ok: delivery Δ {:.1} pp (band {:.0}), p50 Δ {:.2} ms (band {:.2}); \
             {:.0} µs added per hop, {:.1} loop waits per delivered packet",
            dd * 100.0,
            self.delivery_band * 100.0,
            (self.udp.p50_ms - self.sim.p50_ms).abs(),
            p50_band,
            self.added_per_hop_p50_us(),
            self.waits_per_delivered_pkt()
        );
    }

    fn waits_per_delivered_pkt(&self) -> f64 {
        self.udp.waits as f64 / (self.udp.received as f64).max(1.0)
    }

    fn bench_row(&self, smoke: bool) -> Json {
        Json::obj(vec![
            ("bench", Json::str("udp_parity")),
            ("mode", Json::str("udp")),
            ("scenario", Json::str(&self.scenario.name)),
            ("smoke", Json::Bool(smoke)),
            ("nodes", Json::U64(self.scenario.nodes as u64)),
            ("count", Json::U64(self.scenario.count)),
            ("sim_delivery", Json::F64(self.sim.delivery())),
            ("udp_delivery", Json::F64(self.udp.delivery())),
            ("sim_p50_ms", Json::F64(self.sim.p50_ms)),
            ("udp_p50_ms", Json::F64(self.udp.p50_ms)),
            ("sim_p90_ms", Json::F64(self.sim.p90_ms)),
            ("udp_p90_ms", Json::F64(self.udp.p90_ms)),
            ("sim_max_gap_ms", Json::F64(self.sim.max_gap_ms)),
            ("udp_max_gap_ms", Json::F64(self.udp.max_gap_ms)),
            (
                "delivery_delta",
                Json::F64(self.udp.delivery() - self.sim.delivery()),
            ),
            ("udp_decode_errors", Json::U64(self.udp.decode_errors)),
            (
                "added_per_hop_p50_us",
                Json::F64(self.added_per_hop_p50_us()),
            ),
            (
                "waits_per_delivered_pkt",
                Json::F64(self.waits_per_delivered_pkt()),
            ),
        ])
    }
}

pub fn run(opts: &Opts) {
    let smoke = opts.smoke;
    let base_port = 47_600;
    let dir = son_obs::obs_dir()
        .expect("the cluster's scenario and result files need the export directory")
        .join("udp_parity");

    let comparisons = [
        compare(e1_scenario(smoke), 0.05, base_port, &dir),
        compare(e3_scenario(smoke), 0.10, base_port + 100, &dir),
    ];
    for c in &comparisons {
        c.check();
    }

    let rows: Vec<Json> = comparisons.iter().map(|c| c.bench_row(smoke)).collect();
    write_bench(
        opts.out.as_deref().unwrap_or("BENCH_forwarding.json"),
        &rows,
    );
    println!(
        "cluster artifacts (per-process results, trace exports): {}",
        dir.display()
    );
}
