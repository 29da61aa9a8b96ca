//! One run of one workload: the reps or the cluster, the checks, and the
//! metrics by name. End-to-end metrics come from an untraced run; a traced
//! run gives the per-layer ones and spends part of its time on probes.

use std::collections::BTreeMap;
use std::time::Instant;

use son_obs::{FootprintReport, Json, PerfStageStats};

use crate::probes::Probes;
use crate::procfs;
use crate::sim::{self, Rep, SimWorkload};
use crate::spans::Spans;
use crate::stats;
use crate::udp::{self, ClusterSpec};

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    pub trace: bool,
    /// Shrinks the probes; the record is marked not comparable.
    pub quick: bool,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Catalogued metrics by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Data packets the senders emitted.
    pub attempted: u64,
    /// Of those, the ones the program got wrong: duplicates, deliveries of
    /// packets nobody sent, and the shortfall under the delivery floor.
    pub failed: u64,
    /// Failed correctness checks; empty on a correct run.
    pub violations: Vec<String>,
    /// Per-rep and per-chunk detail for the run record.
    pub detail: Vec<(&'static str, Json)>,
}

/// Share of `--seconds` a traced run spends on the workload itself; the
/// rest goes to the probes, so traced and untraced runs take about as long.
const TRACED_SHARE: f64 = 0.6;

fn f64s(v: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(v.into_iter().map(Json::F64).collect())
}

fn per_node(out: &mut Outcome, footprint: &FootprintReport, nodes: usize) {
    let part = |label: &str| {
        footprint
            .parts()
            .iter()
            .find(|p| p.label == label)
            .map_or(0, |p| p.bytes)
    };
    let n = nodes as f64;
    let total = footprint.total();
    out.values
        .insert("mem.bytes_per_node.total", total as f64 / n);
    // Everything but the fixed-capacity observability rings.
    out.values.insert(
        "mem.bytes_per_node.state",
        (total - part("rings")) as f64 / n,
    );
    for (name, label) in [
        ("mem.bytes_per_node.rings", "rings"),
        ("mem.bytes_per_node.lsdb", "lsdb"),
        ("mem.bytes_per_node.routing", "routing"),
        ("mem.bytes_per_node.topo", "topo"),
    ] {
        out.values.insert(name, part(label) as f64 / n);
    }
}

fn bench_spans(out: &mut Outcome, spans: &Spans) {
    out.values
        .insert("bench.build_s", spans.total_s("bench.build"));
    out.values.insert("bench.run_s", spans.total_s("bench.run"));
    out.values
        .insert("bench.harvest_s", spans.total_s("bench.harvest"));
}

fn run_probes(out: &mut Outcome, spans: &mut Spans, args: &RunArgs) {
    let tid = procfs::current_tid().expect("/proc/thread-self");
    let mut probes = Probes::new(spans, args.quick);
    probes.run_all();
    probes.sharded_engine(args.seed, tid);
    out.values.extend(probes.results);
}

/// The labels the program's profiler uses, and the share each gets.
const STAGE_METRICS: [(&str, &str); 7] = [
    ("sim.deliver", "trace.sim.deliver.self_frac"),
    ("sim.timer", "trace.sim.timer.self_frac"),
    ("node.on_message", "trace.node.on_message.self_frac"),
    ("node.on_timer", "trace.node.on_timer.self_frac"),
    ("link.proto", "trace.link.proto.self_frac"),
    ("route.rebuild", "trace.route.rebuild.self_frac"),
    ("flow.ensure", "trace.flow.ensure.self_frac"),
];

/// Folds the traced reps' profiler stages into self-time shares of their
/// run wall time. The event loop's registry and the daemons' are separate,
/// so `sim.deliver` and `sim.timer` do not see the handlers they call as
/// children: their own share is their total minus the handlers' total.
/// What no span covers (queue, loop, pipes) is the engine's.
fn trace_shares(out: &mut Outcome, traced: &[&Rep]) {
    let wall_ns: f64 = traced.iter().map(|r| r.run_wall_s * 1e9).sum();
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut rebuild: Vec<&PerfStageStats> = Vec::new();
    let stats: Vec<Vec<PerfStageStats>> = traced
        .iter()
        .map(|r| r.harvest.perf.as_ref().expect("traced rep").stats())
        .collect();
    for s in stats.iter().flatten() {
        *self_ns.entry(s.label).or_default() += s.self_ns;
        *total_ns.entry(s.label).or_default() += s.total_ns;
        if s.label == "route.rebuild" {
            rebuild.push(s);
        }
    }
    let total = |label: &str| total_ns.get(label).copied().unwrap_or(0.0);
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    let mut other = 0.0;
    for (&label, &ns) in &self_ns {
        let own = match label {
            "sim.deliver" => ns - total("node.on_message"),
            "sim.timer" => ns - total("node.on_timer"),
            _ => ns,
        };
        match STAGE_METRICS.iter().find(|(l, _)| *l == label) {
            Some(&(_, metric)) => {
                shares.insert(metric, own / wall_ns);
            }
            None => other += own,
        }
    }
    shares.insert("trace.other.self_frac", other / wall_ns);
    let in_events: f64 = ["sim.deliver", "sim.timer", "sim.scenario"]
        .into_iter()
        .map(total)
        .sum();
    shares.insert("trace.engine.self_frac", (wall_ns - in_events) / wall_ns);
    out.values
        .insert("trace.share_sum", shares.values().sum::<f64>());
    out.values.extend(shares);
    if !rebuild.is_empty() {
        let count = rebuild.iter().map(|s| s.count).sum::<u64>() as f64 / traced.len() as f64;
        out.values.insert("trace.route.rebuild.count", count);
        let p50: Vec<f64> = rebuild.iter().map(|s| s.total_p50_ns).collect();
        out.values.insert(
            "trace.route.rebuild.p50_ns",
            stats::median(&p50).expect("non-empty"),
        );
    }
}

/// Runs a simulated workload: reps until the time is spent, first rep
/// discarded as warm-up; in a traced run every other rep has the program's
/// profiler on.
pub fn run_sim(w: SimWorkload, args: &RunArgs, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let tid = procfs::current_tid().expect("/proc/thread-self");
    let plan = sim::plan(w, args.seed, w.horizon_s());
    let budget_s = if args.trace {
        args.seconds as f64 * TRACED_SHARE
    } else {
        args.seconds as f64
    };

    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_after_first = 0.0;
    loop {
        let n = reps.len();
        let traced = args.trace && n % 2 == 1;
        reps.push(sim::run_rep(&plan, traced, 1, spans, tid));
        if n == 0 {
            // One whole simulation in a fresh process. Later reps add only
            // allocator creep (12.7 MB grows to 18–31 MB over 30 reps of
            // `sim_fwd_churn`), which is not the program's memory.
            rss_after_first = procfs::peak_rss_mb().expect("VmHWM");
        }
        let measured = &reps[1..];
        let enough = measured.iter().any(|r| !r.traced())
            && (!args.trace || measured.iter().any(|r| r.traced()));
        if enough && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }

    let first = &reps[0].harvest;
    for (i, r) in reps.iter().enumerate() {
        if r.harvest.fingerprint != first.fingerprint || r.harvest.counts != first.counts {
            out.violations.push(format!(
                "rep {i}: fingerprint {:#x} differs from rep 0's {:#x}",
                r.harvest.fingerprint, first.fingerprint
            ));
        }
        out.violations
            .extend(r.harvest.violations.iter().map(|v| format!("rep {i}: {v}")));
    }

    let measured = &reps[1..];
    let plain: Vec<&Rep> = measured.iter().filter(|r| !r.traced()).collect();
    let traced: Vec<&Rep> = measured.iter().filter(|r| r.traced()).collect();
    let med = |v: Vec<f64>| stats::median(&v).expect("at least one measured rep");
    let sim_s = w.horizon_s() as f64;
    let run_wall_s = med(plain.iter().map(|r| r.run_wall_s).collect());
    let wall_ms_per_sim_s = run_wall_s * 1000.0 / sim_s;

    out.attempted = measured.iter().map(|r| r.harvest.sent).sum();
    out.failed = measured.iter().map(|r| r.harvest.failed).sum();
    out.values
        .extend(first.counts.iter().map(|(&k, &v)| (k, v)));
    out.values.insert(
        "netsim.events_per_wall_s",
        first.counts["netsim.events"] / run_wall_s,
    );
    out.values.insert(
        "overlay.fwd_pkts_per_wall_s",
        first.counts["overlay.forwarded"] / run_wall_s,
    );

    if args.trace {
        per_node(&mut out, &first.footprint, first.nodes);
        trace_shares(&mut out, &traced);
        let traced_ms = med(traced.iter().map(|r| r.run_wall_s).collect()) * 1000.0 / sim_s;
        out.values
            .insert("trace.overhead_frac", traced_ms / wall_ms_per_sim_s - 1.0);
        run_probes(&mut out, spans, args);
        bench_spans(&mut out, spans);
    } else {
        out.values
            .insert("setup_s", med(plain.iter().map(|r| r.build_s).collect()));
        out.values.insert("wall_ms_per_sim_s", wall_ms_per_sim_s);
        out.values.insert("peak_rss_mb", rss_after_first);
        out.values.insert(
            "cpu_us_per_delivered_pkt",
            med(plain
                .iter()
                .map(|r| r.run_cpu_s * 1e6 / r.harvest.delivered.max(1) as f64)
                .collect()),
        );
    }

    out.detail = vec![
        ("reps", Json::U64(reps.len() as u64)),
        ("measured_reps", Json::U64(plain.len() as u64)),
        ("traced_reps", Json::U64(traced.len() as u64)),
        ("sim_seconds_per_rep", Json::U64(w.horizon_s())),
        (
            "fingerprint",
            Json::str(&format!("{:#018x}", first.fingerprint)),
        ),
        (
            "rep_traced",
            Json::Arr(reps.iter().map(|r| Json::Bool(r.traced())).collect()),
        ),
        ("rep_build_s", f64s(reps.iter().map(|r| r.build_s))),
        ("rep_run_wall_s", f64s(reps.iter().map(|r| r.run_wall_s))),
        ("rep_run_cpu_s", f64s(reps.iter().map(|r| r.run_cpu_s))),
        ("rep_harvest_s", f64s(reps.iter().map(|r| r.harvest_s))),
        ("sent_per_rep", Json::U64(first.sent)),
        ("delivered_per_rep", Json::U64(first.delivered)),
        ("on_time_per_rep", Json::U64(first.on_time)),
        (
            "peak_rss_at_exit_mb",
            Json::F64(procfs::peak_rss_mb().expect("VmHWM")),
        ),
    ];
    out
}

/// Throwaway clusters whose spawn-to-first-delivery time is `setup_s`.
const SETUP_CLUSTERS: usize = 9;

fn chunk_rows(w: &udp::Window) -> Json {
    Json::Arr(
        w.chunks
            .iter()
            .map(|c| {
                let q = |q| stats::quantile_checked(&c.added_us, q).map_or(Json::Null, Json::F64);
                Json::obj(vec![
                    ("wall_s", Json::F64(c.wall_s)),
                    ("delivered", Json::U64(c.delivered as u64)),
                    ("added_p50_us", q(0.50)),
                    ("added_p90_us", q(0.90)),
                    ("added_p99_us", q(0.99)),
                    (
                        "highest_supported_percentile",
                        Json::F64(stats::highest_supported(c.delivered)),
                    ),
                    (
                        "daemon_cpu_ns",
                        Json::Arr(c.cpu_ns.iter().map(|&n| Json::U64(n)).collect()),
                    ),
                    ("voluntary_switches", Json::U64(c.voluntary_switches)),
                ])
            })
            .collect(),
    )
}

/// Runs the UDP workload. Untraced: set-up clusters, then one paced cluster
/// for `--seconds`. Traced: a shorter paced cluster with 1-in-16 ingress
/// tracing, a flooded one, and the probes.
pub fn run_udp(args: &RunArgs, spans: &mut Spans) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let window_ms = if args.trace {
        (args.seconds as f64 * 1000.0 * 0.5) as u64
    } else {
        args.seconds * 1000
    };
    if !args.trace {
        let setups = udp::setup_samples(args.seed, SETUP_CLUSTERS)?;
        out.values
            .insert("setup_s", stats::median(&setups).expect("nine clusters"));
        out.detail.push(("setup_samples_s", f64s(setups)));
    }
    let paced = udp::run_cluster(
        ClusterSpec {
            seed: args.seed,
            interval_us: 1000,
            start_ms: 800,
            window_ms,
            trace_sample: if args.trace { 16 } else { 0 },
            chunks: udp::CHUNKS,
        },
        spans,
    )?;
    let w = udp::window(&paced);
    out.violations = udp::violations(&paced, &w);
    out.attempted = w.attempted;
    out.failed = udp::failed(&paced, &w);

    let mut counts = BTreeMap::new();
    paced.nodes.counts_into(&mut counts);
    let mut latencies = paced.recv.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    sim::delivery_counts_into(
        &mut counts,
        &latencies,
        w.delivered as f64 / w.attempted.max(1) as f64,
        paced.counters.get("pipe.bytes") as f64 / (paced.recv.received * 1000).max(1) as f64,
    );
    out.values.extend(counts);
    out.values
        .insert("node.pipe.sent", paced.counters.get("pipe.sent") as f64);
    out.values
        .insert("node.decode_errors", paced.decode_errors as f64);
    out.values
        .insert("node.unknown_pipe", paced.unknown_pipe as f64);

    let over_chunks =
        |figure: &dyn Fn(&udp::Chunk) -> Option<f64>| stats::median_of_chunks(&w.chunks, figure);
    if args.trace {
        let busy = over_chunks(&|c| Some(c.busiest_thread_frac()));
        out.values
            .insert("node.cpu_busy_frac.paced", busy.expect("five chunks"));
        let wakeups = over_chunks(&|c| Some(c.voluntary_switches as f64 / c.wall_s));
        out.values
            .insert("node.idle_wakeups_per_s", wakeups.expect("five chunks"));
        out.values.insert(
            "node.rate_frac.paced",
            w.attempted as f64 / (w.wall_s * 1000.0),
        );
        let seg = udp::segments(&paced);
        for (name, v) in [
            ("node.seg.hop01_excess_p50_us", &seg.hop01_excess_us),
            ("node.seg.hop12_excess_p50_us", &seg.hop12_excess_us),
            ("node.seg.client_handoff_p50_us", &seg.client_handoff_us),
        ] {
            if let Some(m) = stats::median(v) {
                out.values.insert(name, m);
            }
        }
        out.detail.push((
            "traced_packets",
            Json::U64(seg.hop01_excess_us.len() as u64),
        ));
        per_node(&mut out, &paced.nodes.footprint, udp::NODES);

        // The same chain offered a packet every 50 µs: the single client
        // re-arms from the frozen per-dispatch clock, so it sends one packet
        // per run-loop wake-up and the daemons stay mostly idle. The send
        // cap is the run loop's sleep, not the processor (design rule 3).
        let flood_ms = ((args.seconds as f64 * 1000.0 * 0.3) as u64).clamp(1000, 8000);
        let flood = udp::run_cluster(
            ClusterSpec {
                seed: args.seed,
                interval_us: 50,
                start_ms: 800,
                window_ms: flood_ms,
                trace_sample: 0,
                chunks: 1,
            },
            spans,
        )?;
        let fw = udp::window(&flood);
        out.violations.extend(
            udp::violations(&flood, &fw)
                .into_iter()
                .map(|v| format!("flood: {v}")),
        );
        out.values
            .insert("node.client_rate_cap_pps", fw.attempted as f64 / fw.wall_s);
        out.values.insert(
            "node.cpu_busy_frac.flood",
            fw.chunks[0].busiest_thread_frac(),
        );
        run_probes(&mut out, spans, args);
        bench_spans(&mut out, spans);
    } else {
        let cpu = over_chunks(&udp::Chunk::cpu_us_per_delivered_pkt);
        out.values
            .insert("cpu_us_per_delivered_pkt", cpu.expect("five chunks"));
        let p50 = over_chunks(&|c| stats::quantile_checked(&c.added_us, 0.50));
        out.values
            .insert("added_latency_p50_us", p50.expect("five chunks"));
        // Only with ten samples beyond it in a chunk (design rule 5).
        if let Some(p99) = over_chunks(&|c| stats::quantile_checked(&c.added_us, 0.99)) {
            out.values.insert("added_latency_p99_us", p99);
        }
        out.values
            .insert("peak_rss_mb", procfs::peak_rss_mb().expect("VmHWM"));
    }
    out.detail.extend([
        ("window_s", Json::F64(w.wall_s)),
        ("sent_whole_run", Json::U64(paced.sent)),
        ("delivered_in_window", Json::U64(w.delivered)),
        ("chunks", chunk_rows(&w)),
    ]);
    Ok(out)
}
