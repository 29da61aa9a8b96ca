//! E16 — the scale observatory (§VII: the overlay is built to grow, so the
//! repo tracks *how* it grows, not just whether it works).
//!
//! Sweeps seeded ring-with-chords overlays at N ∈ {64, 256, 1024} (4096
//! behind `--full`, a ~2-minute run; `--smoke` stops at 256 for CI) and
//! reports, per N: simulated packets forwarded per wall-clock second,
//! retained bytes per node broken down by subsystem, the fleet-wide
//! `route.rebuild` latency percentiles — what installing one topology
//! change costs a daemon as the link-state view grows — and how many SPTs
//! the daemons ran (`spt_builds`: one per version a daemon read).
//!
//! Results land in two places:
//!
//! - `BENCH_scale.json` (override with `--out`): one locked row per N,
//!   gated by `scripts/bench_smoke.sh` — bytes/node must stay sublinear in
//!   N relative to the committed curve, and the cold-start rebuild count
//!   must stay near O(N).
//! - `<obs dir>/scale.jsonl`: the same rows plus the absorbed profiler's
//!   per-stage rows for each N (`run` = `n64`, `n256`, …).

use son_obs::{perf_rows, Json};

use super::Opts;
use crate::scale::{run_scale, ScaleResult, SCALE_FLOWS, SCALE_SEED};
use crate::{export_rows, f, finish_export, obs_sink, row, table_header, write_bench};

/// Virtual-time horizon per run: long enough for convergence, the mid-run
/// link cut at 1.5s, recovery at 2.2s, and steady state after — and short
/// of the 5s LSA refresh, whose fleet-wide flood would swamp the figures.
const SIM_SECONDS: u64 = 3;

/// Bytes/node grows with N (every node holds the fleet's link state) but
/// below linearly, because the topology's shape and every LSA's adverts are
/// held once per fleet: the committed curve sits at 0.53x / 0.46x / 0.44x of
/// linear for N = 256 / 1024 / 4096 over N = 64. The gate is the worst of
/// those + 10%.
const SUBLINEAR_SLACK: f64 = 0.6;

/// `(p50, p99)` of one route rebuild, ns (zeros if none was profiled).
fn reroute_ns(r: &ScaleResult) -> (f64, f64) {
    let stage = r.reroute_stage();
    stage.map_or((0.0, 0.0), |s| (s.total_p50_ns, s.total_p99_ns))
}

fn bench_row(r: &ScaleResult, mode: &str) -> Json {
    let per_node: Vec<(String, Json)> = r
        .bytes_per_node()
        .into_iter()
        .map(|(label, b)| (label.to_owned(), Json::F64(b)))
        .collect();
    let (reroute_p50_ns, reroute_p99_ns) = reroute_ns(r);
    let allocs = r.allocs as f64 / r.delivered.max(1) as f64;
    Json::obj(vec![
        ("bench", Json::str("exp_scale")),
        ("mode", Json::str(mode)),
        ("n", Json::U64(r.n as u64)),
        ("seed", Json::U64(SCALE_SEED)),
        ("flows", Json::U64(SCALE_FLOWS as u64)),
        ("sim_seconds", Json::F64(r.sim_seconds)),
        ("wall_seconds", Json::F64(r.wall_seconds)),
        ("perf_wall_seconds", Json::F64(r.perf_wall_seconds)),
        ("forwarded", Json::U64(r.forwarded)),
        ("delivered", Json::U64(r.delivered)),
        ("reroutes", Json::U64(r.reroutes)),
        ("spt_builds", Json::U64(r.spt_builds)),
        ("pipe_sent", Json::U64(r.pipe_sent)),
        ("frames_lsa", Json::U64(r.ctl_frames.lsa)),
        ("frames_hello", Json::U64(r.ctl_frames.hello)),
        ("frames_hello_ack", Json::U64(r.ctl_frames.hello_ack)),
        ("frames_other_ctl", Json::U64(r.ctl_frames.other)),
        ("lsdb_complete_frac", Json::F64(r.lsdb_complete_frac)),
        ("sim_pkts_per_wall_s", Json::F64(r.pkts_per_wall_s())),
        ("bytes_per_node", Json::Obj(per_node)),
        ("bytes_per_node_total", Json::F64(r.bytes_per_node_total())),
        ("bytes_per_node_state", Json::F64(r.bytes_per_node_state())),
        ("reroute_p50_ns", Json::F64(reroute_p50_ns)),
        ("reroute_p99_ns", Json::F64(reroute_p99_ns)),
        ("queue_live", Json::U64(r.queue_stats.live as u64)),
        (
            "queue_tombstones_peak",
            Json::U64(r.queue_stats.tombstones_peak as u64),
        ),
        ("queue_compactions", Json::U64(r.queue_stats.compactions)),
        ("allocs_per_delivered_pkt", Json::F64(allocs)),
    ])
}

pub fn run(opts: &Opts) {
    let (smoke, full) = (opts.smoke, opts.full);

    let sizes: &[usize] = if smoke {
        &[64, 256]
    } else if full {
        &[64, 256, 1024, 4096]
    } else {
        &[64, 256, 1024]
    };
    let mode = if smoke { "smoke" } else { "full" };

    let mut bench = Vec::new();
    let mut obs = obs_sink("scale");

    table_header(&[
        ("n", 6),
        ("wall s", 8),
        ("pkts/wall s", 12),
        ("frames", 10),
        ("lsa %", 6),
        ("hello %", 8),
        ("ack %", 6),
        ("other", 6),
        ("lsdb ok", 8),
        ("KiB/node", 10),
        ("state KiB", 10),
        ("reroute p50", 12),
        ("reroute p99", 12),
    ]);
    let mut results: Vec<ScaleResult> = Vec::new();
    for &n in sizes {
        let r = run_scale(n, SIM_SECONDS);
        let (reroute_p50_ns, reroute_p99_ns) = reroute_ns(&r);
        // The frame mix, in percent of everything handed to a link.
        let share = |frames: u64| f(100.0 * frames as f64 / r.pipe_sent.max(1) as f64, 1);
        row(&[
            (n.to_string(), 6),
            (f(r.wall_seconds, 2), 8),
            (f(r.pkts_per_wall_s(), 0), 12),
            (r.pipe_sent.to_string(), 10),
            (share(r.ctl_frames.lsa), 6),
            (share(r.ctl_frames.hello), 8),
            (share(r.ctl_frames.hello_ack), 6),
            (r.ctl_frames.other.to_string(), 6),
            (f(r.lsdb_complete_frac, 3), 8),
            (f(r.bytes_per_node_total() / 1024.0, 1), 10),
            (f(r.bytes_per_node_state() / 1024.0, 1), 10),
            (format!("{:.0}us", reroute_p50_ns / 1e3), 12),
            (format!("{:.0}us", reroute_p99_ns / 1e3), 12),
        ]);
        let row = bench_row(&r, mode);
        if let Some(sink) = &mut obs {
            let run = format!("n{n}");
            let _ = export_rows(sink, &run, std::iter::once(row.clone()));
            let _ = export_rows(sink, &run, perf_rows(&r.perf));
        }
        bench.push(row);
        results.push(r);
    }

    // Subsystem breakdown at the largest N: where the bytes actually live.
    let last = results.last().expect("at least one size");
    println!("\nbytes/node by subsystem at n={}:", last.n);
    let mut parts = last.bytes_per_node();
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (label, b) in parts {
        println!("  {label:>10}  {:>10.1} KiB", b / 1024.0);
    }

    // Top profiler stages at the largest N: where the wall-clock goes.
    println!("\ntop profiler stages at n={} (by self time):", last.n);
    table_header(&[
        ("stage", 16),
        ("count", 12),
        ("self ms", 10),
        ("total ms", 10),
    ]);
    for s in last.perf.top_by_self(10) {
        row(&[
            (s.label.to_string(), 16),
            (s.count.to_string(), 12),
            (f(s.self_ns / 1e6, 1), 10),
            (f(s.total_ns / 1e6, 1), 10),
        ]);
    }

    // The sublinearity invariant, asserted in-process on every run (the
    // committed-curve comparison lives in scripts/bench_smoke.sh). Gated on
    // *total* bytes/node: every subsystem grows with what it holds, so none
    // is left out of the curve.
    let base = &results[0];
    let top = results.last().expect("at least one size");
    let ratio = top.bytes_per_node_total() / base.bytes_per_node_total().max(1.0);
    let linear = top.n as f64 / base.n as f64;
    println!(
        "\ntotal bytes/node growth n={}→{}: {ratio:.1}x (linear would be {linear:.0}x; budget {:.1}x)",
        base.n,
        top.n,
        linear * SUBLINEAR_SLACK
    );
    assert!(
        ratio <= linear * SUBLINEAR_SLACK,
        "total bytes/node left the committed curve: {ratio:.1}x over a {linear:.0}x size increase"
    );

    write_bench(opts.out.as_deref().unwrap_or("BENCH_scale.json"), &bench);
    if let Some(sink) = obs {
        finish_export(sink);
    }
}
