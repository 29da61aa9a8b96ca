//! E14 — the data-plane fast path, measured (§II-D: "less than 1ms
//! additional latency per intermediate overlay node" demands that
//! per-packet work stays far off the critical path).
//!
//! **Forwarding throughput under churn** — multi-flow CBR over the 12-city
//! continental overlay while links flap every couple of seconds, reported
//! as simulated packets forwarded per wall-clock second, then re-run with
//! tracing + telemetry and with the profiler. The rows go to `BENCH_forwarding.json` (`--out` overrides the path) so the
//! perf trajectory is tracked in-repo.
//!
//! `--smoke` shrinks the run to a few seconds for CI.

use std::time::Instant;

use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::{registry_rows, Json};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::{Fleet, FlowSpec};
use son_topo::{EdgeId, NodeId};

use super::Opts;
use crate::{export_rows, f, finish_export, obs_sink, row, table_header, write_bench};

struct ThroughputResult {
    sim_seconds: f64,
    wall_seconds: f64,
    forwarded: u64,
    delivered: u64,
    reroutes: u64,
    /// What the tests pin the run to.
    #[cfg(test)]
    fingerprint: u64,
    /// Heap allocations on this thread during the run.
    allocs: u64,
}

impl ThroughputResult {
    fn pkts_per_wall_s(&self) -> f64 {
        self.forwarded as f64 / self.wall_seconds.max(1e-9)
    }

    fn allocs_per_delivered_pkt(&self) -> f64 {
        self.allocs as f64 / self.delivered.max(1) as f64
    }
}

/// Multi-flow CBR over the 12-city overlay with a link flapping every two
/// seconds: the forwarding fast path under the exact conditions (churn +
/// traffic) the paper's sub-second-rerouting claim assumes. `trace_sample`
/// enables distributed tracing (0 = off) so the traced rerun measures the
/// sampling overhead on the same workload; `perf` enables the wall-clock
/// span profiler (daemons and event loop) so the profiled rerun prices the
/// always-on profiler the same way; `telemetry` streams per-epoch
/// [`son_obs::TelemetrySnapshot`] rows to
/// `target/obs/exp_throughput.telemetry.jsonl` through
/// [`Fleet::run_with_telemetry`], rendering every row inside the timed
/// window, so the traced row also prices the telemetry plane.
fn throughput_under_churn(
    smoke: bool,
    trace_sample: u32,
    perf: bool,
    telemetry: bool,
) -> (ThroughputResult, son_obs::Registry) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    // The traced rerun also runs the full anomaly watchdog (with adaptive
    // sampling), so the ≤5% overhead gate prices the whole observability +
    // remediation stack, not just the sampling.
    let node_config = son_overlay::NodeConfig {
        trace_sample,
        perf,
        watch: trace_sample > 0,
        ..son_overlay::NodeConfig::default()
    };
    let mut fleet = Fleet::new(
        7,
        Some(sc.underlay),
        OverlayBuilder::new(topo.clone())
            .place_in_cities(cities)
            .node_config(node_config),
    );
    if perf {
        fleet.sim.enable_perf();
    }

    let run_secs = if smoke { 3 } else { 20 };
    // Each flow crosses the country: city `a` to the one six places on.
    for a in 0..if smoke { 3 } else { 8 } {
        fleet.flow(
            NodeId(a),
            NodeId((a + 6) % 12),
            FlowSpec::best_effort(),
            Workload::Cbr {
                size: 1000,
                interval: SimDuration::from_millis(2),
                count: u64::MAX,
                start: SimTime::from_millis(500),
            },
        );
    }
    // Churn: flap one overlay link per two-second window (down one second,
    // back up the next), cycling over the topology's edges.
    let edges: Vec<EdgeId> = topo.edges().collect();
    for (window, down_at) in (1..run_secs).step_by(2).enumerate() {
        fleet.edge_outage(
            edges[window % edges.len()],
            SimTime::from_secs(down_at),
            SimDuration::from_secs(1),
        );
    }

    let run_for = SimTime::from_secs(run_secs);
    let allocs = son_obs::alloc::thread_allocations();
    let wall = Instant::now();
    let mut telemetry_rows = String::new();
    if telemetry {
        telemetry_rows.reserve(64 * 1024);
        fleet.run_with_telemetry(run_for, |snap| {
            snap.write_row_json(&mut telemetry_rows);
            telemetry_rows.push('\n');
        });
    } else {
        fleet.run(run_for);
    }
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = son_obs::alloc::thread_allocations() - allocs;
    if telemetry {
        // Producing and serializing every epoch is priced inside the timed
        // window above; the file itself lands afterwards, like every other
        // obs export.
        let _ = std::fs::create_dir_all("target/obs");
        let _ = std::fs::write("target/obs/exp_throughput.telemetry.jsonl", &telemetry_rows);
    }

    let result = ThroughputResult {
        sim_seconds: run_for.as_secs_f64(),
        wall_seconds,
        forwarded: fleet.forwarded(),
        delivered: fleet.delivered(),
        reroutes: fleet.reroutes(),
        #[cfg(test)]
        fingerprint: fleet.sim.fingerprint(),
        allocs,
    };
    (result, fleet.registry())
}

pub fn run(opts: &Opts) {
    let smoke = opts.smoke;

    // The workload, then the same workload with 1-in-64 trace sampling,
    // the watchdog AND per-epoch telemetry emission on (so the ≤5% gate
    // prices the whole observability stack), and with the profiler on.
    // Each mode reports its best run: the sim is
    // deterministic (the counters are identical every time), so wall-clock
    // spread is scheduler noise and the minimum is the honest cost figure.
    // Iterations are interleaved (untraced, traced, untraced, ...) so a
    // load spike on the host degrades every mode instead of biasing one.
    println!("forwarding under churn (12-city overlay, CBR flows, links flapping):");
    let modes = [
        (if smoke { "smoke" } else { "full" }, 0, false, false),
        ("traced", 64, false, true),
        ("perf", 0, true, false),
    ];
    let mut best: [Option<(ThroughputResult, son_obs::Registry)>; 3] = [None, None, None];
    for _ in 0..if smoke { 16 } else { 3 } {
        for (best, (_, trace_sample, perf, telemetry)) in best.iter_mut().zip(modes) {
            let run = throughput_under_churn(smoke, trace_sample, perf, telemetry);
            if best
                .as_ref()
                .is_none_or(|b| run.0.wall_seconds < b.0.wall_seconds)
            {
                *best = Some(run);
            }
        }
    }
    let [(t, registry), (traced, _), (profiled, _)] =
        best.map(|run| run.expect("at least one iteration"));
    table_header(&[
        ("mode", 8),
        ("sim s", 8),
        ("wall s", 8),
        ("forwarded", 12),
        ("delivered", 12),
        ("reroutes", 10),
        ("sim pkts/wall s", 16),
    ]);
    let host_par = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut bench = Vec::new();
    let results = [&t, &traced, &profiled];
    for ((mode, trace_sample, _, telemetry), r) in modes.into_iter().zip(results) {
        row(&[
            (mode.to_string(), 8),
            (f(r.sim_seconds, 1), 8),
            (f(r.wall_seconds, 2), 8),
            (r.forwarded.to_string(), 12),
            (r.delivered.to_string(), 12),
            (r.reroutes.to_string(), 10),
            (f(r.pkts_per_wall_s(), 0), 16),
        ]);
        bench.push(Json::obj(vec![
            ("bench", Json::str("exp_throughput")),
            ("mode", Json::str(mode)),
            ("trace_sample", Json::U64(u64::from(trace_sample))),
            ("telemetry", Json::Bool(telemetry)),
            ("host_parallelism", Json::U64(host_par as u64)),
            ("sim_seconds", Json::F64(r.sim_seconds)),
            ("wall_seconds", Json::F64(r.wall_seconds)),
            ("forwarded", Json::U64(r.forwarded)),
            ("delivered", Json::U64(r.delivered)),
            ("reroutes", Json::U64(r.reroutes)),
            ("sim_pkts_per_wall_s", Json::F64(r.pkts_per_wall_s())),
            (
                "speedup_vs_seq",
                Json::F64(r.pkts_per_wall_s() / t.pkts_per_wall_s().max(1e-9)),
            ),
            (
                "allocs_per_delivered_pkt",
                Json::F64(r.allocs_per_delivered_pkt()),
            ),
        ]));
    }
    println!(
        "\ntracing overhead: {:.1}% (traced vs untraced pkts/wall s; budget: <= 5%)",
        (1.0 - traced.pkts_per_wall_s() / t.pkts_per_wall_s()) * 100.0
    );
    println!(
        "profiler overhead: {:.1}% (perf vs untraced pkts/wall s; budget: <= 5%)",
        (1.0 - profiled.pkts_per_wall_s() / t.pkts_per_wall_s()) * 100.0
    );
    write_bench(
        opts.out.as_deref().unwrap_or("BENCH_forwarding.json"),
        &bench,
    );

    // Registry rows (per-node counters, pipe stats) go to the obs dir like
    // every other experiment.
    if let Some(mut sink) = obs_sink("exp_throughput") {
        let _ = export_rows(&mut sink, "churn_throughput", registry_rows(&registry));
        finish_export(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_built_smoke_run_matches_the_parent_commit() {
        // Recorded at f6b3f84, before `Fleet` built this run (the same
        // forwarded and delivered counts as the committed smoke row of
        // `BENCH_forwarding.json`); the fingerprints were re-recorded when
        // pipes began counting encoded frame bytes (`pipe.bytes`), and with
        // the reroutes (180 before) when a cold start stopped flooding
        // LSAs that say what the configuration does.
        // The profiler must not move them; tracing changes what the
        // daemons put on the wire.
        for (trace_sample, perf, telemetry, fingerprint) in [
            (0, false, false, 0xe240_5c6f_24f3_6664),
            (0, true, false, 0xe240_5c6f_24f3_6664),
            (64, false, true, 0xe394_e4ca_f757_7839_u64),
        ] {
            let (r, _) = throughput_under_churn(true, trace_sample, perf, telemetry);
            assert_eq!(r.fingerprint, fingerprint);
            assert_eq!((r.forwarded, r.delivered, r.reroutes), (8_729, 3_719, 48));
        }
    }

    #[test]
    fn forwarding_under_churn_allocates_under_half_a_block_per_delivered_packet() {
        // The full run's eight flows are the shape of the benchmark's
        // `sim_fwd_churn`. It read 0.33 before receivers kept their seqs in
        // bitmaps and drained event-queue buckets lent their buffers on.
        let (r, _) = throughput_under_churn(false, 0, false, false);
        let per_pkt = r.allocs_per_delivered_pkt();
        assert!(
            per_pkt <= 0.5,
            "{} allocations, {} delivered",
            r.allocs,
            r.delivered
        );
    }
}
