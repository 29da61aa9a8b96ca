//! E1 — Figure 3: hop-by-hop recovery vs end-to-end recovery.
//!
//! "Consider a symmetric network path that spans a continent with a one-way
//! latency of 50ms... a packet recovered end-to-end has at least 100ms of
//! additional latency for a total minimum latency of 150ms. If that network
//! path can be replaced with a series of five 10ms latency overlay links
//! using hop-by-hop recovery, then a recovered packet has only at least 20ms
//! additional latency for a total minimum latency of 70ms."
//!
//! Both configurations run the same Reliable Data Link protocol; the only
//! difference is the topology: one 50 ms link (recovery spans the continent)
//! versus five 10 ms links (recovery is hop-local). We sweep the per-link
//! loss rate and report delivery latency for the packets that needed
//! recovery, plus overall smoothness (jitter).
//!
//! Every run samples 1-in-16 packets for distributed tracing and records
//! every daemon's telemetry snapshot each epoch; `son-trace` reconstructs
//! the exported `exp_fig3.trace.jsonl` into per-packet timelines showing
//! exactly where each recovery happened, and audits the seq numbering of
//! `exp_fig3.telemetry.jsonl`. `--smoke` runs a single reduced loss point
//! for CI.

use super::Opts;
use crate::{export_rows, f, finish_export, obs_sink, row, table_header, UnicastRun};
use son_netsim::loss::LossConfig;
use son_netsim::time::SimDuration;
use son_obs::{registry_rows, TelemetrySnapshot, TraceEvent};
use son_overlay::builder::chain_topology;
use son_overlay::FlowSpec;
use son_topo::NodeId;

pub fn run(opts: &Opts) {
    let smoke = opts.smoke;
    table_header(&[
        ("topology", 18),
        ("loss/link", 9),
        ("delivered", 9),
        ("base ms", 8),
        ("late p50 ms", 13),
        ("late max ms", 13),
        ("p99 ms", 8),
        ("jitter ms", 9),
    ]);

    let mut sink = obs_sink("exp_fig3");
    let mut trace_sink = obs_sink("exp_fig3.trace");
    let mut telemetry_sink = obs_sink("exp_fig3.telemetry");

    // The end-to-end loss probability is matched: one 50ms link at loss p_e
    // vs five 10ms links each at p such that 1-(1-p)^5 = p_e.
    let sweep: &[f64] = if smoke { &[0.02] } else { &[0.005, 0.02, 0.05] };
    for &e2e_loss in sweep {
        let per_link = 1.0 - (1.0 - e2e_loss).powf(0.2);
        for (label, topo, loss, from, to) in [
            (
                "1 x 50ms (e2e)",
                chain_topology(2, 50.0),
                e2e_loss,
                NodeId(0),
                NodeId(1),
            ),
            (
                "5 x 10ms (hbh)",
                chain_topology(6, 10.0),
                per_link,
                NodeId(0),
                NodeId(5),
            ),
        ] {
            let mut run = UnicastRun::new(topo, FlowSpec::reliable(), from, to);
            run.loss = LossConfig::Bernoulli { p: loss };
            run.count = if smoke { 4_000 } else { 20_000 };
            run.interval = SimDuration::from_millis(5);
            run.run_for = SimDuration::from_secs(if smoke { 40 } else { 150 });
            run.seed = 1_000 + (e2e_loss * 1e4) as u64;
            run.node_config.trace_sample = 16;
            let out = run.run();
            let tag = format!("{label}@{:.2}%", loss * 100.0);
            if let Some(sink) = &mut sink {
                let _ = export_rows(sink, &tag, registry_rows(&out.registry));
            }
            if let Some(sink) = &mut trace_sink {
                let _ = export_rows(sink, &tag, out.traces.iter().map(TraceEvent::row));
            }
            if let Some(sink) = &mut telemetry_sink {
                let rows = out.telemetry.iter().map(TelemetrySnapshot::row);
                let _ = export_rows(sink, &tag, rows);
            }

            let mut lat = out.recv.latency_ms();
            // "Late" deliveries are those well above the no-loss baseline
            // (propagation + processing + IPC): the recovered packets plus
            // everything held behind them by in-order delivery, i.e. the
            // full user-visible cost of each loss episode.
            let base = lat.quantile(0.05).unwrap_or(0.0);
            let mut recovered: son_netsim::stats::Percentiles = out
                .recv
                .latencies_ms
                .iter()
                .copied()
                .filter(|&l| l > base + 5.0)
                .collect();
            let (rec_p50, rec_max) = if recovered.count() > 0 {
                (recovered.median().unwrap(), recovered.max().unwrap())
            } else {
                (f64::NAN, f64::NAN)
            };
            row(&[
                (label.to_string(), 18),
                (f(loss * 100.0, 2) + "%", 9),
                (format!("{}/{}", out.recv.received, out.sent), 9),
                (f(base, 1), 8),
                (f(rec_p50, 1), 13),
                (f(rec_max, 1), 13),
                (f(lat.quantile(0.99).unwrap(), 1), 8),
                (f(out.recv.jitter_ms().mean().unwrap_or(0.0), 2), 9),
            ]);
        }
    }

    for s in [sink, trace_sink, telemetry_sink].into_iter().flatten() {
        finish_export(s);
    }
    println!();
    println!("Shape check (paper): recovered-packet latency ~150ms end-to-end vs ~70ms");
    println!("hop-by-hop — hop-by-hop recovery cuts recovery latency by ~2x or more and");
    println!("delivers a smoother stream (lower p99/jitter) at equal end-to-end loss.");
}
