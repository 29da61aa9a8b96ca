#!/usr/bin/env bash
# Smoke-runs the throughput and scale macro-benchmarks in --smoke mode (the
# per-layer micro-measurements are the repo benchmark's probes, see
# BENCHMARK.json). The smoke runs write their rows to scratch files, so the
# committed BENCH_forwarding.json / BENCH_scale.json (full-run results) are
# left untouched, and `son-exp gate` holds the fresh rows against the
# committed ones: each gate line below is one check, and a missing row or
# field fails it by name. Every gate runs and prints its verdict, whatever
# an earlier one said (a deterministic memory gate must not hide behind a
# noisy wall-clock one); the script exits 1 at the end if any failed.
set -euo pipefail
cd "$(dirname "$0")/.."
son_exp() { cargo run --release -q -p son-bench --bin son-exp -- "$@"; }
gates=0 failed=0
gate() {
    gates=$((gates + 1))
    if ! son_exp gate "$@"; then
        echo "gate FAILED: son-exp gate $*"
        failed=$((failed + 1))
    fi
}

echo "==> son-exp throughput --smoke"
FWD=target/obs/BENCH_forwarding.smoke.json
son_exp throughput --smoke --out "$FWD"
tp=bench=exp_throughput
pps=sim_pkts_per_wall_s
# Throughput regression: no more than 30% below the committed smoke row.
# (Wall-clock noise on shared runners is why the bar is this generous; a
# real fast-path regression shows up far larger.)
gate "$FWD" $tp,mode=smoke "$pps>=0.70*$pps" BENCH_forwarding.json $tp,mode=smoke
# Observability overhead: the traced rerun (1-in-64 sampling, watchdog and
# per-epoch telemetry emission) and the profiled rerun each cost at most 5%
# against the in-run plain figure (same machine, same moment).
gate "$FWD" $tp,mode=traced "$pps>=0.95*$pps" "$FWD" $tp,mode=smoke
gate "$FWD" $tp,mode=perf "$pps>=0.95*$pps" "$FWD" $tp,mode=smoke

echo "==> son-exp scale --smoke"
SCALE=target/obs/BENCH_scale.smoke.json
son_exp scale --smoke --out "$SCALE"
sc=bench=exp_scale
mem=bytes_per_node_total
# Memory is deterministic (no wall-clock noise), so the bars are tight.
# The committed curve stays sublinear: total bytes/node at N=1024 was 7.30x
# the N=64 row when the cap was set (linear would be 16x); the cap is that
# ratio + 10%. It read 3.28x once daemons shared the configured topology,
# and read 4.81x since a daemon's metrics registry stores its node label
# once: a smaller per-node constant raises the ratio. It reads 0.91x since
# a cold start floods nothing and a daemon holds link-state pages only for
# the origins it heard.
gate BENCH_scale.json $sc,n=1024 "$mem<=8.03*$mem" BENCH_scale.json $sc,n=64
# The fresh sweep's N=256 stays within 10% of the committed N=256 row.
gate "$SCALE" $sc,n=256 "$mem<=1.10*$mem" BENCH_scale.json $sc,n=256
# The per-node budget at the largest committed N (ROADMAP item 7): 136 KB
# with 24-byte link-state entries, ≈ 87 KB with 12-byte ones, ≈ 85 KB since
# the metrics registry stores a daemon's node label once.
gate BENCH_scale.json $sc,n=4096 "$mem<=100000"
# Rebuild storm: the LSA hold-down keeps cold-start route recomputation near
# O(N) — committed N=1024 at most 10,487 reroutes (100x below the
# pre-hold-down 1,048,727), fresh N=256 within 10 per node.
gate BENCH_scale.json $sc,n=1024 'reroutes<=10487'
gate "$SCALE" $sc,n=256 'reroutes<=2560'

if [ "$failed" -gt 0 ]; then
    echo "Bench smoke: $failed of $gates gates failed." >&2
    exit 1
fi
echo "Bench smoke: every gate held ($gates)."
