#!/usr/bin/env bash
# Smoke-runs the throughput and scale macro-benchmarks in --smoke mode (the
# per-layer micro-measurements are the repo benchmark's probes, see
# BENCHMARK.json). The smoke runs write their rows to scratch files, so the
# committed BENCH_forwarding.json / BENCH_scale.json (full-run results) are
# left untouched, and `son-exp gate` holds the fresh rows against the
# committed ones: each gate line below is one check, and a missing row or
# field fails it by name.
set -euo pipefail
cd "$(dirname "$0")/.."
son_exp() { cargo run --release -q -p son-bench --bin son-exp -- "$@"; }

echo "==> son-exp throughput --smoke"
FWD=target/obs/BENCH_forwarding.smoke.json
son_exp throughput --smoke --out "$FWD"
tp=bench=exp_throughput
pps=sim_pkts_per_wall_s
# Throughput regression: no more than 30% below the committed smoke row.
# (Wall-clock noise on shared runners is why the bar is this generous; a
# real fast-path regression shows up far larger.)
son_exp gate "$FWD" $tp,mode=smoke "$pps>=0.70*$pps" BENCH_forwarding.json $tp,mode=smoke
# Observability overhead: the traced rerun (1-in-64 sampling, watchdog and
# per-epoch telemetry emission) and the profiled rerun each cost at most 5%
# against the in-run plain figure (same machine, same moment).
son_exp gate "$FWD" $tp,mode=traced "$pps>=0.95*$pps" "$FWD" $tp,mode=smoke
son_exp gate "$FWD" $tp,mode=perf "$pps>=0.95*$pps" "$FWD" $tp,mode=smoke
# Sharded scaling: the row carries its own "gate" decision — "enforced" on
# hosts with >= 4 cores, "skipped" where 4 shards time-slice fewer — and the
# 1.8x bar applies only to an enforced row. A sharded row without the field,
# fresh or committed, is a failure. (Bit-identity of the sharded replay is
# asserted inside the experiment and by the shard_parity suite.)
son_exp gate "$FWD" $tp,mode=sharded,gate 'speedup_vs_seq>=1.8'
son_exp gate BENCH_forwarding.json $tp,mode=sharded,gate ''

echo "==> son-exp scale --smoke"
SCALE=target/obs/BENCH_scale.smoke.json
son_exp scale --smoke --out "$SCALE"
sc=bench=exp_scale
mem=bytes_per_node_total
# Memory is deterministic (no wall-clock noise), so the bars are tight.
# The committed curve stays sublinear: total bytes/node at N=1024 was 7.30x
# the N=64 row when the cap was set (linear would be 16x); the cap is that
# ratio + 10%. It reads 4.90x since daemons share the configured topology.
son_exp gate BENCH_scale.json $sc,n=1024 "$mem<=8.03*$mem" BENCH_scale.json $sc,n=64
# The fresh sweep's N=256 stays within 10% of the committed N=256 row.
son_exp gate "$SCALE" $sc,n=256 "$mem<=1.10*$mem" BENCH_scale.json $sc,n=256
# The per-node budget at the largest committed N (ROADMAP item 7): 136 KB
# with 24-byte link-state entries, ≈ 87 KB with 12-byte ones.
son_exp gate BENCH_scale.json $sc,n=4096 "$mem<=100000"
# Rebuild storm: the LSA hold-down keeps cold-start route recomputation near
# O(N) — committed N=1024 at most 10,487 reroutes (100x below the
# pre-hold-down 1,048,727), fresh N=256 within 10 per node.
son_exp gate BENCH_scale.json $sc,n=1024 'reroutes<=10487'
son_exp gate "$SCALE" $sc,n=256 'reroutes<=2560'

echo "Bench smoke: every gate held."
