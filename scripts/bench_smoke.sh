#!/usr/bin/env bash
# Smoke-runs the data-plane benchmark suite: every criterion group in quick
# mode plus the exp_throughput and exp_scale macro-benchmarks in --smoke
# mode. Catches benchmarks that no longer compile or panic without paying
# full-measurement time. The smoke runs write their rows to scratch files so
# the committed BENCH_forwarding.json / BENCH_scale.json (full-run results)
# are left untouched — but the smoke results are gated against the committed
# baselines: >30% throughput regression, >5% tracing or profiler overhead,
# superlinear per-node memory growth, and >10% per-node memory regression
# all fail the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo bench --workspace (smoke: --test)"
cargo bench --workspace -- --test

echo "==> exp_throughput --smoke"
SMOKE_OUT=target/obs/BENCH_forwarding.smoke.json
BENCH_OUT="$SMOKE_OUT" \
    cargo run --release -p son-bench --bin exp_throughput -- --smoke

# Throughput regression guard: extract sim_pkts_per_wall_s from the smoke
# rows of the fresh run and of the committed baseline, and fail if the
# fresh figure fell more than 30% below the baseline. (Wall-clock noise on
# shared runners is why the bar is this generous; a real fast-path
# regression shows up far larger.)
extract_smoke_pps() {
    grep '"bench":"exp_throughput"' "$1" | grep '"mode":"smoke"' \
        | sed -n 's/.*"sim_pkts_per_wall_s":\([0-9.eE+-]*\).*/\1/p' | tail -1
}
baseline=$(extract_smoke_pps BENCH_forwarding.json)
fresh=$(extract_smoke_pps "$SMOKE_OUT")
if [ -z "$baseline" ]; then
    echo "ERROR: no smoke-mode baseline row in BENCH_forwarding.json" >&2
    echo "(regenerate: cargo run --release -p son-bench --bin exp_throughput," >&2
    echo " then append the smoke row from a BENCH_OUT=... --smoke run)" >&2
    exit 1
fi
if [ -z "$fresh" ]; then
    echo "ERROR: smoke run wrote no exp_throughput row to $SMOKE_OUT" >&2
    exit 1
fi
echo "smoke throughput: $fresh sim pkts/wall s (baseline $baseline)"
awk -v fresh="$fresh" -v base="$baseline" 'BEGIN {
    floor = base * 0.70;
    if (fresh < floor) {
        printf "ERROR: smoke throughput %.0f fell >30%% below the committed baseline %.0f (floor %.0f)\n", fresh, base, floor;
        exit 1;
    }
    printf "throughput guard passed (floor %.0f)\n", floor;
}'

# Tracing overhead guard: the same smoke run re-executes the workload with
# 1-in-64 trace sampling AND per-epoch telemetry snapshot emission on and
# writes a mode:"traced" row (the row carries "telemetry":true); the whole
# observability stack — sampling, watchdog, telemetry plane — must cost at
# most 5% of forwarding throughput against the in-run untraced figure (same
# machine, same moment — wall-clock noise mostly cancels).
extract_traced_pps() {
    grep '"bench":"exp_throughput"' "$1" | grep '"mode":"traced"' \
        | sed -n 's/.*"sim_pkts_per_wall_s":\([0-9.eE+-]*\).*/\1/p' | tail -1
}
traced=$(extract_traced_pps "$SMOKE_OUT")
if [ -z "$traced" ]; then
    echo "ERROR: smoke run wrote no traced-mode exp_throughput row to $SMOKE_OUT" >&2
    exit 1
fi
echo "traced throughput: $traced sim pkts/wall s (untraced $fresh)"
awk -v traced="$traced" -v base="$fresh" 'BEGIN {
    floor = base * 0.95;
    if (traced < floor) {
        printf "ERROR: traced throughput %.0f is >5%% below the untraced run %.0f (floor %.0f)\n", traced, base, floor;
        exit 1;
    }
    printf "tracing overhead guard passed (floor %.0f)\n", floor;
}'

# Sharded scaling guard: the smoke run re-executes the workload on the
# parallel engine (mode:"sharded", 4 shards by default) and records its
# speedup over the in-run sequential figure. exp_throughput stamps the row
# with an explicit "gate" field — "enforced" on hosts with >= 4 cores,
# "skipped" where the bar cannot be met by construction (the shards
# time-slice too few cores) — so the decision is recorded in the data
# instead of being re-derived here. Bit-identity of the sharded replay is
# asserted inside exp_throughput itself and by the shard_parity suite.
extract_sharded_field() {
    grep '"bench":"exp_throughput"' "$1" | grep '"mode":"sharded"' \
        | sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p" | tail -1
}
extract_sharded_gate() {
    grep '"bench":"exp_throughput"' "$1" | grep '"mode":"sharded"' \
        | sed -n 's/.*"gate":"\([a-z]*\)".*/\1/p' | tail -1
}
sharded_speedup=$(extract_sharded_field "$SMOKE_OUT" speedup_vs_seq)
host_par=$(extract_sharded_field "$SMOKE_OUT" host_parallelism)
sharded_gate=$(extract_sharded_gate "$SMOKE_OUT")
if [ -z "$sharded_speedup" ] || [ -z "$host_par" ]; then
    echo "ERROR: smoke run wrote no sharded-mode exp_throughput row to $SMOKE_OUT" >&2
    exit 1
fi
if [ -z "$sharded_gate" ]; then
    echo "ERROR: sharded-mode row in $SMOKE_OUT lacks the \"gate\" field" >&2
    exit 1
fi
if ! grep '"bench":"exp_throughput"' BENCH_forwarding.json | grep '"mode":"sharded"' \
        | grep -q '"gate":"'; then
    echo "ERROR: no sharded-mode baseline row with a \"gate\" field in BENCH_forwarding.json" >&2
    echo "(regenerate: cargo run --release -p son-bench --bin exp_throughput)" >&2
    exit 1
fi
echo "sharded speedup: ${sharded_speedup}x vs sequential (host parallelism $host_par, gate $sharded_gate)"
if [ "$sharded_gate" = "enforced" ]; then
    awk -v s="$sharded_speedup" 'BEGIN {
        if (s < 1.8) {
            printf "ERROR: sharded speedup %.2fx is below the 1.8x-at-4-shards gate\n", s;
            exit 1;
        }
        printf "sharded scaling guard passed (%.2fx >= 1.8x)\n", s;
    }'
else
    echo "SKIP: sharded scaling gate recorded as \"skipped\" (host parallelism $host_par < 4)." \
         "The 1.8x-at-4-shards bar is not enforceable here — parity (bit-identical" \
         "replay) was still checked."
fi

# Profiler overhead guard: the smoke run re-executes the workload a third
# time with the wall-clock span profiler on (sampled event trees, see
# son-obs::perf) and writes a mode:"perf" row; the always-on profiler must
# also cost at most 5% against the in-run unprofiled figure.
extract_perf_pps() {
    grep '"bench":"exp_throughput"' "$1" | grep '"mode":"perf"' \
        | sed -n 's/.*"sim_pkts_per_wall_s":\([0-9.eE+-]*\).*/\1/p' | tail -1
}
perf=$(extract_perf_pps "$SMOKE_OUT")
if [ -z "$perf" ]; then
    echo "ERROR: smoke run wrote no perf-mode exp_throughput row to $SMOKE_OUT" >&2
    exit 1
fi
echo "profiled throughput: $perf sim pkts/wall s (unprofiled $fresh)"
awk -v perf="$perf" -v base="$fresh" 'BEGIN {
    floor = base * 0.95;
    if (perf < floor) {
        printf "ERROR: profiled throughput %.0f is >5%% below the unprofiled run %.0f (floor %.0f)\n", perf, base, floor;
        exit 1;
    }
    printf "profiler overhead guard passed (floor %.0f)\n", floor;
}'

echo "==> exp_scale --smoke"
SCALE_SMOKE_OUT=target/obs/BENCH_scale.smoke.json
BENCH_OUT="$SCALE_SMOKE_OUT" \
    cargo run --release -p son-bench --bin exp_scale -- --smoke

# Sublinear-memory guards, against the numbers this run measured and the
# committed curve. Memory is deterministic (no wall-clock noise), so the
# bars are tight.
#
# 1. The committed BENCH_scale.json curve must stay on the measured curve:
#    total bytes/node at N=1024 is 11.06x the N=64 row (linear would be
#    16x — every node holds the fleet's link state, but the topology shape
#    is held once per fleet); the cap is that ratio + 10%.
extract_total_bytes() {
    grep '"bench":"exp_scale"' "$1" | grep "\"n\":$2," \
        | sed -n 's/.*"bytes_per_node_total":\([0-9.eE+-]*\).*/\1/p' | tail -1
}
base64=$(extract_total_bytes BENCH_scale.json 64)
base1024=$(extract_total_bytes BENCH_scale.json 1024)
if [ -z "$base64" ] || [ -z "$base1024" ]; then
    echo "ERROR: BENCH_scale.json lacks n=64/n=1024 rows with bytes_per_node_total" >&2
    echo "(regenerate: cargo run --release -p son-bench --bin exp_scale)" >&2
    exit 1
fi
echo "committed total bytes/node: $base64 (n=64) -> $base1024 (n=1024)"
awk -v b64="$base64" -v b1024="$base1024" 'BEGIN {
    cap = b64 * 12.2;
    if (b1024 > cap) {
        printf "ERROR: committed total bytes/node at n=1024 (%.0f) exceeds 12.2x the n=64 row (cap %.0f)\n", b1024, cap;
        exit 1;
    }
    printf "committed sublinearity guard passed (%.1fx over 16x size, cap 12.2x)\n", b1024 / b64;
}'
# 2. The fresh smoke sweep must not regress per-node memory: total
#    bytes/node at N=256 within 10% of the committed n=256 row.
fresh256=$(extract_total_bytes "$SCALE_SMOKE_OUT" 256)
base256=$(extract_total_bytes BENCH_scale.json 256)
if [ -z "$fresh256" ] || [ -z "$base256" ]; then
    echo "ERROR: missing n=256 bytes_per_node_total row (fresh or committed)" >&2
    exit 1
fi
echo "n=256 total bytes/node: $fresh256 (committed $base256)"
awk -v fresh="$fresh256" -v base="$base256" 'BEGIN {
    cap = base * 1.10;
    if (fresh > cap) {
        printf "ERROR: n=256 total bytes/node %.0f grew >10%% over the committed %.0f (cap %.0f)\n", fresh, base, cap;
        exit 1;
    }
    printf "memory regression guard passed (cap %.0f)\n", cap;
}'

# 3. Rebuild-storm guard: the LSA rebuild hold-down must keep cold-start
#    route recomputation near O(N), not O(N^2). The committed n=1024 row
#    must show at most 10,487 reroutes — 100x below the pre-hold-down
#    baseline of 1,048,727 — and the fresh smoke sweep's n=256 row must
#    stay within 10 reroutes/node.
extract_reroutes() {
    grep '"bench":"exp_scale"' "$1" | grep "\"n\":$2," \
        | sed -n 's/.*"reroutes":\([0-9]*\).*/\1/p' | tail -1
}
storm1024=$(extract_reroutes BENCH_scale.json 1024)
if [ -z "$storm1024" ]; then
    echo "ERROR: BENCH_scale.json lacks an n=1024 row with reroutes" >&2
    exit 1
fi
echo "committed n=1024 reroutes: $storm1024 (pre-hold-down baseline 1048727)"
if [ "$storm1024" -gt 10487 ]; then
    echo "ERROR: committed n=1024 reroutes $storm1024 exceeds the 10487 cap" \
         "(100x under the 1048727 cold-start-storm baseline)" >&2
    exit 1
fi
echo "rebuild-storm guard passed (committed: $storm1024 <= 10487)"
fresh_storm256=$(extract_reroutes "$SCALE_SMOKE_OUT" 256)
if [ -z "$fresh_storm256" ]; then
    echo "ERROR: smoke sweep wrote no n=256 reroutes row to $SCALE_SMOKE_OUT" >&2
    exit 1
fi
echo "fresh n=256 reroutes: $fresh_storm256"
if [ "$fresh_storm256" -gt 2560 ]; then
    echo "ERROR: fresh n=256 reroutes $fresh_storm256 exceeds 10/node (cap 2560):" \
         "the rebuild hold-down stopped coalescing the cold-start storm" >&2
    exit 1
fi
echo "fresh rebuild-storm guard passed ($fresh_storm256 <= 2560)"

echo "Bench smoke passed."
