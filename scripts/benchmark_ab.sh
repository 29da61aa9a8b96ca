#!/usr/bin/env bash
# A/B one benchmark workload: a parent revision against this working tree.
#
#   scripts/benchmark_ab.sh <parent-rev> <workload> [pairs]
#
# Clones <parent-rev> into /root/scratch/ab/parent, builds both benchmark
# crates into their own target directories, runs `pairs` (default 10)
# alternating parent/change pairs — odd pairs run the parent first, even
# pairs the change — and prints each side's quartiles, the pair wins and the
# fingerprints. Run records go to /root/scratch/ab/{parent,change}-out
# (CARGO_MANIFEST_DIR points there), never into the repository.
#
# AB_SECONDS (default 20, what BENCHMARK.json passes), AB_SEED (default 1)
# and AB_TRACE (default 0; 1 for the per-layer probes and exact-repeat
# counts) set the run. The shared VM drifts by 10-30 % in phases of
# 15-20 s, which is why the pairs alternate and why the per-process minimum
# of rep_run_cpu_s is printed next to the reported median.
set -euo pipefail
if [ $# -lt 2 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10}
seconds=${AB_SECONDS:-20} seed=${AB_SEED:-1} trace=${AB_TRACE:-0}
repo=$(cd "$(dirname "$0")/.." && pwd)
ab=/root/scratch/ab
mkdir -p "$ab"

sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
if [ "$(git -C "$ab/parent" rev-parse HEAD 2>/dev/null)" != "$sha" ]; then
    rm -rf "$ab/parent"
    git clone --quiet "$repo" "$ab/parent"
    git -C "$ab/parent" checkout --quiet --detach "$sha"
fi
for side in parent change; do
    src=$repo
    [ "$side" = parent ] && src=$ab/parent
    CARGO_TARGET_DIR=$ab/$side-target cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
    rm -rf "$ab/$side-out"
    mkdir -p "$ab/$side-out"
done

run() { # side
    CARGO_MANIFEST_DIR=$ab/$1-out "$ab/$1-target/release/son-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        >"$ab/$1-out/last.txt" 2>&1 || {
        echo "ERROR: $1 run failed:" >&2
        tail -n 5 "$ab/$1-out/last.txt" >&2
        exit 1
    }
    awk -v s="$1" '/^e2e +cpu_us_per_delivered_pkt/ {printf "  %-6s %s us/pkt\n", s, $3}
                   /^layer +overlay.node.transit_ns/ {printf "  %-6s %s ns/transit hop (traced)\n", s, $3}' \
        "$ab/$1-out/last.txt"
}
for i in $(seq 1 "$pairs"); do
    echo "pair $i/$pairs"
    if [ $((i % 2)) -eq 1 ]; then run parent; run change; else run change; run parent; fi
done

python3 - "$ab" <<'EOF'
import json, statistics, sys
ab = sys.argv[1]
def load(side):
    return [json.loads(line) for line in open(f"{ab}/{side}-out/out/runs.jsonl")]
def q(xs):
    lo, mid, hi = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return f"q1 {lo:.4g}  median {mid:.4g}  q3 {hi:.4g}"
def e2e(run, name):
    m = run["metrics"].get(name)
    return m["value"] if isinstance(m, dict) else m
parent, change = load("parent"), load("change")
# Tracing off: the end-to-end metrics. Tracing on: the node probes, what a
# node retains and what a route rebuild costs, and the counts that repeat
# exactly for one seed.
names = ["cpu_us_per_delivered_pkt", "setup_s", "peak_rss_mb", "overlay.node.ingress_ns",
         "overlay.node.transit_ns", "overlay.node.egress_ns", "mem.bytes_per_node.lsdb",
         "mem.bytes_per_node.total", "trace.route.rebuild.p50_ns", "netsim.events",
         "netsim.pipe.sent", "overlay.forwarded", "overlay.reroutes", "overlay.drops_total"]
for name in names:
    p = [e2e(r, name) for r in parent]
    c = [e2e(r, name) for r in change]
    if None in p + c:
        continue
    if len(set(p + c)) == 1:
        print(f"{name}\n  identical on both sides in every run: {p[0]}")
        continue
    wins = sum(a > b for a, b in zip(p, c))
    losses = sum(a < b for a, b in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    print(f"{name}\n  parent  {q(p)}\n  change  {q(c)}")
    print(f"  change vs parent {100 * (mc - mp) / mp:+.1f} % of {mp:.4g}; "
          f"change better in {wins}/{len(p)} pairs, worse in {losses}")
for side, runs in (("parent", parent), ("change", change)):
    mins = [min(r["rep_run_cpu_s"]) for r in runs if r.get("rep_run_cpu_s")]
    if mins:
        print(f"min rep_run_cpu_s  {side:6}  {q(mins)}")
    print(f"fingerprint        {side:6}  {sorted({r.get('fingerprint') for r in runs})}  "
          f"failed {sum(r['failed'] for r in runs)}")
EOF
