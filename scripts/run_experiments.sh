#!/usr/bin/env bash
# Regenerates every experiment of EXPERIMENTS.md (deterministic seeds; the
# index is `son-exp --list`). `throughput`, `scale` and `udp_parity` refresh
# their own rows of the committed BENCH_*.json files; the JSONL exports land
# under target/obs (analyze traces with: son-trace target/obs/<exp>.trace.jsonl).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p son-node
cargo run --release -q -p son-bench --bin son-exp -- all
ls -l target/obs/*.jsonl
