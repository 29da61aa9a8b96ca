#!/usr/bin/env bash
# The local mirror of CI: build, tests, lints, format. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier 1)"
cargo test -q

echo "==> cargo test --workspace -q (incl. the shard_parity determinism suite)"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> bench smoke"
scripts/bench_smoke.sh

echo "==> benchmark crate (outside the workspace: tests + one quick workload)"
scripts/benchmark_smoke.sh
# benchmark/ and BENCHMARK.json change only in a [benchmark] PR of their own.
# (Cargo.lock is left out: cargo rewrites it when a workspace crate's
# dependencies change.)
git diff --quiet -- BENCHMARK.json benchmark/src benchmark/Cargo.toml || {
    echo "ERROR: BENCHMARK.json or benchmark/ differs from HEAD" >&2
    exit 1
}

son_exp() { cargo run --release -q -p son-bench --bin son-exp -- "$@"; }

echo "==> trace self-check (son-exp fig3 --smoke + son-trace)"
son_exp fig3 --smoke
cargo run --release -q -p son-bench --bin son-trace -- \
    --self-check --limit 1 target/obs/exp_fig3.trace.jsonl

echo "==> watchdog smoke campaign (son-exp watchdog --smoke + son-trace --watch-audit)"
son_exp watchdog --smoke
cargo run --release -q -p son-bench --bin son-trace -- \
    --watch-audit target/obs/watch.jsonl

echo "==> churn smoke campaign (son-exp churn --smoke: convergence bound + delivery floor)"
son_exp churn --smoke

echo "==> membership join smoke (son-node x5 over 127.0.0.1, joiner via --seed-peer)"
scripts/join_smoke.sh

echo "==> udp loopback smoke (son-node x4 over 127.0.0.1, sim-vs-real parity)"
son_exp udp_parity --smoke --out target/obs/BENCH_udp_smoke.json
# The paper's §II-D claim as a gate: an overlay hop adds under a millisecond
# over its link's latency on the socket path (this host reads ≈ 180 µs).
son_exp gate target/obs/BENCH_udp_smoke.json bench=udp_parity 'added_per_hop_p50_us<=1000'
cat target/obs/udp_parity/udp_e1_smoke.result.*.json \
    target/obs/udp_parity/udp_e1_smoke.udp.telemetry.jsonl \
    > target/obs/udp_parity/udp_e1_smoke.merged.jsonl
cargo run --release -q -p son-bench --bin son-trace -- \
    --self-check --limit 1 target/obs/udp_parity/udp_e1_smoke.merged.jsonl

echo "==> son-top SLO gate on the cluster's telemetry stream"
cargo run --release -q -p son-bench --bin son-top -- --json --once \
    --gate 'delivery>=0.9,stale<=2,members>=4' \
    target/obs/udp_parity/udp_e1_smoke.udp.telemetry.jsonl

echo "All checks passed."
