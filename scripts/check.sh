#!/usr/bin/env bash
# Every check, written once: CI's jobs call this script with the stages they
# run, and with no argument it runs them all. Run before pushing.
#
#   scripts/check.sh [build] [test] [lint] [bench] [smoke] [udp]
set -euo pipefail
cd "$(dirname "$0")/.."

son_exp() { cargo run --release -q -p son-bench --bin son-exp -- "$@"; }
son_trace() { cargo run --release -q -p son-bench --bin son-trace -- "$@"; }

stage_build() {
    echo "==> cargo build --release"
    cargo build --release
}

stage_test() {
    echo "==> cargo test -q (tier 1)"
    cargo test -q
    echo "==> cargo test --workspace -q (incl. the shard_parity determinism suite)"
    cargo test --workspace -q
}

stage_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo fmt --check"
    cargo fmt --check
    echo "==> cargo doc --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

stage_bench() {
    echo "==> bench smoke"
    scripts/bench_smoke.sh
    echo "==> benchmark crate (outside the workspace: tests + three quick workloads)"
    scripts/benchmark_smoke.sh
    # benchmark/ and BENCHMARK.json change only in a [benchmark] PR of their
    # own. (Cargo.lock is left out: cargo rewrites it when a workspace
    # crate's dependencies change.)
    git diff --quiet -- BENCHMARK.json benchmark/src benchmark/Cargo.toml || {
        echo "ERROR: BENCHMARK.json or benchmark/ differs from HEAD" >&2
        exit 1
    }
}

stage_smoke() {
    echo "==> trace + telemetry self-check (son-exp fig3 --smoke + son-trace)"
    son_exp fig3 --smoke
    son_trace --self-check --limit 1 target/obs/exp_fig3.trace.jsonl \
        target/obs/exp_fig3.telemetry.jsonl
    echo "==> watchdog smoke campaign (son-exp watchdog --smoke + son-trace --watch-audit)"
    son_exp watchdog --smoke
    son_trace --watch-audit target/obs/watch.jsonl
    echo "==> churn smoke campaign (son-exp churn --smoke: convergence bound + delivery floor)"
    son_exp churn --smoke
    # `cargo test` compiles the examples and son-run but never runs them,
    # and each asserts its own result.
    for example in examples/*.rs; do
        example=$(basename "$example" .rs)
        echo "==> example $example"
        cargo run --release -q --example "$example"
    done
    echo "==> son-run (defaults, then continental + fec)"
    cargo run --release -q --bin son-run
    cargo run --release -q --bin son-run -- --topology=continental --service=fec
}

# The daemon path: the E1 chain and the E3 ring (a blackout on the flow's
# path, the watchdog on) the sim runs, executed by 4 and 5 son-node
# processes over real UDP loopback sockets. `son-exp udp_parity` enforces
# the delivery floor and latency band against the sim leg and fails on any
# decode error or unknown-pipe frame.
stage_udp() {
    echo "==> daemon + parity harness binaries"
    cargo build --release -p son-node -p son-bench --bins
    echo "==> membership join smoke (son-node x5 over 127.0.0.1, joiner via --seed-peer)"
    scripts/join_smoke.sh
    echo "==> udp loopback smoke (son-node x4 and x5 over 127.0.0.1, sim-vs-real parity)"
    son_exp udp_parity --smoke --out target/obs/BENCH_udp_smoke.json
    # The paper's §II-D claim as a gate: an overlay hop adds under a
    # millisecond over its link's latency on the socket path (this host
    # reads ≈ 180 µs).
    son_exp gate target/obs/BENCH_udp_smoke.json bench=udp_parity,scenario=udp_e1_smoke 'added_per_hop_p50_us<=1000'
    # A steady flow sleeps to its deadlines without watching the socket
    # (DESIGN.md §13, the run loop): the smoke cluster reads 13.1 waits per
    # delivered packet, and 17.3 with a wake-up on every datagram's arrival.
    # The bound is the measured value + 20 %.
    son_exp gate target/obs/BENCH_udp_smoke.json bench=udp_parity,scenario=udp_e1_smoke 'waits_per_delivered_pkt<=15.8'
    # The merged per-process exports are causally consistent: wall-clock
    # anchored timelines reconstruct across pids.
    cat target/obs/udp_parity/udp_e1_smoke.result.*.json \
        target/obs/udp_parity/udp_e1_smoke.udp.telemetry.jsonl \
        > target/obs/udp_parity/udp_e1_smoke.merged.jsonl
    son_trace --self-check --limit 1 target/obs/udp_parity/udp_e1_smoke.merged.jsonl
    echo "==> son-top SLO gate on the cluster's telemetry stream"
    cargo run --release -q -p son-bench --bin son-top -- --json --once \
        --gate 'delivery>=0.9,stale<=2,members>=4' \
        target/obs/udp_parity/udp_e1_smoke.udp.telemetry.jsonl
}

stages=("$@")
[ ${#stages[@]} -gt 0 ] || stages=(build test lint bench smoke udp)
for stage in "${stages[@]}"; do
    case "$stage" in
        build | test | lint | bench | smoke | udp) "stage_$stage" ;;
        *)
            echo "usage: scripts/check.sh [build] [test] [lint] [bench] [smoke] [udp]" >&2
            exit 2
            ;;
    esac
done
echo "All checks passed."
