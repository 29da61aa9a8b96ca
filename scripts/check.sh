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
    echo "==> cargo test --workspace -q (incl. the fingerprint and bench locks)"
    cargo test --workspace -q
}

stage_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo fmt --check"
    cargo fmt --check
    echo "==> cargo doc --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    # A `#[test]` written inside `proptest!` is doubled by the macro's own,
    # and the property then runs twice under one name.
    echo "==> no test binary lists a test name twice"
    cargo test --workspace -- --list 2>/dev/null | awk '
        /^[0-9]+ tests?, [0-9]+ benchmarks?$/ { delete seen; next }
        /: test$/ && seen[$0]++ == 1 { print "listed twice: " $0; dup = 1 }
        END { exit dup }'
    # The simulator has one sequential engine. The names of the retired
    # sharded one live on, inert, in each crate's `frozen` module for the
    # benchmark harness alone: no workspace code may use them. So does
    # `OverlayNode::metrics()`, the benchmark's reader of three counters:
    # the workspace reads a daemon's registry (`NodeObs::counter`).
    echo "==> no workspace code names the benchmark's frozen shims"
    if grep -rnwE --include='*.rs' \
        'set_shard_plan|shard_plan|colocate|shard_stats|schedule_keyed|pop_full|TieKey|NodeMetrics|metrics\(\)' \
        crates src tests examples |
        grep -vE '^crates/[a-z]+/src/frozen\.rs:|pub use crate::frozen::'; then
        echo "ERROR: workspace code names a frozen benchmark shim" >&2
        exit 1
    fi
    # The daemon hands its driver borrowed frames; encoding and decoding
    # are the drivers' (DESIGN.md §7). `recode` is kept for tests and the
    # codec micro-benchmark.
    echo "==> no daemon code runs the codec round trip (wire::recode)"
    if grep -rnwE 'recode' crates/overlay/src/node crates/node/src; then
        echo "ERROR: daemon code calls wire::recode" >&2
        exit 1
    fi
    # A datagram reaches son-node's daemon as bytes, through
    # `Process::on_frame`, as a simulated frame does: son-node itself
    # decodes no link frame (its tests may, to read what a daemon sent).
    echo "==> son-node decodes no link frame outside its tests"
    if find crates/node/src -name '*.rs' ! -name loop_tests.rs -print0 |
        xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' |
        grep -E '\b(wire::decode|decode_reusing|recode)\b'; then
        echo "ERROR: son-node decodes a link frame outside Process::on_frame" >&2
        exit 1
    fi
}

stage_bench() {
    echo "==> bench smoke"
    scripts/bench_smoke.sh
    echo "==> benchmark crate (outside the workspace: tests + three quick workloads)"
    scripts/benchmark_smoke.sh
    # Copies > 128 B per delivered packet on the churning data plane move
    # with LLVM's inlining far from any edited line (DESIGN.md §7): 42.9
    # since frames cross a hop as bytes, 48.5 and 51.2 in two drifts that
    # added a copy of every drained link action. The ceiling sits between.
    echo "==> copy census (sim_fwd_churn: at most 47 copies > 128 B per delivered packet)"
    census=$(scripts/copy_census.sh sim_fwd_churn)
    echo "$census"
    echo "$census" | awk -v max=47 '
        NR == 1 && NF > 3 { per = $(NF - 3) }
        END {
            if (per == "" || per + 0 > max) {
                print "ERROR: " per " copies > 128 B per delivered packet, above " max > "/dev/stderr"
                exit 1
            }
        }'
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
