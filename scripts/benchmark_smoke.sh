#!/usr/bin/env bash
# benchmark/ is its own workspace, so no workspace build, test or lint
# compiles it and an API change under crates/ can break it silently. Run its
# tests, then one quick workload that must exit 0 with no failed operation.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The last line is the driver's JSON object; everything is echoed to stderr.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload sim_fwd_churn --seconds 2 --quick \
    | tee /dev/stderr | tail -n 1 | grep -q '"failed":0[,}]' || {
    echo "ERROR: benchmark sim_fwd_churn --quick failed a check or an operation" >&2
    exit 1
}
