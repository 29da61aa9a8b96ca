#!/usr/bin/env bash
# benchmark/ is its own workspace, so no workspace build, test or lint
# compiles it and an API change under crates/ can break it silently. Run its
# tests, then four quick workloads that must exit 0 with no failed operation:
# the best-effort data plane, the same data plane under loss (every other
# link protocol and routing service, so a change to how protocol actions are
# dispatched shows here), the 512-node cold start that leans on the
# son-topo and connectivity types the benchmark crate compiles against, and
# the three UDP daemons built by `son_node::NodeRuntime::new`. Each
# simulated workload must also reproduce its seed-1 fingerprint, and the
# cold start and the churning data plane must peak below a resident-memory
# ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

# The default seed's fingerprints, which a --quick run prints as a full run
# does. A change that is not meant to alter what the simulated protocols do
# must leave them alone; a deliberate protocol change updates them, in a
# commit of its own that says so. udp_chain3 has none: its daemons run
# against the wall clock.
declare -A fingerprint=(
    [sim_fwd_churn]=0xb0474f369e0e8593
    [sim_recovery_mix]=0xf3b66784daf56c03
    [sim_scale_512]=0xc210f500b5102dc1
)

# Peak resident MB of a quick run. The 512-node cold start: a daemon shares
# the configured topology and the key table with its deployment and keeps a
# 4-byte next hop per destination, so it reads ~23 MB, where a private copy
# of each read 35 MB. The churning data plane: a receiver keeps its seqs in
# a bitmap, so it reads ~9.0 MB, where a hash set of them read 10.7 MB.
declare -A rss_ceiling_mb=(
    [sim_scale_512]=28
    [sim_fwd_churn]=10
)

cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The last line is the driver's JSON object; everything is echoed to stderr.
for workload in sim_fwd_churn sim_recovery_mix sim_scale_512 udp_chain3; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 2 --quick \
        | tee /dev/stderr | tail -n 1 | grep -q '"failed":0[,}]' || {
        echo "ERROR: benchmark $workload --quick failed a check or an operation" >&2
        exit 1
    }
    [ -n "${fingerprint[$workload]:-}" ] || continue
    # The run just appended its record to benchmark/out/runs.jsonl.
    got=$(tail -n 1 benchmark/out/runs.jsonl | python3 -c \
        'import json, sys; r = json.load(sys.stdin); print(r["workload"], r.get("fingerprint"))')
    want="$workload ${fingerprint[$workload]}"
    if [ "$got" != "$want" ]; then
        echo "ERROR: benchmark fingerprint is '$got', expected '$want'" >&2
        exit 1
    fi
    if [ -n "${rss_ceiling_mb[$workload]:-}" ]; then
        tail -n 1 benchmark/out/runs.jsonl | python3 -c '
import json, sys
workload, ceiling = sys.argv[1], float(sys.argv[2])
rss = json.load(sys.stdin)["metrics"]["peak_rss_mb"]
rss = rss["value"] if isinstance(rss, dict) else rss
if rss > ceiling:
    sys.exit(f"ERROR: {workload} --quick peaked at {rss:.1f} MB, above {ceiling:g} MB")
print(f"{workload} --quick peak_rss_mb {rss:.1f} <= {ceiling:g}", file=sys.stderr)
' "$workload" "${rss_ceiling_mb[$workload]}"
    fi
done
