#!/usr/bin/env bash
# benchmark/ is its own workspace, so no workspace build, test or lint
# compiles it and an API change under crates/ can break it silently. Run its
# tests, then four quick workloads that must exit 0 with no failed operation:
# the best-effort data plane, the same data plane under loss (every other
# link protocol and routing service, so a change to how protocol actions are
# dispatched shows here), the 512-node cold start that leans on the
# son-topo and connectivity types the benchmark crate compiles against, and
# the three UDP daemons built by `son_node::NodeRuntime::new`. Each
# simulated workload must also reproduce its seed-1 fingerprint and peak
# below a resident-memory ceiling, and then run again at seed 7 and
# reproduce that seed's fingerprint.
set -euo pipefail
cd "$(dirname "$0")/.."

# The fingerprints of the default seed and of seed 7, by workload/seed,
# which a --quick run prints as a full run does. A change that is not meant
# to alter what the simulated protocols do must leave them alone; a
# deliberate protocol change updates them, in a commit of its own that says
# so. udp_chain3 has none: its daemons run against the wall clock.
declare -A fingerprint=(
    [sim_fwd_churn/1]=0x45a16fc97e8b3ac9
    [sim_recovery_mix/1]=0xda397b7232afc359
    [sim_scale_512/1]=0xcd324248990b4c2d
    [sim_fwd_churn/7]=0xff625665284bfaee
    [sim_recovery_mix/7]=0x032722f70fd1a168
    [sim_scale_512/7]=0xd23b4d62733a8263
)

# Peak resident MB of a quick run at the default seed. The 512-node cold start: a daemon shares
# the configured topology and the key table with its deployment, builds
# its 4-byte-per-destination next-hop table and each link's protocol
# machines only when it first uses them, keeps 12 bytes per origin in its
# link-state table and allocates the table a page of 32 origins at a time
# as it hears them, its metrics registry holds its node label once and
# no histogram buckets it has not used, and a cold start floods no LSA
# that says what the configuration does, so it reads ~9.1 MB, where a
# table of all N origins on the first LSA heard read ~11.4-11.7 MB,
# flooding every first LSA ~14.3 MB, per-instrument label, name and
# key copies 16.4-16.5 MB, 24-byte entries 20.2 MB, eager tables and
# machines 22.9 MB and a private copy of the topology and keys 35 MB. The churning data plane: a receiver keeps its seqs in
# a bitmap, so it reads ~9.0 MB, where a hash set of them read 10.7 MB. The
# lossy data plane, where the dedup, FEC, NM-Strikes and ARQ windows live:
# an FEC receiver keeps one repair's headers per unfinished block and an
# NM-Strikes sender its history in a ring sized to it, so it reads
# ~7.1-7.3 MB, where every repair's headers and a hash-map history read
# 8.3-8.6 MB.
declare -A rss_ceiling_mb=(
    [sim_scale_512]=10.2
    [sim_fwd_churn]=10
    [sim_recovery_mix]=8
)

cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The last line is the driver's JSON object; everything is echoed to stderr
# through the descriptor this script has (`tee /dev/stderr` would reopen a
# redirected log and truncate it at every workload).
for run in sim_fwd_churn/1 sim_recovery_mix/1 sim_scale_512/1 udp_chain3/1 \
    sim_fwd_churn/7 sim_recovery_mix/7 sim_scale_512/7; do
    workload=${run%/*} seed=${run#*/}
    status=0
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 2 --quick) || status=$?
    printf '%s\n' "$out" >&2
    if [ "$status" -ne 0 ] || ! tail -n 1 <<<"$out" | grep -q '"failed":0[,}]'; then
        echo "ERROR: benchmark $workload --seed $seed --quick failed a check or an operation" >&2
        exit 1
    fi
    [ -n "${fingerprint[$run]:-}" ] || continue
    # The run just appended its record to benchmark/out/runs.jsonl.
    got=$(tail -n 1 benchmark/out/runs.jsonl | python3 -c \
        'import json, sys; r = json.load(sys.stdin); print(r["workload"] + "/" + str(r["seed"]), r.get("fingerprint"))')
    want="$run ${fingerprint[$run]}"
    if [ "$got" != "$want" ]; then
        echo "ERROR: benchmark fingerprint is '$got', expected '$want'" >&2
        exit 1
    fi
    if [ "$seed" = 1 ] && [ -n "${rss_ceiling_mb[$workload]:-}" ]; then
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
