#!/usr/bin/env bash
# Membership join smoke: a 4-process UDP loopback ring runs from the shared
# epoch; a fifth daemon starts 600ms later and admits itself through
# `--seed-peer`. Gates: the joiner must end with the full membership view
# and full routes, and the founders must have admitted it. Every daemon
# sends its telemetry to a live `son-top --listen`, which must count five
# members with none stale, and whose recording must replay to the same
# roll-up.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/obs/join_smoke
mkdir -p "$OUT"

# One scenario for the founders; the joiner's copy differs only in
# run_for_ms so every process stops at the same wall-clock horizon.
cat > "$OUT/scenario.json" <<'JSON'
{"name":"join_smoke","topology":"ring","nodes":5,"hop_ms":2.0,"loss":0.0,"spec":"best_effort","from":0,"to":2,"count":200,"size":120,"interval_us":10000,"start_ms":800,"run_for_ms":4000,"seed":9,"trace_sample":0,"watch":false,"membership":true}
JSON
sed 's/"run_for_ms":4000/"run_for_ms":3400/' "$OUT/scenario.json" \
    > "$OUT/scenario_joiner.json"

EPOCH=$(( ($(date +%s) + 2) * 1000000000 ))
BASE=47000
TOP=127.0.0.1:47100
# The collector listens from before the epoch to 500ms past the horizon.
FOR_MS=$(( (EPOCH - $(date +%s%N)) / 1000000 + 4500 ))
./target/release/son-top --listen "$TOP" --for "$FOR_MS" --json \
    --gate 'members>=5,stale<=2' --record "$OUT/live.telemetry.jsonl" \
    > "$OUT/live.rollup.jsonl" &
TOP_PID=$!
PIDS=()
for i in 0 1 2 3; do
  ./target/release/son-node --scenario "$OUT/scenario.json" --node "$i" \
      --epoch "$EPOCH" --base-port "$BASE" --telemetry "$TOP" \
      --out "$OUT/node$i.json" &
  PIDS+=($!)
done
# The joiner starts 600ms into the run and joins through ring neighbor 3.
./target/release/son-node --scenario "$OUT/scenario_joiner.json" --node 4 \
    --epoch $((EPOCH + 600000000)) --base-port "$BASE" --seed-peer 3 \
    --telemetry "$TOP" --out "$OUT/node4.json" &
PIDS+=($!)
for pid in "${PIDS[@]}"; do wait "$pid"; done

fail() { echo "join smoke: $1"; cat "$2"; exit 1; }
wait "$TOP_PID" || fail "live son-top gate failed" "$OUT/live.rollup.jsonl"
# son-top --json prints a roll-up per interval; the last is the final one.
./target/release/son-top --json --once "$OUT/live.telemetry.jsonl" \
    > "$OUT/replay.rollup.json"
tail -n 1 "$OUT/live.rollup.jsonl" | cmp -s - "$OUT/replay.rollup.json" \
    || fail "replayed roll-up differs from the live one" "$OUT/replay.rollup.json"
grep -q '"members":5' "$OUT/node4.json" \
    || fail "joiner did not see full membership" "$OUT/node4.json"
grep -q '"routes_reachable":5' "$OUT/node4.json" \
    || fail "joiner did not reach full routes" "$OUT/node4.json"
grep -q '"members":5' "$OUT/node0.json" \
    || fail "founders did not admit the joiner" "$OUT/node0.json"
echo "join smoke: joiner admitted via --seed-peer, full routes on 5 nodes;" \
    "live son-top saw 5 members and replays to the same roll-up."
