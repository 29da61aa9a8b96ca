#!/usr/bin/env bash
# Counts the large memory copies one benchmark workload makes.
#
#   scripts/copy_census.sh <workload>
#
# Builds a memcpy/memmove counter with the host C compiler into
# target/copy_census/, runs the release benchmark binary on <workload> with
# --quick under LD_PRELOAD, and prints the copies larger than 128 bytes per
# delivered packet: the total, then by size, largest share first. Every
# call the process makes counts, setup and all reps, so the figure is a
# census of the run, not of the forwarding path alone. The run record goes
# to target/copy_census/out/runs.jsonl.
set -euo pipefail
if [ $# -ne 1 ]; then
    sed -n '2,12p' "$0" >&2
    exit 2
fi
workload=$1
cd "$(dirname "$0")/.."
dir=target/copy_census
mkdir -p "$dir"

cat >"$dir/census.c" <<'EOF'
/* Counts memcpy/memmove calls by size; prints the tally at exit. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#define TOP 65536
typedef void *(*copy_fn)(void *, const void *, size_t);
static unsigned long calls[TOP + 1];
static copy_fn real_memcpy, real_memmove;
/* Until the real functions are found (and while dlsym itself copies). */
static void *bytewise(void *dst, const void *src, size_t n) {
    unsigned char *d = dst; const unsigned char *s = src;
    if (d < s) for (size_t i = 0; i < n; i++) d[i] = s[i];
    else for (size_t i = n; i > 0; i--) d[i - 1] = s[i - 1];
    return dst;
}
__attribute__((constructor)) static void find_real(void) {
    real_memcpy = (copy_fn)dlsym(RTLD_NEXT, "memcpy");
    real_memmove = (copy_fn)dlsym(RTLD_NEXT, "memmove");
}
static void tally(size_t n) { __atomic_fetch_add(&calls[n < TOP ? n : TOP], 1, __ATOMIC_RELAXED); }
void *memcpy(void *d, const void *s, size_t n) { tally(n); return (real_memcpy ? real_memcpy : bytewise)(d, s, n); }
void *memmove(void *d, const void *s, size_t n) { tally(n); return (real_memmove ? real_memmove : bytewise)(d, s, n); }
__attribute__((destructor)) static void report(void) {
    for (size_t n = 129; n <= TOP; n++)
        if (calls[n]) fprintf(stderr, "copy_census %zu %lu\n", n, calls[n]);
}
EOF
# No builtins: the byte loop must not compile back into a memcpy call.
cc -O2 -fPIC -shared -fno-builtin -fno-tree-loop-distribute-patterns \
    -o "$dir/libcensus.so" "$dir/census.c" -ldl

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
rm -rf "$dir/out"
CARGO_MANIFEST_DIR="$PWD/$dir" LD_PRELOAD="$PWD/$dir/libcensus.so" \
    benchmark/target/release/son-benchmark --workload "$workload" --seconds 2 --quick \
    >"$dir/run.txt" 2>&1

python3 - "$dir" "$workload" <<'EOF'
import json, sys
dir, workload = sys.argv[1], sys.argv[2]
record = json.loads(open(f"{dir}/out/runs.jsonl").readlines()[-1])
delivered = record["reps"] * record["delivered_per_rep"]
calls = {}
for line in open(f"{dir}/run.txt"):
    if line.startswith("copy_census "):
        _, size, n = line.split()
        calls[int(size)] = int(n)
total = sum(calls.values())
print(f"{workload}: {delivered} packets delivered, {total} copies > 128 B, "
      f"{total / delivered:.1f} per delivered packet")
for size, n in sorted(calls.items(), key=lambda kv: -kv[1]):
    if n / delivered < 0.05:
        break
    print(f"  {size:>6} B  {n / delivered:7.2f} per packet")
EOF
