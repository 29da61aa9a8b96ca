#!/usr/bin/env bash
# Counts the large memory copies one benchmark workload makes.
#
#   scripts/copy_census.sh [--sites] <workload>
#
# Builds a memcpy/memmove counter with the host C compiler into
# target/copy_census/, runs the release benchmark binary on <workload> with
# --quick under LD_PRELOAD, and prints the copies larger than 128 bytes per
# delivered packet: the total, then by size, largest share first. Every
# call the process makes counts, setup and all reps, so the figure is a
# census of the run, not of the forwarding path alone. The run record goes
# to target/copy_census/out/runs.jsonl.
#
# --sites also prints the top call sites per delivered packet: the counter
# records each large copy's return address, and addr2line -i maps it to
# the innermost line of this workspace's source it was inlined from (and
# the function it sits in). For that the benchmark is built with line
# tables into target/copy_census/build, so benchmark/target is untouched.
set -euo pipefail
sites=0
if [ "${1:-}" = "--sites" ]; then
    sites=1
    shift
fi
if [ $# -ne 1 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
workload=$1
cd "$(dirname "$0")/.."
dir=target/copy_census
mkdir -p "$dir"

cat >"$dir/census.c" <<'EOF'
/* Counts memcpy/memmove calls by size, and calls above 128 bytes by call
 * site (return address); prints both tallies at exit. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>
#include <stdio.h>
#define TOP 65536
#define SITES 65536 /* a power of two */
typedef void *(*copy_fn)(void *, const void *, size_t);
static unsigned long calls[TOP + 1];
static uintptr_t site_pc[SITES];
static unsigned long site_calls[SITES];
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
static void tally(size_t n, uintptr_t pc) {
    __atomic_fetch_add(&calls[n < TOP ? n : TOP], 1, __ATOMIC_RELAXED);
    if (n <= 128) return;
    /* Open addressing; a full table drops the site, never the count. */
    for (size_t i = (pc >> 2) & (SITES - 1), probes = 0; probes < SITES;
         i = (i + 1) & (SITES - 1), probes++) {
        uintptr_t seen = __atomic_load_n(&site_pc[i], __ATOMIC_ACQUIRE);
        if (seen == 0) {
            uintptr_t expected = 0;
            if (!__atomic_compare_exchange_n(&site_pc[i], &expected, pc, 0,
                                             __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE))
                seen = expected;
            else
                seen = pc;
        }
        if (seen == pc) {
            __atomic_fetch_add(&site_calls[i], 1, __ATOMIC_RELAXED);
            return;
        }
    }
}
#define RET ((uintptr_t)__builtin_return_address(0))
void *memcpy(void *d, const void *s, size_t n) { tally(n, RET); return (real_memcpy ? real_memcpy : bytewise)(d, s, n); }
void *memmove(void *d, const void *s, size_t n) { tally(n, RET); return (real_memmove ? real_memmove : bytewise)(d, s, n); }
__attribute__((destructor)) static void report(void) {
    for (size_t n = 129; n <= TOP; n++)
        if (calls[n]) fprintf(stderr, "copy_census %zu %lu\n", n, calls[n]);
    for (size_t i = 0; i < SITES; i++) {
        Dl_info info;
        if (!site_pc[i] || !dladdr((void *)site_pc[i], &info) || !info.dli_fname) continue;
        /* The address the call returns to, less one: inside the call. */
        fprintf(stderr, "copy_site %s 0x%lx %lu\n", info.dli_fname,
                (unsigned long)(site_pc[i] - (uintptr_t)info.dli_fbase - 1), site_calls[i]);
    }
}
EOF
# No builtins: the byte loop must not compile back into a memcpy call.
cc -O2 -fPIC -shared -fno-builtin -fno-tree-loop-distribute-patterns \
    -o "$dir/libcensus.so" "$dir/census.c" -ldl

if [ "$sites" = 1 ]; then
    target_dir="$PWD/$dir/build"
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$target_dir"
else
    target_dir="$PWD/benchmark/target"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi
bin="$target_dir/release/son-benchmark"
rm -rf "$dir/out"
CARGO_MANIFEST_DIR="$PWD/$dir" LD_PRELOAD="$PWD/$dir/libcensus.so" \
    "$bin" --workload "$workload" --seconds 2 --quick \
    >"$dir/run.txt" 2>&1

python3 - "$dir" "$workload" "$sites" "$bin" <<'EOF'
import json, os, re, subprocess, sys
dir, workload, sites, binary = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4]
record = json.loads(open(f"{dir}/out/runs.jsonl").readlines()[-1])
delivered = record["reps"] * record["delivered_per_rep"]
calls, at = {}, {}
for line in open(f"{dir}/run.txt"):
    if line.startswith("copy_census "):
        _, size, n = line.split()
        calls[int(size)] = int(n)
    elif line.startswith("copy_site "):
        _, obj, offset, n = line.split()
        at[(obj, offset)] = at.get((obj, offset), 0) + int(n)
total = sum(calls.values())
print(f"{workload}: {delivered} packets delivered, {total} copies > 128 B, "
      f"{total / delivered:.1f} per delivered packet")
for size, n in sorted(calls.items(), key=lambda kv: -kv[1]):
    if n / delivered < 0.05:
        break
    print(f"  {size:>6} B  {n / delivered:7.2f} per packet")
if not sites:
    sys.exit(0)

# Map each of the benchmark binary's sites to source: addr2line -i lists
# the inlined frames innermost first, each a function line and a location
# line, ending with the function the code was inlined into.
root = os.getcwd() + "/"
mine = sorted(off for (obj, off) in at if os.path.realpath(obj) == os.path.realpath(binary))
where = {}
if mine:
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary, *mine],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    chains, addr, func = {}, None, None
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            addr, func = f"0x{int(line, 16):x}", None
            chains[addr] = []
        elif func is None:
            func = line
        else:
            chains[addr].append((func, line.split(" ")[0]))
            func = None
    for addr, chain in chains.items():
        ours = [loc for _, loc in chain if loc.startswith(root + "crates/")]
        loc = ours[0] if ours else (chain[0][1] if chain else "??:0")
        outer = chain[-1][0] if chain else "??"
        where[addr] = (loc.replace(root, ""), outer.split("(")[0][-70:])
rows = {}
for (obj, off), n in at.items():
    key = where.get(f"0x{int(off, 16):x}", (os.path.basename(obj), ""))
    rows[key] = rows.get(key, 0) + n
print("top call sites per packet (innermost workspace line, the function it is inlined into):")
shown = 0
for (loc, func), n in sorted(rows.items(), key=lambda kv: -kv[1]):
    if n / delivered < 0.05 or shown == 30:
        break
    shown += 1
    print(f"  {n / delivered:7.2f}  {loc:<48} {func}")
EOF
