#!/usr/bin/env bash
# Heap allocations and bytes per completed request of one benchmark workload:
# runs `antipode-benchmark child --workload W --seed S` under the counting
# interposer dev/alloc-ledger/count.c. The counts include the child's set-up
# (call-graph generation: 6 allocations per request on trace_rpc, none
# elsewhere) and repeat exactly from run to run on one toolchain; they are not
# portable across toolchains (std's own allocations change), so nothing gates
# on them.
#
#   dev/alloc-ledger.sh --workload W [--seed S] [--sites N]
#
# --sites N also prints the N call sites that allocate most, a call site being
# the innermost frame of the stack that is this workspace's code (the
# `antipode*` crates) rather than std or the allocator.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
workload="" seed=1 sites=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --sites) sites="$2" ;;
    *) echo "usage: dev/alloc-ledger.sh --workload W [--seed S] [--sites N]" >&2; exit 2 ;;
  esac
  shift 2
done
[ -n "$workload" ] || { echo "dev/alloc-ledger.sh: --workload is required" >&2; exit 2; }

# Its own target directory: frame pointers are a different RUSTFLAGS, and the
# benchmark's build must not be rebuilt around them.
export CARGO_NET_OFFLINE=true CARGO_TARGET_DIR="$root/target/alloc-ledger"
RUSTFLAGS="-C force-frame-pointers=yes" dev/offline-check.sh build --release --quiet -p antipode-benchmark >&2
bin="$CARGO_TARGET_DIR/release/antipode-benchmark"
cc -O1 -fPIC -shared -fno-omit-frame-pointer -o "$CARGO_TARGET_DIR/count.so" dev/alloc-ledger/count.c

out="$CARGO_TARGET_DIR/ledger-$workload.txt"
completed="$(
  env ALLOC_LEDGER_OUT="$out" ALLOC_LEDGER_SITES="$sites" LD_PRELOAD="$CARGO_TARGET_DIR/count.so" \
    "$bin" child --workload "$workload" --seed "$seed" |
    tail -n 1 | grep -o '"completed_total":[0-9]*' | cut -d: -f2
)"

awk -v w="$workload" -v seed="$seed" -v n="$completed" '$1 == "calls" {
  printf "%s seed %s: %d requests completed\n", w, seed, n
  printf "  allocations per request  %9.1f  (malloc %d, calloc %d, realloc %d; free %d)\n", ($2 + $3 + $4) / n, $2, $3, $4, $5
  printf "  bytes requested per request %6.0f\n", $7 / n
  if ($9 > 0) printf "  %d allocations fell outside the site table\n", $9
}' "$out"

[ "$sites" -gt 0 ] || exit 0
# Every distinct frame offset, named once by addr2line; then each stack is
# charged to its innermost frame inside the workspace.
awk '$1 == "site" { for (i = 3; i <= NF; i++) if ($i != "0") print $i }' "$out" | sort -u > "$out.offsets"
sed 's/^/0x/' "$out.offsets" | addr2line -f -C -e "$bin" | awk 'NR % 2 == 1' | paste "$out.offsets" - > "$out.names"
awk -v n="$completed" -v top="$sites" '
  FNR == NR { off = $1; sub(/^[^\t]*\t/, ""); name[off] = $0; next }
  $1 == "site" {
    where = "(no workspace frame within 8: build lacks frame pointers, or std-only stack)"
    for (i = 3; i <= NF; i++) if (name[$i] ~ /antipode/) { where = name[$i]; break }
    count[where] += $2
  }
  END {
    for (s in count) printf "%10.2f  %s\n", count[s] / n, s | "sort -rn | head -n " top
  }' "$out.names" "$out"
