#!/usr/bin/env bash
# The one command of the repo benchmark. Builds the benchmark through
# dev/offline-check.sh — always, so the RNG crates and with them every
# simulated statistic are the same on every machine — then runs it.
#
#   crates/benchmark/run.sh [--seed N]                  all five workloads
#   crates/benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   crates/benchmark/run.sh --compare a.json b.json
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -x dev/offline-check.sh ] || [ ! -f Cargo.toml ]; then
  echo "crates/benchmark/run.sh: $root is not the antipode workspace (no dev/offline-check.sh)" >&2
  exit 2
fi
# A fresh checkout has no lockfile and no network to resolve one against.
export CARGO_NET_OFFLINE=true
dev/offline-check.sh build --release --quiet -p antipode-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/antipode-benchmark" "$@"
