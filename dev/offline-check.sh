#!/usr/bin/env bash
# Runs cargo with [patch.crates-io] pointing every external dependency at
# dev/offline-stubs/, so the workspace builds and tests without network access.
# Usage: dev/offline-check.sh <cargo subcommand and args>, e.g.
#   dev/offline-check.sh build --release
#   dev/offline-check.sh test -q
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cfg=()
for crate in bytes rand rand_chacha proptest serde serde_json; do
  cfg+=(--config "patch.crates-io.${crate}.path=\"${root}/dev/offline-stubs/${crate}\"")
done
exec cargo "${cfg[@]}" "$@"
