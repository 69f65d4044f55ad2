#!/usr/bin/env bash
# Fails if a [workspace.dependencies] key is referenced by no member manifest
# (the root package is a member too), so an unused dependency cannot linger.
set -euo pipefail
cd "$(dirname "$0")/.."
section='/^\[/ { in_ws = ($0 == "[workspace.dependencies]") }'
members="$(awk "$section"' !in_ws' Cargo.toml; cat crates/*/Cargo.toml)"
status=0
for key in $(awk "$section"' in_ws && /^[A-Za-z0-9_-]+ *=/ { print $1 }' Cargo.toml); do
  if ! grep -qE "^${key}(\.workspace)? *=" <<<"$members"; then
    echo "workspace dependency '${key}' is used by no member Cargo.toml" >&2
    status=1
  fi
done
exit $status
