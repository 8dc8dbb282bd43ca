#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload deploy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (the Go build cache and the
# binary) go to .bench_build/ under the root; nothing is written elsewhere.
# The build needs the lemur module one directory up, so outside a checkout
# of the repository it fails before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
# The report's git_rev; a checkout without .git reports "unknown".
LEMURBENCH_REV=unknown
if [ -e "$root/.git" ]; then
  LEMURBENCH_REV=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export LEMURBENCH_REV
go -C "$root/perfbench" build -o "$out/lemurbench" . >&2
exec "$out/lemurbench" "$@"
