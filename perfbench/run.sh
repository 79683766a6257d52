#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload search-p2 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, durable-engine data) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
