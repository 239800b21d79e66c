#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload swim-stream --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, Go's temporary files and its telemetry
# counters (kept under XDG_CONFIG_HOME) all stay under .bench_build/ in the
# checkout. The build stamps the git revision into the result's provenance
# when it can, and builds without it when git cannot answer (outside a
# repository, or in one owned by another user).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$build/burstbench" ./cmd/burstbench 2>/dev/null ||
    go build -buildvcs=false -o "$build/burstbench" ./cmd/burstbench
cd "$root"
"$build/burstbench" "$@"
