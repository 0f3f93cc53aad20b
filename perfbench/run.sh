#!/usr/bin/env bash
# Builds the benchmark and soupsd from the sources of the checkout it is run
# from, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload http-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories all
# live under .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$build/bin" "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/soupsd" ./cmd/soupsd >&2
exec "$build/bin/perfbench" -soupsd "$build/bin/soupsd" -work "$build/work" "$@"
