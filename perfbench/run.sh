#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The build cache and the binary stay
# in .bench_build, so nothing is read or written outside the checkout
# beyond the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
