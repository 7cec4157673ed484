#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload query_hot --seed 1 --seconds 12 --trace 0
#
# It keeps everything the Go toolchain writes inside the checkout
# (.bench_build/), builds the benchmark from source and runs it with the
# arguments it was given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
