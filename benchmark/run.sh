#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from the checkout's
# source and runs it, keeping everything it writes — Go's build cache, the
# binary, sockets, checkpoints, scratch files — under .bench_build in the
# checkout. Arguments pass through: --workload --seed --seconds --trace.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
