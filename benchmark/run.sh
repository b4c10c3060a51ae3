#!/usr/bin/env bash
# Build the benchmark from source and run it. Called from the root of a
# checkout as BENCHMARK.json's command:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, the binary, span files, reports.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters

# The benchmark is its own module (benchmark/go.mod) that replaces the
# module "repro" with the checkout around it, so the build fails — and this
# script exits non-zero — when that source is not there.
go build -C "$here" -o "$build/bbbench" .
exec "$build/bbbench" "$@"
