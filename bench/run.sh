#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from this checkout
# and run it, keeping everything the build and the run write inside the
# checkout (.bench_build/). Run from the repo root:
#
#   bash bench/run.sh --workload solve_al --seed 1 --seconds 15 --trace 0
#
# `go run ./bench ...` is the same program without the cache redirection.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/cbsbench" ./bench
exec "$build/cbsbench" -workdir "$build" "$@"
