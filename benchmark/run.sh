#!/bin/bash
# Entry point for BENCHMARK.json: `go run ./benchmark "$@"` from the
# repository root, with the Go build cache and temp directory inside the
# checkout (.bench_build/), so that a run reads and writes nothing outside it.
set -e
mkdir -p .bench_build/gocache .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
exec go run ./benchmark "$@"
