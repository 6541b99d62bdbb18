#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark and
# runs it with the driver's arguments. Everything the Go toolchain
# writes (build cache, temporary files, the binaries) stays under
# .bench_build in the checkout, so a run reads and writes nothing
# outside it. `go run ./bench` does the same job from a developer's
# shell, with the usual caches.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
