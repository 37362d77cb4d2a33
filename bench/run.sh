#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as BENCHMARK.json says:
#
#   bash bench/run.sh --workload mat-browse --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, the binary, the disk store of a run).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# bench/ is a module of its own that replaces `applab` with its parent
# directory: without the repository around it, this build fails and the
# script exits non-zero before anything runs.
(cd "$root/bench" && go build -o "$build/applab-bench" .)
cd "$root"
exec "$build/applab-bench" "$@"
