#!/usr/bin/env bash
# CI gate for the applab repository: formatting, vet, the repo's own
# static analysis (cmd/applab-lint), the full test suite, and the race
# detector over the concurrent query stack. Everything is stdlib-only;
# the whole gate runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== applab-lint (self-lint: the linter and its framework first)"
go run ./cmd/applab-lint ./internal/analysis/... ./cmd/applab-lint

echo "== applab-lint (whole repo, against the committed baseline)"
# The dataflow checkers must stay fast enough to run on every commit:
# the whole-repo pass gets a 30-second wall budget.
lint_start=$(date +%s)
go run ./cmd/applab-lint -baseline lint-baseline.json ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -ge 30 ]; then
    echo "applab-lint took ${lint_elapsed}s; budget is 30s" >&2
    exit 1
fi
echo "  whole-repo lint in ${lint_elapsed}s (budget 30s)"

echo "== no hidden engine configuration"
# The evaluator derives its worker count, parallel threshold and spatial
# strategy, and calls geosparql directly: internal/sparql and
# internal/geosparql export no Register* and no Set* but SetMetrics.
globals=$( (go doc -short ./internal/sparql; go doc -short ./internal/geosparql) |
    grep -E '^[[:space:]]*(func|var) (Register|Set)' | grep -v 'func SetMetrics(' || true)
if [ -n "$globals" ]; then
    echo "exported engine globals:" >&2
    echo "$globals" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== golden result cache under real parallelism"
# The endpoint closes the encode stage (span, histogram, trace) before
# the first body byte is written, so a client-side Snapshot() sees exact
# counter deltas on any core count.
go test -count=20 -cpu 1,2,4 -run TestGoldenResultCache ./internal/e2e

echo "== golden cluster workflows under real parallelism"
# Benched members are failover-only and the test's driver steps fake
# time only while the fabric is parked on injected latency, so the hedge
# timer never races a reply that takes no time: exact counters, 60/60.
go test -count=20 -cpu 1,2,4 -run TestClusterGoldenWorkflows ./internal/e2e

echo "== allocation ceilings (handle rows, join variants, results writer, id-space graph, view revalidation)"
# Engine_BGPJoinCompiled's bytes per evaluation may not regrow (rows are
# 8-byte handles, not 56-byte terms), and served instrumented, budgeted,
# with spatial detection off, from the memory-mode store or behind a
# bypassing result cache it may cost no more than +8 KiB and +64 allocs
# over plain (one per-row allocation trips it); encoding a 1000-row
# result into a warm buffer allocates nothing, neither does rdf.Graph
# on a read with an unknown bound term or (amortized, presized) on an
# Add of interned terms, and an on-the-fly evaluation over unchanged
# sources re-publishes the view it has (three Listing-2 mappings, warm
# window cache: < 4 KiB).
go test -count=1 -cpu 1,2,4 -run '^TestBGPJoinBytesCeiling$' ./internal/sparql
go test -count=1 -run '^TestResultsWriterAllocations$' ./internal/endpoint
go test -count=1 -run '^TestGraphAllocations$' ./internal/rdf
go test -count=1 -run '^TestRevalidateAllocations$' ./internal/obda

echo "== bench module (its own go.mod, outside ./...)"
(cd bench && go vet . && go test .)

echo "== go test -race (the Makefile's RACE_PKGS)"
make race

echo "== e2e golden suite (both workflows over live loopback servers)"
make e2e

echo "== coverage gate (resilience stack)"
# The retry/breaker/deadline machinery is all error paths; a coverage
# floor keeps new branches from landing untested. Floors sit ~5pt under
# the level at which the gate was introduced.
check_cover() {
    pkg=$1 floor=$2
    pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage gate: no coverage reported for $pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage gate: $pkg at ${pct}%, floor is ${floor}%" >&2
        exit 1
    fi
    echo "  $pkg: ${pct}% (floor ${floor}%)"
}
check_cover ./internal/opendap/ 85
check_cover ./internal/federation/ 85
check_cover ./internal/telemetry/ 90
check_cover ./internal/sparql/ 80
check_cover ./internal/admission/ 90
check_cover ./internal/analysis/ 90
check_cover ./internal/segment/ 90
check_cover ./internal/geom/ 85
check_cover ./internal/geom/rtree/ 85
check_cover ./internal/rescache/ 90
check_cover ./internal/cluster/ 85
check_cover ./internal/obda/ 80
check_cover ./internal/madis/ 85

echo "== fuzz smoke (seed corpus + a few seconds of mutation)"
make fuzz

echo "== bench compile smoke"
# Benchmarks must at least compile and run one iteration; keeps the
# BenchmarkEngine_* family and BenchmarkSpatialJoin from rotting. They
# are measured (`make bench`), not gated: the deterministic guards are
# the allocation ceilings above.
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

echo "CI OK"
