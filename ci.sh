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

echo "== applab-lint (whole repo: zero findings)"
# The linter must stay fast enough to run on every commit: it
# type-checks each module package once and reads the standard library
# from export data, and the whole-repo pass gets a 15-second wall budget.
lint_start=$(date +%s)
go run ./cmd/applab-lint ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -ge 15 ]; then
    echo "applab-lint took ${lint_elapsed}s; budget is 15s" >&2
    exit 1
fi
echo "  whole-repo lint in ${lint_elapsed}s (budget 15s)"

echo "== no suppressions where the linter never looks"
# analysis.Loader skips _test.go files, so a //lint:ignore there is
# never read and no stale-directive report can reach it. The linter's
# own tests carry directives inside their fixtures' source text.
stale=$(grep -rn --include='*_test.go' 'lint:ignore' cmd internal examples | grep -v '^internal/analysis/' || true)
if [ -n "$stale" ]; then
    echo "lint:ignore in test files, which the linter does not read:" >&2
    echo "$stale" >&2
    exit 1
fi

echo "== DESIGN.md stays readable"
# DESIGN.md describes the system as it is: at most 1,000 lines, and no
# history by change number (that lives in CHANGES.md).
design_lines=$(wc -l < DESIGN.md)
if [ "$design_lines" -gt 1000 ]; then
    echo "DESIGN.md has ${design_lines} lines; the limit is 1000" >&2
    exit 1
fi
if grep -n 'PR [0-9]' DESIGN.md >&2; then
    echo "DESIGN.md narrates history (PR <n>); move it to CHANGES.md" >&2
    exit 1
fi
echo "  DESIGN.md: ${design_lines} lines"

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
# Stacks are assembled by internal/core alone, so the engine's registry
# is installed at one site: core.NewRegistry (the bench module keeps its
# own copy of the stacks).
installs=$(grep -rnE --include='*.go' --exclude='*_test.go' \
    '\b(sparql|geosparql)\.SetMetrics\(' cmd internal examples || true)
if [ "$(echo "$installs" | cut -d: -f1 | sort -u)" != "internal/core/applab.go" ] ||
    [ "$(echo "$installs" | grep -c '\bsparql\.SetMetrics(')" != 1 ] ||
    [ "$(echo "$installs" | grep -c 'geosparql\.SetMetrics(')" != 1 ]; then
    echo "SetMetrics must be called once per package, from internal/core only:" >&2
    echo "$installs" >&2
    exit 1
fi

echo "== one read path through the engine"
# internal/sparql finds what a Source can do in one function,
# capabilities (eval.go); every other engine file reads through what it
# found, so a capability check cannot creep back in beside it. A scan's
# answer is a []rdf.Ref: the two-variant rdf.Matches stays gone.
caps='ContextSource|ErrorSource|RefSource|ExchangeSource|BatchExchangeSource|StatsSource|SpatialSource|Refresher'
asserts=$(for f in internal/sparql/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v caps="$caps" '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
        $0 ~ "\\.\\((" caps ")\\)" || $0 ~ "^[[:space:]]*case ([^:]*, )?(" caps ")[,:]" {
            if (fn != "capabilities") print FILENAME ":" FNR ": " $0
        }' "$f"
done)
if [ -n "$asserts" ]; then
    echo "Source capabilities asserted outside sparql's capabilities():" >&2
    echo "$asserts" >&2
    exit 1
fi
if grep -rnE --include='*.go' 'rdf\.Matches\b|^type Matches\b' cmd internal examples bench >&2; then
    echo "rdf.Matches is back; scans answer []rdf.Ref" >&2
    exit 1
fi

echo "== one partial signal"
# An answer says it is partial: sparql.Results.Partial, read off the
# evaluation's scatter.Tally. No source evaluates a query itself to
# report partiality, nothing type-asserts the retired PartialEvaluator
# capability, and the federation keeps no result cache of its own (the
# endpoint's cache serves it). bench/ keeps its mirror of the handler
# until the benchmark's next revision.
partial=$( (grep -rnE --include='*.go' --exclude='*_test.go' \
        'func (\([^)]*\) )?EvalPartialContext\(|\.EvalPartialContext\(|\.\((endpoint\.)?PartialEvaluator\)|case ([^:]*, )?(endpoint\.)?PartialEvaluator[,:]' \
        cmd internal examples
    grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]+Cache[[:space:]]' internal/federation) || true)
if [ -n "$partial" ]; then
    echo "a second partial signal (use sparql.Results.Partial):" >&2
    echo "$partial" >&2
    exit 1
fi

echo "== refresh belongs to the evaluation"
# The engine drops a live view (sparql.Refresher) once when an
# evaluation starts, before it plans: no other code decides when, and no
# one-shot Query helper wraps that step or sparql.Eval beside it. A
# federation refreshes its members through sparql.Refresh, so it asserts
# no Refresher either. bench/
# keeps its mirror of the handler, and strabon.Store.Query stays, until
# the benchmark's next revision.
refresh=$( (grep -rnE --include='*.go' --exclude='*_test.go' \
        '\.\(([A-Za-z_]+\.)?Refresher\)|^[[:space:]]*case ([^:]*, )?([A-Za-z_]+\.)?Refresher[,:]' \
        cmd internal examples | grep -v '^internal/sparql/'
    grep -rnE --include='*.go' --exclude='*_test.go' \
        '^func \(([A-Za-z_]+ )?\*(VirtualGraph\) (Query|QueryContext|LastError)|(Federation|MaterializedStack|OnTheFlyStack)\) Query)\(' \
        cmd internal examples) || true)
if [ -n "$refresh" ]; then
    echo "a view refreshed, or a one-shot helper declared, outside the engine (use sparql.Eval):" >&2
    echo "$refresh" >&2
    exit 1
fi

echo "== one freshness mechanism for the on-the-fly view"
# The mapping's cache window, opendap(url, w), decides when the virtual
# view revalidates: a conditional request past the window, a 304 that
# keeps the view, -serve-stale through an outage. No second mechanism
# materializes the view beside it (adaptive promotion was removed).
fresh=$(grep -rnE --include='*.go' --exclude='*_test.go' \
        'AdaptiveGraph|Promoter|UpstreamStamp|OnTable|PromoteAfter|promotion_|promote-after|revalidate-every' \
        cmd internal examples || true)
if [ -n "$fresh" ]; then
    echo "a second freshness mechanism for the on-the-fly view (the mapping's window is the one):" >&2
    echo "$fresh" >&2
    exit 1
fi

echo "== the on-the-fly read runs under the caller's context"
# A query's deadline reaches the OPeNDAP request behind the virtual
# graph: MadIS, the OPeNDAP client and the obda layer make no context of
# their own. VirtualGraph.Snapshot and MatchErr, the context-less entry
# points bench/ calls, are the only exceptions until the benchmark's
# next revision.
bg=$(for f in internal/madis/*.go internal/opendap/*.go internal/obda/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
        /context\.(Background|TODO)\(\)/ {
            if (FILENAME != "internal/obda/virtual.go" || (fn != "Snapshot" && fn != "MatchErr")) print FILENAME ":" FNR ": " $0
        }' "$f"
done)
if [ -n "$bg" ]; then
    echo "a context made on the on-the-fly read path (take the caller's):" >&2
    echo "$bg" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== experiment cross-checks (applab-bench -quick -exp all)"
# Every E-series harness checks that its columns return identical
# answers (E2 and E5 compare the bindings of one SPARQL text over two
# sources) and exits non-zero on a mismatch.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/applab-bench -quick -exp all -out "$tmp/paris.svg" > /dev/null

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

echo "== golden spatial join against a warm geometry memo"
# The memo is process-wide: the second run finds it warm and sees no
# insert, so the spatial_arena_bytes gauge must come from SetMetrics.
go test -count=2 -run TestGoldenSpatialJoin ./internal/e2e

echo "== allocation ceilings (handle rows, answer tables, join variants, disk scans by reference, graph scans into reused buffers, pipelined joins, spatial-join side filters, constant BINDs, pooled token slices, results writer, id-space graph, view revalidation, 304 revalidation, dataset encoding, geometry decoding, node answers, cluster wire, batched cluster reads, telemetry lookups, result-cache hits, run encoding)"
# Engine_BGPJoinCompiled's bytes per evaluation may not regrow (rows are
# 8-byte handles, not 56-byte terms, the answer is one table of them,
# not a map per row: a 1,250-row answer allocates as many objects as a
# 10-row one, and the join unit is one pipeline whose head scan's output
# is never materialized), and served instrumented, budgeted,
# with spatial detection off, from the memory-mode store or behind a
# bypassing result cache it may cost no more than +8 KiB and +64 allocs
# over plain (one per-row allocation trips it); the same join over a
# disk store with two runs and a memtable tail stays under 625 KB and
# 1,450 allocations (542 KB and 1,306 measured), which holds only while
# its scans hand out refs into the run dictionaries rather than a
# materialized triple per match (1.7 MB), and append them to one buffer
# per join step rather than a fresh slice per scan (5,057 allocations); a bound-subject
# nested-loop join over an rdf.Graph allocates as often at 4k probe
# rows as at 1k (+16 at most: no allocation per row); a Listing-3-shaped
# viewport query (four patterns and a FILTER keeping 5 % of the rows)
# over a disk store with two runs allocates for the surviving rows and
# its buffers only (<= 55 KB): its four scans and the FILTER push each
# row through per-step scratch rows, and materializing the head scan's
# output again trips it; an SJ1-shaped join whose constant FILTER keeps
# 5 % of the build side filters that side before it pairs (<= 110 KB;
# filtering after the join costs 284 KB); a constant BIND on 1,000
# joined rows points every row at one term the plan owns (<= 125 KB;
# copying it into each row's arena costs 179 KB); a warm Parse of Listing 3
# takes its token slice from a pool (<= 2,500 B; a fresh slice trips
# it); encoding a 1000-row result into a warm buffer allocates nothing, neither does rdf.Graph
# on a read with an unknown bound term or (amortized, presized) on an
# Add of interned terms, and an on-the-fly evaluation over unchanged
# sources re-publishes the view it has (three Listing-2 mappings inside
# their windows: < 1 KiB), and an expired region the DAP server answers
# 304 keeps its table for one HTTP round trip over loopback, with no
# dataset encoded or decoded and no grid read (<= 9 KiB and 110 allocs
# across both ends; the full fetch of the same 18-value grid costs
# ~19 KB and 272), while netcdf.Write allocates per attribute map, never
# per value. Geometry literals are decoded once per process
# and constant ones once per plan: a warm SJ1-shaped join over 1,000
# polygons decodes none of them, FILTER(geof:sfWithin(?w, CONST)) over
# 1,000 rows allocates for rows only, and the OGC predicates on two
# polygons allocate nothing. A cluster RPC encodes once into a
# per-connection buffer and decodes once, and a node matches into its
# connection's triple buffer: an answer of 1k matches allocates as often
# and as much as one of 10, an 8-triple routed read over TCP, decoded
# straight from the response frame, costs <= 26 allocs and 3,100 B
# across both ends (copying the answer out first costs 3,690 B), and a
# frame header declaring 64 MiB on a stream that then ends costs
# < 1 MiB. A nested-loop join step reads each replica group once, not
# once per row, sends its patterns as handles and decodes the answer in
# place into refs, a bound position being the pattern's own handle: a
# 64-pattern routed batch over TCP costs <= 140 allocs and 12,000 B
# (27,419 B by copy; 64 single reads cost ~1,200 and ~79 KB),
# and the benchmark's three-pattern join over 3 groups costs at most 3
# fan-out reads plus 3 routed reads per step in
# cluster_rpcs_total{type="match"}. Looking up
# an existing telemetry series allocates nothing, and neither does a
# result-cache hit on a Listing-3-shaped query (<= 1 alloc, 64 B): the
# key is the query text the parser kept. Encoding a segment run of 1k
# rows and of 64k rows costs the same <= 8 allocations: the counting
# passes reuse one count array and the image is sized before it is
# written, so nothing is allocated per row, term or comparison. The
# -cpu line also runs a spatial join of 1,500 features a side, which the
# planner serves from the R-tree nested loop at every core count.
go test -count=1 -cpu 1,2,4 -run '^(TestBGPJoinBytesCeiling|TestSpatialJoinLargeBuildSide)$' ./internal/sparql
go test -count=1 -run '^(TestSpatialJoinWarmAllocations|TestConstGeometryFilterAllocations|TestDiskScanAllocations|TestGraphScanAllocations|TestPipelineAllocations|TestResultsTableAllocations|TestSpatialJoinFilterAllocations|TestConstBindAllocations|TestParseAllocations)$' ./internal/sparql
go test -count=1 -run '^TestPredicateAllocations$' ./internal/geom
go test -count=1 -run '^TestResultsWriterAllocations$' ./internal/endpoint
go test -count=1 -run '^TestGraphAllocations$' ./internal/rdf
go test -count=1 -run '^(TestRevalidateAllocations|TestNotModifiedAllocations)$' ./internal/obda
go test -count=1 -run '^TestWriteAllocations$' ./internal/netcdf
go test -count=1 -cpu 1,2,4 -run '^(TestNodeMatchAllocations|TestRoutedReadAllocations|TestBatchedReadAllocations|TestBindJoinReadsPerStep|TestReadMessageHostileLength)$' ./internal/cluster
go test -count=1 -run '^TestSeriesLookupAllocations$' ./internal/telemetry
go test -count=1 -run '^TestLookupHitAllocations$' ./internal/rescache
go test -count=1 -run '^TestEncodeRowsAllocations$' ./internal/segment

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
check_cover ./internal/scatter/ 85
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
