GO ?= go

# Packages exercised under the race detector: the concurrent query stack
# (store, OPeNDAP caches, the shared scatter-gather fan-out and the
# federation over it, interlinking) plus
# the fault-injection harness, the SPARQL HTTP transport it exercises,
# the segment storage engine (concurrent readers vs writer/flush), the
# spatial core (parallel join probes, bounded geometry cache), the result
# cache, the OBDA virtual graph, the cluster, the id-space graph
# (readers never intern) and MadIS (prepared statements and relations are
# shared between requests). ci.sh runs `make race` and `make fuzz`, so
# these lists are the only ones.
RACE_PKGS = ./internal/rdf/ ./internal/sparql/ ./internal/strabon/ ./internal/opendap/ ./internal/federation/ ./internal/scatter/ ./internal/interlink/ ./internal/faults/ ./internal/endpoint/ ./internal/telemetry/ ./internal/admission/ ./internal/e2e/ ./internal/segment/ ./internal/geom/ ./internal/geom/rtree/ ./internal/geosparql/ ./internal/rescache/ ./internal/obda/ ./internal/cluster/ ./internal/madis/

# End-to-end suites: the golden two-workflow test over live loopback
# servers plus the cmd-level boot/query/shutdown tests.
E2E_PKGS = ./internal/e2e/ ./cmd/strabon/ ./cmd/opendapd/ ./cmd/obda/

.PHONY: all build test lint race fmt vet fuzz bench bench-e2e e2e ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Repo-specific static analysis (errcheck, sharedmap, ctxflow; see
# DESIGN.md "Static analysis"): the linter lints itself first, then the
# whole tree, which must have zero findings. ci.sh gives the whole-tree
# pass a 15-second wall budget.
lint:
	$(GO) run ./cmd/applab-lint ./internal/analysis/... ./cmd/applab-lint
	$(GO) run ./cmd/applab-lint ./...

race:
	$(GO) test -race $(RACE_PKGS)

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Short mutation runs over the seed corpora of every fuzz target. Each
# -fuzz invocation may match only one target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=3s ./internal/netcdf/
	$(GO) test -run='^$$' -fuzz='^FuzzParseConstraint$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzParseDDS$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzApplyConstraint$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=3s ./internal/sparql/
	$(GO) test -run='^$$' -fuzz='^FuzzResultsWriter$$' -fuzztime=3s ./internal/endpoint/
	$(GO) test -run='^$$' -fuzz='^FuzzTermCompare$$' -fuzztime=3s ./internal/rdf/
	$(GO) test -run='^$$' -fuzz='^FuzzGraphOps$$' -fuzztime=3s ./internal/rdf/
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentOpen$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLogRefs$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzWireDecode$$' -fuzztime=3s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz='^FuzzRTreeSearch$$' -fuzztime=3s ./internal/geom/rtree/

# Engine benchmarks, measured and not gated: the BenchmarkEngine_*
# family (seed vs compiled, and the BGP join through each serving layer
# in BenchmarkEngine_BGPJoinVariants) and BenchmarkSpatialJoin (per-row
# filter vs spatial join over the Geographica workload). The
# deterministic guards are ci.sh's allocation ceilings; the serving
# numbers come from bench-e2e.
bench:
	$(GO) test -run=NONE -bench='Engine_|SpatialJoin' -benchmem ./internal/sparql/

# The end-to-end serving benchmark (bench/README.md): all five workloads
# with the traced pass, reports appended to BENCH_E2E_OUT for
# `bash bench/run.sh --compare`.
BENCH_E2E_OUT ?= .bench_build/bench-e2e.json
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --trace 1 --out $(BENCH_E2E_OUT)

# End-to-end golden suite: boots both Figure-1 workflows on loopback
# servers and asserts exact telemetry counters (see internal/e2e).
e2e:
	$(GO) test -count=1 $(E2E_PKGS)

# The full gate: fmt + vet + lint + tests + race in one invocation.
ci:
	./ci.sh
