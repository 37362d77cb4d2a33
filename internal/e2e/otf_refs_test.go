package e2e

// The compiled engine scans a virtual graph's view by reference: each
// pipeline step appends refs into the view's term table to a buffer it
// reuses, and pooled pipeline state keeps those buffers between
// evaluations. These tests pin the two things that must not change with
// it: a pooled buffer never keeps an old view alive, and an upstream
// outage still reads as an empty answer, now counted.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"weak"

	"applab/internal/core"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// viewTermHandle is a weak handle on the term table of vg's current
// view, made where no strong reference outlives the call.
//
//go:noinline
func viewTermHandle(t *testing.T, vg *obda.VirtualGraph) weak.Pointer[rdf.Term] {
	t.Helper()
	refs, err := vg.AppendRefs(context.Background(), nil, rdf.Term{}, rdf.Term{}, rdf.Term{})
	if err != nil || len(refs) == 0 {
		t.Fatalf("view scan: %d refs, %v", len(refs), err)
	}
	return weak.Make(refs[0].S)
}

// evalThings runs a two-pattern join over the view, whose steps fill
// their ref buffers from it, and drops the answer.
//
//go:noinline
func evalThings(t *testing.T, vg *obda.VirtualGraph) {
	t.Helper()
	res, err := sparql.Eval(vg, `SELECT ?s ?n WHERE { ?s a <`+contractNS+`Thing> . ?s <`+contractNS+`name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 10 {
		t.Fatalf("%d rows, want 10", len(res.Bindings))
	}
}

// TestPooledChunksPinNoView: once a rebuild replaced the view an
// evaluation scanned, one GC frees the old view's term table. sync.Pool
// keeps pooled chunks through the first GC (in its victim cache) and
// drops them at the second, so a chunk whose ref buffers still pointed
// into the old table would keep it alive past the first.
func TestPooledChunksPinNoView(t *testing.T) {
	db, table, mappings := thingsDB(t)
	vg := obda.NewVirtualGraph(db, mappings)
	old := viewTermHandle(t, vg)
	evalThings(t, vg)

	epoch := vg.DataEpoch()
	bumpThings(db, table)
	vg.Invalidate()
	if _, err := vg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if vg.DataEpoch() != epoch+1 {
		t.Fatalf("data epoch %d after the upstream change, want %d: the view was not rebuilt", vg.DataEpoch(), epoch+1)
	}
	for gc := 1; gc <= 2; gc++ {
		runtime.GC()
		if old.Value() != nil {
			t.Fatalf("the replaced view's term table survived GC %d: pooled engine state still points into it", gc)
		}
	}
}

// TestOnTheFlyOutageCountsScanError: with the OPeNDAP server down, an
// on-the-fly query still answers empty, the view records the outage,
// and the scan that read the failure as empty is counted.
func TestOnTheFlyOutageCountsScanError(t *testing.T) {
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	defer sparql.SetMetrics(nil)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	client := opendap.NewClient(dead.URL)
	client.MaxRetries = 0
	db := madis.NewDB()
	obda.NewOpendapAdapter(client).Register(db)
	mappings, err := obda.ParseMappings(core.Listing2Mapping)
	if err != nil {
		t.Fatal(err)
	}
	vg := obda.NewVirtualGraph(db, mappings)

	before := reg.Snapshot()
	res, err := sparql.Eval(vg, core.Listing3Query)
	if err != nil {
		t.Fatalf("an outage must read as an empty answer, got %v", err)
	}
	if len(res.Bindings) != 0 {
		t.Fatalf("%d rows with the server down, want 0", len(res.Bindings))
	}
	if vg.LastError() == nil {
		t.Error("LastError is nil after an outage")
	}
	wantCounters(t, "outage", before, reg.Snapshot(), map[string]int64{
		`sparql_scan_errors_total{path="ref"}`:      1,
		`sparql_scan_errors_total{path="context"}`:  0,
		`sparql_scan_errors_total{path="exchange"}`: 0,
	})
}
