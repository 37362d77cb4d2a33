package obda

import (
	"net/http"
	"strings"
	"testing"

	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// The virtual graph must satisfy the error-surfacing interface the
// federation engine prefers, so a broken OBDA member is reported rather
// than mistaken for an empty dataset.
var _ sparql.ErrorSource = (*VirtualGraph)(nil)

var laiPred = rdf.NewIRI("http://www.app-lab.eu/lai/lai")

func TestVirtualGraphSurfacesUpstreamOutage(t *testing.T) {
	db, adapter, _, closeFn := laiServer(t, 0)
	defer closeFn()
	// The OPeNDAP upstream fails twice (one failure per snapshot
	// attempt below), then recovers.
	script := faults.FailN(2, faults.Step{Kind: faults.ConnError})
	adapter.client.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}

	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)

	// First snapshot hits the injected outage: the error must surface
	// through MatchErr and show as empty (not panic, not partial
	// garbage) through the legacy Match path.
	if _, err := vg.MatchErr(rdf.Term{}, laiPred, rdf.Term{}); err == nil {
		t.Fatal("outage must surface through MatchErr")
	} else if !strings.Contains(err.Error(), "obda: mapping opendap_mapping") {
		t.Fatalf("err = %v", err)
	}
	if got := vg.Match(rdf.Term{}, laiPred, rdf.Term{}); got != nil {
		t.Fatalf("Match during outage = %d triples, want nil", len(got))
	}

	// Upstream recovered: the same virtual graph works again.
	triples, err := vg.MatchErr(rdf.Term{}, laiPred, rdf.Term{})
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 13 { // positives in the fixture grid
		t.Fatalf("recovered MatchErr = %d triples, want 13", len(triples))
	}
}

// evalCounted evaluates q over src with a fresh engine registry and
// returns the answer and the scans the engine read as empty.
func evalCounted(t *testing.T, src sparql.Source, q string) (*sparql.Results, int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	defer sparql.SetMetrics(nil)
	res, err := sparql.Eval(src, q)
	if err != nil {
		t.Fatalf("an outage must read as a partial answer, got %v", err)
	}
	return res, reg.Counter("sparql_scan_errors_total", "path", "ref").Value()
}

// TestVirtualGraphQueryFailsLoudOnOutage: a one-shot evaluation over a
// dead upstream answers like the endpoint, empty and marked partial
// with the failed scan counted, never silently empty; the next
// evaluation revalidates and answers in full.
func TestVirtualGraphQueryFailsLoudOnOutage(t *testing.T) {
	db, adapter, _, closeFn := laiServer(t, 0)
	defer closeFn()
	script := faults.FailN(1, faults.Step{Kind: faults.ConnError})
	adapter.client.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}

	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)
	const q = `SELECT ?s WHERE { ?s lai:lai ?v }`
	if res, scanErrs := evalCounted(t, vg, q); len(res.Bindings) != 0 || !res.Partial || scanErrs != 1 {
		t.Fatalf("outage: %d rows, partial %v, %d scan errors; want 0, partial, 1", len(res.Bindings), res.Partial, scanErrs)
	}
	if res, scanErrs := evalCounted(t, vg, q); len(res.Bindings) != 13 || res.Partial || scanErrs != 0 {
		t.Fatalf("recovered: %d rows, partial %v, %d scan errors; want 13, complete, 0", len(res.Bindings), res.Partial, scanErrs)
	}
}
