package federation

// Result-cache wiring tests for the federated wrapper: a repeated
// whole-query answer is served without any pattern fan-out, member
// ingest invalidates through the summed member epochs, and partial
// answers are never cached.

import (
	"testing"

	"applab/internal/rdf"
	"applab/internal/rescache"
)

// TestFederatedQueryCacheCollapse: the repeat of a federated query is
// answered from the cache — zero member requests, zero patterns — and
// an ingest at any member invalidates the entry.
func TestFederatedQueryCacheCollapse(t *testing.T) {
	gadm, osm := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"osm", osm})
	fed.Cache = rescache.New(8, 0)
	q := `SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`

	count := func(label string, wantCached bool, want int64) *QueryReport {
		t.Helper()
		res, qr, err := fed.QueryPartial(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if qr.Cached != wantCached {
			t.Fatalf("%s: Cached = %v, want %v", label, qr.Cached, wantCached)
		}
		n, _ := res.Binding(0)["n"].Int()
		if n != want {
			t.Fatalf("%s: count = %d, want %d", label, n, want)
		}
		return qr
	}

	qr := count("cold query", false, 32)
	if qr.Patterns == 0 {
		t.Fatal("cold query reported zero pattern fan-outs")
	}
	requests := fed.RequestCount("gadm") + fed.RequestCount("osm")
	if requests == 0 {
		t.Fatal("cold query asked no members")
	}

	qr = count("cached repeat", true, 32)
	if qr.Patterns != 0 {
		t.Fatalf("cached repeat ran %d pattern fan-outs, want 0", qr.Patterns)
	}
	if got := fed.RequestCount("gadm") + fed.RequestCount("osm"); got != requests {
		t.Fatalf("cached repeat asked members: %d -> %d requests", requests, got)
	}
	if fed.Cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", fed.Cache.Len())
	}

	// Ingest at one member moves the federation epoch: miss, then the
	// refreshed entry hits again.
	gadm.Add(rdf.NewTriple(rdf.NewIRI(rdf.NSGADM+"extra"),
		hasGeometry, rdf.NewIRI(rdf.NSGADM+"extraGeom")))
	count("post-ingest query", false, 33)
	count("refreshed repeat", true, 33)
}

// TestFederatedPartialNeverCached: a fan-out with a broken member is
// partial, and partial answers must never be cached — the repeat runs
// the full evaluation again.
func TestFederatedPartialNeverCached(t *testing.T) {
	gadm, _ := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"bad", failingSource{}})
	fed.Cache = rescache.New(8, 0)
	q := `SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`

	for i := 0; i < 2; i++ {
		res, qr, err := fed.QueryPartial(q)
		if err != nil {
			t.Fatal(err)
		}
		if !qr.Partial {
			t.Fatalf("run %d: report not partial with a broken member", i)
		}
		if qr.Cached {
			t.Fatalf("run %d: partial answer served from cache", i)
		}
		if n, _ := res.Binding(0)["n"].Int(); n != 12 {
			t.Fatalf("run %d: partial count = %d, want 12 (gadm only)", i, n)
		}
	}
	if fed.Cache.Len() != 0 {
		t.Fatalf("partial answer was cached: %d entries", fed.Cache.Len())
	}
}

// TestFederationCacheIdentity: the federation composes its members'
// cache identities, so two federations over the same member instances
// share entries while a federation over different instances does not.
func TestFederationCacheIdentity(t *testing.T) {
	gadm, osm := buildMembers(t)
	fedA := New(Member{"gadm", gadm}, Member{"osm", osm})
	fedB := New(Member{"gadm", gadm}, Member{"osm", osm})
	if fedA.Fingerprint() != fedB.Fingerprint() {
		t.Fatalf("same members, different fingerprints: %q vs %q",
			fedA.Fingerprint(), fedB.Fingerprint())
	}
	gadm2, osm2 := buildMembers(t)
	fedC := New(Member{"gadm", gadm2}, Member{"osm", osm2})
	if fedA.Fingerprint() == fedC.Fingerprint() {
		t.Fatal("distinct member instances share a fingerprint")
	}
	// Epoch moves with member ingest.
	before := fedA.DataEpoch()
	osm.Add(rdf.NewTriple(rdf.NewIRI(rdf.NSOSM+"extra"),
		hasGeometry, rdf.NewIRI(rdf.NSOSM+"extraGeom")))
	if fedA.DataEpoch() == before {
		t.Fatal("member ingest did not move the federation epoch")
	}
}
