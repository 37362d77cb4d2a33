package strabon

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
)

// Differential oracle at the Store level: the disk-backed store (tiny
// flush threshold so data is spread across segments, WAL, and
// memtable) must answer every query byte-identically to the seed
// in-memory store. Match results are compared canonically sorted;
// SPARQL results via the serialized binding rows; the spatial and
// temporal index methods directly.

// canonicalTriples renders a triple set order-independently.
func canonicalTriples(ts []rdf.Triple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.S.Key() + "\x00" + t.P.Key() + "\x00" + t.O.Key() +
			fmt.Sprintf("\x00%d|%d", t.ValidFrom.UnixNano(), t.ValidTo.UnixNano())
	}
	sort.Strings(out)
	return out
}

// canonicalBindings renders SPARQL results order-independently.
func canonicalBindings(t *testing.T, res []sparql.Binding, vars []string) []string {
	t.Helper()
	out := make([]string, len(res))
	for i, b := range res {
		var row []string
		for _, v := range vars {
			if tm, ok := b[v]; ok {
				row = append(row, v+"="+tm.String())
			}
		}
		out[i] = strings.Join(row, "|")
	}
	sort.Strings(out)
	return out
}

// diskStore opens a disk-backed store that flushes aggressively.
func diskStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, segment.Options{FlushEvery: 50, CompactAt: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func assertStoresAgree(t *testing.T, mem, disk *Store, label string) {
	t.Helper()
	// Raw pattern matching, the surface the whole query engine sits on.
	geo := func(local string) rdf.Term { return rdf.NewIRI(rdf.NSGeo + local) }
	pats := []struct {
		name    string
		s, p, o rdf.Term
	}{
		{"wildcard", rdf.Term{}, rdf.Term{}, rdf.Term{}},
		{"p-bound", rdf.Term{}, geo("asWKT"), rdf.Term{}},
		{"p-bound-time", rdf.Term{}, rdf.NewIRI(rdf.NSTime + "hasTime"), rdf.Term{}},
		{"s-bound", rdf.NewIRI(rdf.NSOSM + "park1"), rdf.Term{}, rdf.Term{}},
		{"so-bound", rdf.NewIRI(rdf.NSOSM + "park1"), geo("hasGeometry"), rdf.Term{}},
		{"miss", rdf.NewIRI("http://nowhere/"), rdf.Term{}, rdf.Term{}},
	}
	for _, p := range pats {
		a := canonicalTriples(mem.Match(p.s, p.p, p.o))
		b := canonicalTriples(disk.Match(p.s, p.p, p.o))
		if len(a) != len(b) {
			t.Fatalf("%s: Match %s: memory %d rows, disk %d rows", label, p.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Match %s: row %d differs:\n  mem:  %s\n  disk: %s", label, p.name, i, a[i], b[i])
			}
		}
		// Estimates need not be equal (different statistics) but both
		// must be sound upper bounds.
		if est := disk.Cardinality(p.s, p.p, p.o); est < len(b) {
			t.Fatalf("%s: disk Cardinality %s = %d < actual %d", label, p.name, est, len(b))
		}
	}
	if mem.Len() != disk.Len() {
		t.Fatalf("%s: Len: memory %d, disk %d", label, mem.Len(), disk.Len())
	}

	// A GeoSPARQL query through the full engine (planner reads the
	// disk store's segment statistics; answers must not change).
	q := `PREFIX geo: <http://www.opengis.net/ont/geosparql#>
PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
SELECT ?f ?wkt WHERE {
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER (geof:sfIntersects(?wkt, "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"^^geo:wktLiteral))
}`
	rm, err := mem.Query(q)
	if err != nil {
		t.Fatalf("%s: memory query: %v", label, err)
	}
	rd, err := disk.Query(q)
	if err != nil {
		t.Fatalf("%s: disk query: %v", label, err)
	}
	am := canonicalBindings(t, rm.Bindings, rm.Vars)
	ad := canonicalBindings(t, rd.Bindings, rd.Vars)
	if len(am) != len(ad) {
		t.Fatalf("%s: query rows: memory %d, disk %d", label, len(am), len(ad))
	}
	for i := range am {
		if am[i] != ad[i] {
			t.Fatalf("%s: query row %d differs:\n  mem:  %s\n  disk: %s", label, i, am[i], ad[i])
		}
	}

	// Spatial and spatio-temporal index methods.
	win := geom.NewRect(-0.5, -0.5, 5.5, 5.5)
	fm, fd := mem.FeaturesIntersecting(win), disk.FeaturesIntersecting(win)
	if len(fm) != len(fd) {
		t.Fatalf("%s: FeaturesIntersecting: memory %d, disk %d", label, len(fm), len(fd))
	}
	for i := range fm {
		if !fm[i].Equal(fd[i]) {
			t.Fatalf("%s: feature %d differs: %v vs %v", label, i, fm[i], fd[i])
		}
	}
	from := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(1, 0, 0)
	om, od := mem.ObservationsDuring(geom.Envelope{}, from, to), disk.ObservationsDuring(geom.Envelope{}, from, to)
	if len(om) != len(od) {
		t.Fatalf("%s: ObservationsDuring: memory %d, disk %d", label, len(om), len(od))
	}
}

func TestDifferentialDiskVsMemory(t *testing.T) {
	data := buildParkData(t, 200)
	mem := New()
	mem.AddAll(data)
	dir := t.TempDir()
	disk := diskStore(t, dir)
	disk.AddAll(data)
	if err := disk.Err(); err != nil {
		t.Fatalf("disk store error: %v", err)
	}
	assertStoresAgree(t, mem, disk, "warm")

	// Mutations after the initial bulk load: deletes mask flushed rows.
	victim := rdf.NewTriple(
		rdf.NewIRI(rdf.NSOSM+"park1"),
		rdf.NewIRI(rdf.RDFType),
		rdf.NewIRI(rdf.NSOSM+"Park"))
	memVictims := mem.Match(victim.S, victim.P, victim.O)
	if len(memVictims) != 1 {
		t.Fatalf("victim lookup: %d", len(memVictims))
	}
	disk.Delete(victim)
	// The seed store has no Delete; emulate on the oracle by rebuilding.
	mem2 := New()
	for _, tr := range mem.Graph().Triples() {
		if !tr.S.Equal(victim.S) || !tr.P.Equal(victim.P) || !tr.O.Equal(victim.O) {
			mem2.Add(tr)
		}
	}
	assertStoresAgree(t, mem2, disk, "after-delete")

	// Cold restart: everything must hold against a store that booted
	// from segment footers alone.
	if err := disk.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cold, err := Open(dir, segment.Options{})
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer cold.Close()
	assertStoresAgree(t, mem2, cold, "cold")
}

// TestDifferentialConcurrentReaders runs SPARQL queries against the
// disk store from several goroutines while a writer appends — the
// endpoint serving scenario, meaningful under -race.
func TestDifferentialConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	disk := diskStore(t, dir)
	defer disk.Close()
	disk.AddAll(buildParkData(t, 100))

	q := `PREFIX geo: <http://www.opengis.net/ont/geosparql#>
SELECT ?g WHERE { ?f geo:hasGeometry ?g }`
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := disk.Query(q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		disk.Add(rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("%sconc%d", rdf.NSLAI, i)),
			rdf.NewIRI(rdf.NSLAI+"lai"),
			rdf.NewDouble(float64(i))))
	}
	if err := disk.Flush(); err != nil {
		t.Errorf("flush: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := disk.Err(); err != nil {
		t.Fatalf("store error: %v", err)
	}
}

// TestOpenRefusesShardedLayout: a directory the removed -shards mode
// wrote keeps its data in shard-NN/ subdirectories and has no MANIFEST
// of its own. Opening it must fail loudly, naming the directory, rather
// than create an empty store beside the shards and answer every query
// empty.
func TestOpenRefusesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	shard, err := Open(filepath.Join(dir, "shard-00"), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shard.AddAll(buildParkData(t, 10))
	if err := shard.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, segment.Options{})
	if err == nil {
		st.Close()
		t.Fatal("Open over a -shards data dir succeeded; want an error")
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "shard-") {
		t.Fatalf("error %q does not name the directory and its shard-* layout", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused Open left a MANIFEST behind (stat: %v)", err)
	}

	// A store of its own beside a shard-* entry opens normally.
	own := t.TempDir()
	st, err = Open(own, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll(buildParkData(t, 10))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(own, "shard-00"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err = Open(own, segment.Options{})
	if err != nil {
		t.Fatalf("Open over a store with a stray shard-* entry: %v", err)
	}
	defer st.Close()
	if st.Len() == 0 {
		t.Fatal("reopened store is empty")
	}
}
