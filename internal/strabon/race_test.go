package strabon

// Race stress tests for the store layer. They assert very little about
// results on purpose: their job is to interleave writers with the lazy
// index rebuild under `go test -race`.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/segment"
)

func TestStoreConcurrentAddAndQuery(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 60))

	window := geom.Envelope{MinX: -0.5, MinY: -0.5, MaxX: 5.5, MaxY: 5.5}
	// The bare ?og geo:asWKT ?owkt build side probes SpatialCandidates.
	const join = `SELECT ?og WHERE {
  ?park a osm:Park ; geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pwkt .
  ?og geo:asWKT ?owkt .
  FILTER(geof:sfIntersects(?pwkt, ?owkt))
}`

	lai := rdf.NewIRI(rdf.NSLAI + "lai")
	var wg sync.WaitGroup
	// Writers keep dirtying the store so readers race the index rebuild,
	// and delete what they added: the dead slots pile up until the
	// memtable graph compacts into a new term table while readers hold
	// refs into the old one.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			extra := func(i int) rdf.Triple {
				sub := rdf.NewIRI(fmt.Sprintf("%sextra-%d-%d", rdf.NSLAI, w, i))
				return rdf.NewTriple(sub, lai, rdf.NewDouble(float64(i)))
			}
			for round := 0; round < 4; round++ {
				for i := 0; i < 40; i++ {
					s.Add(extra(i))
				}
				for i := 0; i < 40; i++ {
					s.Delete(extra(i))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (r + i) % 4 {
				case 0:
					s.SpatialCandidates(window)
				case 1:
					if _, err := s.Query(join); err != nil {
						t.Error(err)
						return
					}
				case 2:
					s.GeometryCount()
				default:
					s.Match(rdf.Term{}, rdf.NewIRI(rdf.NSGeo+"asWKT"), rdf.Term{})
					held, err := s.AppendRefs(context.Background(), nil, rdf.Term{}, lai, rdf.Term{})
					if err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
					for _, ref := range held {
						if !ref.P.Equal(lai) || ref.O.Datatype != rdf.XSDDouble {
							t.Errorf("a held ref reads %s %s %s", *ref.S, *ref.P, *ref.O)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze after stress: %v", err)
	}
	if got := s.GeometryCount(); got != 61 { // 60 obs + 1 park
		t.Errorf("GeometryCount = %d, want 61", got)
	}
}

// TestQueriesRaceFlushAndCompaction: queries over a disk store hold
// rows that point into run dictionaries while a writer flushes new runs
// and compacts the old ones away. Every row must still read terms of
// the shape that was written.
func TestQueriesRaceFlushAndCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), segment.Options{FlushEvery: 48, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := rdf.NewIRI(rdf.NSLAI + "lai")
	triple := func(i int) rdf.Triple {
		return rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("%sobs%d", rdf.NSLAI, i)), val, rdf.NewLiteral(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 100; i++ {
		s.Add(triple(i))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 400; i++ {
			s.Add(triple(i))
			if i%3 == 0 {
				s.Delete(triple(i - 90))
			}
			if i%50 == 0 {
				if err := s.Engine().Compact(); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	const q = `SELECT ?s ?v WHERE { ?s <` + rdf.NSLAI + `lai> ?v . ?s <` + rdf.NSLAI + `lai> ?w }`
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := s.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				for k := range res.Bindings {
					b := res.Binding(k)
					sub, v := b["s"].Value, b["v"].Value
					if !strings.HasPrefix(sub, rdf.NSLAI+"obs") || !strings.HasPrefix(v, "v") || sub[len(rdf.NSLAI+"obs"):] != v[1:] {
						t.Errorf("row binds ?s=%q ?v=%q, which no write produced", sub, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Engine().Stats().Compactions == 0 {
		t.Error("no compaction ran during the queries")
	}
}
