package e2e

// The compiled engine points its solution rows straight at the terms of
// the slices Source.Match returns (see sparql.Source), so "the caller
// owns the returned slice" is load-bearing: a source that handed out its
// own storage, or the same backing array twice, would have one query's
// rows change under it when another caller — or the source itself —
// touched the slice. This test scribbles over every slice every in-repo
// source returns and checks that the next answer is unaffected.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"applab/internal/cluster"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/federation"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

const contractNS = "http://ex.org/contract/"

// contractTriples is the data every source under test serves: ten
// subjects with a name and a type each.
func contractTriples() []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < 10; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", contractNS, i))
		ts = append(ts,
			rdf.NewTriple(s, rdf.NewIRI(contractNS+"name"), rdf.NewLiteral(fmt.Sprintf("n%d", i))),
			rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(contractNS+"Thing")))
	}
	return ts
}

func TestSourcesHandOutCallerOwnedSlices(t *testing.T) {
	data := contractTriples()
	graph := func() *rdf.Graph {
		g := rdf.NewGraph()
		g.AddAll(data)
		return g
	}

	disk, err := segment.Open(t.TempDir(), segment.Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, err := disk.AddAll(data); err != nil {
		t.Fatal(err)
	}
	mem := segment.New()
	if _, err := mem.AddAll(data); err != nil {
		t.Fatal(err)
	}

	store := strabon.New()
	store.AddAll(data)
	naive := strabon.NewNaive()
	naive.AddAll(data)

	db := madis.NewDB()
	table := &madis.Table{Name: "things", Cols: []string{"id", "name"}}
	for i := 0; i < 10; i++ {
		table.Rows = append(table.Rows, madis.Row{fmt.Sprint(i), fmt.Sprintf("n%d", i)})
	}
	db.CreateTable(table)
	mappings, err := obda.ParseMappings(`
mappingId	things
target		<` + contractNS + `s{id}> a <` + contractNS + `Thing> ; <` + contractNS + `name> "{name}" .
source		SELECT id, name FROM things
`)
	if err != nil {
		t.Fatal(err)
	}
	virtual := obda.NewVirtualGraph(db, mappings)
	adaptive := obda.NewAdaptiveGraph(obda.NewVirtualGraph(db, mappings),
		obda.NewOpendapAdapter(opendap.NewClient("http://unused.invalid")), 1000, 0)

	remoteSrv := httptest.NewServer(endpoint.Handler(graph()))
	defer remoteSrv.Close()
	remote := endpoint.NewRemoteSource(remoteSrv.URL)

	fed := federation.New(
		federation.Member{Name: "a", Source: graph()},
		federation.Member{Name: "b", Source: store})

	net := cluster.NewMemNetwork()
	for _, id := range []string{"n1", "n2", "n3"} {
		net.AddNode(cluster.NewNode(id))
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Groups:    [][]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}},
		Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAll(context.Background(), data); err != nil {
		t.Fatal(err)
	}

	sources := map[string]sparql.Source{
		"rdf.Graph":             graph(),
		"segment.Engine (disk)": disk,
		"segment.Engine (mem)":  mem,
		"strabon.Store":         store,
		"strabon.NaiveStore":    naive,
		"obda.VirtualGraph":     virtual,
		"obda.AdaptiveGraph":    adaptive,
		"endpoint.RemoteSource": remote,
		"federation.Federation": fed,
		"cluster.Coordinator":   coord,
		"faults.Source":         faults.NewSource(graph(), faults.Seq()),
	}
	s3 := rdf.NewIRI(contractNS + "s3")
	patterns := map[string][3]rdf.Term{
		"all":       {},
		"predicate": {{}, rdf.NewIRI(contractNS + "name"), {}},
		"subject":   {s3, {}, {}},
		"object":    {{}, {}, rdf.NewIRI(contractNS + "Thing")},
	}
	for name, src := range sources {
		// Every way the engine can reach the source's triples.
		calls := map[string]func(s, p, o rdf.Term) []rdf.Triple{"Match": src.Match}
		if es, ok := src.(sparql.ErrorSource); ok {
			calls["MatchErr"] = func(s, p, o rdf.Term) []rdf.Triple {
				ts, err := es.MatchErr(s, p, o)
				if err != nil {
					t.Fatalf("%s: MatchErr: %v", name, err)
				}
				return ts
			}
		}
		if cs, ok := src.(sparql.ContextSource); ok {
			calls["MatchContext"] = func(s, p, o rdf.Term) []rdf.Triple {
				ts, err := cs.MatchContext(context.Background(), s, p, o)
				if err != nil {
					t.Fatalf("%s: MatchContext: %v", name, err)
				}
				return ts
			}
		}
		if ex, ok := src.(sparql.ExchangeSource); ok {
			for frag := 0; frag < ex.Fragments(); frag++ {
				calls[fmt.Sprintf("FragmentMatch(%d)", frag)] = func(s, p, o rdf.Term) []rdf.Triple {
					ts, err := ex.FragmentMatch(context.Background(), frag, s, p, o)
					if err != nil {
						t.Fatalf("%s: FragmentMatch: %v", name, err)
					}
					return ts
				}
			}
		}
		for call, match := range calls {
			for shape, pat := range patterns {
				first := match(pat[0], pat[1], pat[2])
				if len(first) == 0 && call == "Match" {
					t.Errorf("%s: %s(%s) returned nothing; the fixture must exercise it", name, call, shape)
				}
				want := append([]rdf.Triple(nil), first...)
				// Scribble over everything reachable through the slice,
				// spare capacity included.
				first = first[:cap(first)]
				for i := range first {
					first[i] = rdf.NewTriple(rdf.NewIRI("scribble"), rdf.NewIRI("scribble"), rdf.NewLiteral("scribble"))
				}
				again := match(pat[0], pat[1], pat[2])
				if len(again) != len(want) {
					t.Errorf("%s: %s(%s): %d triples after the caller wrote to the first answer, %d before", name, call, shape, len(again), len(want))
					continue
				}
				for i := range want {
					if again[i].Compare(&want[i]) != 0 {
						t.Errorf("%s: %s(%s): triple %d is %v after the caller wrote to the first answer, was %v", name, call, shape, i, again[i], want[i])
						break
					}
				}
			}
		}
	}
}
