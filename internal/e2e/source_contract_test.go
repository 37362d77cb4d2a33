package e2e

// The compiled engine points its solution rows straight at the terms of
// the slices Source.Match returns (see sparql.Source), so "the caller
// owns the returned slice" is load-bearing: a source that handed out its
// own storage, or the same backing array twice, would have one query's
// rows change under it when another caller — or the source itself —
// touched the slice. This test scribbles over every slice every in-repo
// source returns and checks that the next answer is unaffected. A
// RefSource's refs point at terms the source owns, so for the disk store
// it also holds refs across writes, a flush and a compaction.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
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
	diskStore, err := strabon.Open(t.TempDir(), segment.Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer diskStore.Close()
	for _, part := range [][]rdf.Triple{data[:8], data[8:16], data[16:]} {
		diskStore.AddAll(part) // two runs and a memtable tail
	}

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
		"strabon.Store (disk)":  diskStore,
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
		if bx, ok := src.(sparql.BatchExchangeSource); ok {
			for frag := 0; frag < bx.Fragments(); frag++ {
				calls[fmt.Sprintf("FragmentMatchBatch(%d)", frag)] = func(s, p, o rdf.Term) []rdf.Triple {
					answers, err := bx.FragmentMatchBatch(context.Background(), frag, []rdf.Pattern{{S: s, P: p, O: o}, {S: s, P: p, O: o}})
					if err != nil {
						t.Fatalf("%s: FragmentMatchBatch: %v", name, err)
					}
					return answers[1]
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
		if rs, ok := src.(sparql.RefSource); ok {
			for shape, pat := range patterns {
				checkRefsCallerOwned(t, name+": MatchRefs("+shape+")", rs, pat)
			}
		}
	}
	checkRefsOutliveWrites(t, diskStore, data)
}

// checkRefsCallerOwned scribbles over a MatchRefs answer — the refs, or
// the triples when the source answered with those — and checks that the
// next answer reads the same terms.
func checkRefsCallerOwned(t *testing.T, label string, rs sparql.RefSource, pat [3]rdf.Term) {
	t.Helper()
	first := rs.MatchRefs(pat[0], pat[1], pat[2])
	if first.Len() == 0 {
		t.Errorf("%s returned nothing; the fixture must exercise it", label)
	}
	want := readRefs(first)
	scribble := rdf.NewLiteral("scribble")
	refs := first.Refs[:cap(first.Refs)]
	for i := range refs {
		refs[i] = rdf.Ref{S: &scribble, P: &scribble, O: &scribble}
	}
	ts := first.Triples[:cap(first.Triples)]
	for i := range ts {
		ts[i] = rdf.NewTriple(scribble, scribble, scribble)
	}
	if got := readRefs(rs.MatchRefs(pat[0], pat[1], pat[2])); !slices.Equal(got, want) {
		t.Errorf("%s: %v after the caller wrote to the first answer, was %v", label, got, want)
	}
}

// readRefs copies the terms a scan's matches point at.
func readRefs(m rdf.Matches) []rdf.Triple {
	out := make([]rdf.Triple, m.Len())
	for i := range out {
		r := m.At(i)
		out[i] = rdf.NewTriple(*r.S, *r.P, *r.O)
	}
	return out
}

// checkRefsOutliveWrites: refs a disk store handed out keep reading the
// same terms while the store adds, deletes, flushes and compacts away
// the runs they point into — a compaction closes run files, not the
// dictionaries decoded from them.
func checkRefsOutliveWrites(t *testing.T, st *strabon.Store, data []rdf.Triple) {
	t.Helper()
	if st.Engine().Segments() < 2 || st.Engine().Stats().MemtableTriples == 0 {
		t.Fatalf("the disk store has %d runs and %d memtable triples; want two runs and a tail", st.Engine().Segments(), st.Engine().Stats().MemtableTriples)
	}
	held := st.MatchRefs(rdf.Term{}, rdf.Term{}, rdf.Term{})
	if held.Refs == nil {
		t.Fatal("a store with runs answered MatchRefs with triples, want refs")
	}
	want := readRefs(held)
	if len(want) != len(data) {
		t.Fatalf("%d matches, want %d", len(want), len(data))
	}

	rewritten := make([]rdf.Triple, len(data))
	for i, tr := range data {
		rewritten[i] = rdf.NewTriple(tr.S, tr.P, rdf.NewLiteral("rewritten"))
	}
	st.AddAll(rewritten)
	for _, tr := range data {
		st.Delete(tr)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Engine().Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Engine().Segments(); got != 1 {
		t.Fatalf("%d runs after Compact, want 1", got)
	}
	if got := readRefs(held); !slices.Equal(got, want) {
		t.Errorf("held refs read %v after the writes, read %v before", got, want)
	}
	if got := st.MatchRefs(rdf.Term{}, rdf.NewIRI(contractNS+"name"), rdf.Term{}).Len(); got != 10 {
		t.Errorf("%d names after the rewrite, want 10", got)
	}
}
