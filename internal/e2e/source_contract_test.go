package e2e

// The compiled engine points its solution rows straight at the terms of
// the slices Source.Match returns (see sparql.Source), so "the caller
// owns the returned slice" is load-bearing: a source that handed out its
// own storage, or the same backing array twice, would have one query's
// rows change under it when another caller — or the source itself —
// touched the slice. This test scribbles over every slice every in-repo
// source returns and checks that the next answer is unaffected. A
// RefSource appends refs to a buffer the engine reuses, and the refs
// point at terms the source owns: every RefSource must append after a
// prefix it leaves alone, answer Match's terms in Match's order, keep
// nothing of the buffer, and keep held refs reading the same terms
// across its own writes (a compacting memtable graph, a rebuilt view, a
// flush and a compaction of runs).

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

// thingsDB is the contract data as a MadIS table, with the mapping that
// turns it into contractTriples.
func thingsDB(t *testing.T) (*madis.DB, *madis.Table, []obda.Mapping) {
	t.Helper()
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
	return db, table, mappings
}

// bumpThings replaces the things table with renamed content, the way an
// upstream change reaches a view: the next revalidation rebuilds it.
func bumpThings(db *madis.DB, table *madis.Table) {
	bumped := &madis.Table{Name: table.Name, Cols: table.Cols}
	for _, row := range table.Rows {
		bumped.Rows = append(bumped.Rows, madis.Row{row[0], "renamed-" + row[1].(string)})
	}
	db.CreateTable(bumped)
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

	db, table, mappings := thingsDB(t)
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
				for shape, pat := range patterns {
					checkBatchRefs(t, fmt.Sprintf("%s: FragmentMatchBatch(%d, %s)", name, frag, shape), bx, frag, pat)
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
				checkAppendRefs(t, name+": AppendRefs("+shape+")", rs, pat)
			}
		}
	}
	for _, name := range []string{"rdf.Graph", "segment.Engine (disk)", "segment.Engine (mem)", "strabon.Store", "strabon.Store (disk)", "obda.VirtualGraph", "obda.AdaptiveGraph"} {
		if _, ok := sources[name].(sparql.RefSource); !ok {
			t.Errorf("%s is not a sparql.RefSource", name)
		}
	}
	checkRefsOutliveWrites(t, diskStore, data)
	checkRefsOutliveCompaction(t, store, data)
	checkRefsOutliveRebuild(t, db, virtual, table)
}

// checkAppendRefs appends a scan's refs after a prefix, checks the
// prefix and the terms against Match, then scribbles over the whole
// returned array and checks that the next answer reads the same terms.
func checkAppendRefs(t *testing.T, label string, rs sparql.RefSource, pat [3]rdf.Term) {
	t.Helper()
	want := termsOf(rs.Match(pat[0], pat[1], pat[2]))
	if len(want) == 0 {
		t.Errorf("%s: Match returned nothing; the fixture must exercise it", label)
	}
	mark := rdf.NewLiteral("prefix")
	prefix := rdf.Ref{S: &mark, P: &mark, O: &mark}
	first, err := rs.AppendRefs(context.Background(), []rdf.Ref{prefix, prefix}, pat[0], pat[1], pat[2])
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(first) < 2 || first[0] != prefix || first[1] != prefix {
		t.Fatalf("%s: the prefix of dst did not survive the append", label)
	}
	if got := readRefs(first[2:]); !slices.Equal(got, want) {
		t.Errorf("%s: %v, Match answers %v", label, got, want)
	}
	scribble := rdf.NewLiteral("scribble")
	all := first[:cap(first)]
	for i := range all {
		all[i] = rdf.Ref{S: &scribble, P: &scribble, O: &scribble}
	}
	again, err := rs.AppendRefs(context.Background(), nil, pat[0], pat[1], pat[2])
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := readRefs(again); !slices.Equal(got, want) {
		t.Errorf("%s: %v after the caller wrote to the first answer, was %v", label, got, want)
	}
}

// checkBatchRefs reads a pattern twice in one batch, checks both
// answers against FragmentMatch's terms, then scribbles over every
// returned array, spare capacity included, and checks that the next
// batch reads the same terms.
func checkBatchRefs(t *testing.T, label string, bx sparql.BatchExchangeSource, frag int, pat [3]rdf.Term) {
	t.Helper()
	ts, err := bx.FragmentMatch(context.Background(), frag, pat[0], pat[1], pat[2])
	if err != nil {
		t.Fatalf("%s: FragmentMatch: %v", label, err)
	}
	want := termsOf(ts)
	p := rdf.Pattern{S: pat[0], P: pat[1], O: pat[2]}
	read := func() [][]rdf.Ref {
		answers, err := bx.FragmentMatchBatch(context.Background(), frag, []rdf.Pattern{p, p})
		if err != nil || len(answers) != 2 {
			t.Fatalf("%s: %d answers, err %v", label, len(answers), err)
		}
		for i, a := range answers {
			if got := readRefs(a); !slices.Equal(got, want) {
				t.Fatalf("%s: answer %d reads %v, FragmentMatch answers %v", label, i, got, want)
			}
		}
		return answers
	}
	scribble := rdf.NewLiteral("scribble")
	for _, a := range read() {
		all := a[:cap(a)]
		for i := range all {
			all[i] = rdf.Ref{S: &scribble, P: &scribble, O: &scribble}
		}
	}
	read()
}

// allRefs is every match of rs by reference.
func allRefs(t *testing.T, rs sparql.RefSource) []rdf.Ref {
	t.Helper()
	refs, err := rs.AppendRefs(context.Background(), nil, rdf.Term{}, rdf.Term{}, rdf.Term{})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// readRefs copies the terms refs point at.
func readRefs(refs []rdf.Ref) []rdf.Triple {
	out := make([]rdf.Triple, len(refs))
	for i, r := range refs {
		out[i] = rdf.NewTriple(*r.S, *r.P, *r.O)
	}
	return out
}

// termsOf drops the valid time refs do not carry.
func termsOf(ts []rdf.Triple) []rdf.Triple {
	out := make([]rdf.Triple, len(ts))
	for i, tr := range ts {
		out[i] = rdf.NewTriple(tr.S, tr.P, tr.O)
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
	held := allRefs(t, st)
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
	names, err := st.AppendRefs(context.Background(), nil, rdf.Term{}, rdf.NewIRI(contractNS+"name"), rdf.Term{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 10 {
		t.Errorf("%d names after the rewrite, want 10", len(names))
	}
}

// checkRefsOutliveCompaction: refs into a memory store's memtable graph
// keep reading the same terms after Adds and Deletes that leave more
// dead slots than live ones, which makes the graph compact into a new
// term table.
func checkRefsOutliveCompaction(t *testing.T, st *strabon.Store, data []rdf.Triple) {
	t.Helper()
	held := allRefs(t, st)
	want := readRefs(held)
	for _, tr := range data {
		st.Add(rdf.NewTriple(tr.S, tr.P, rdf.NewLiteral("rewritten")))
	}
	// 2n slots: deleting the n originals and one more leaves n+1 dead.
	for _, tr := range data {
		st.Delete(tr)
	}
	st.Delete(rdf.NewTriple(data[0].S, data[0].P, rdf.NewLiteral("rewritten")))
	after := allRefs(t, st)
	if len(after) != len(data)-1 {
		t.Fatalf("%d triples after the writes, want %d", len(after), len(data)-1)
	}
	// Compaction re-interns every term: the subject of a surviving
	// triple now lives in the new table.
	same := false
	for _, r := range held {
		if r.S == after[0].S {
			same = true
		}
	}
	if same {
		t.Fatal("the memtable graph did not compact; the fixture must force it")
	}
	if got := readRefs(held); !slices.Equal(got, want) {
		t.Errorf("held refs read %v after the compaction, read %v before", got, want)
	}
}

// checkRefsOutliveRebuild: refs into a virtual graph's view keep
// reading the same terms after an upstream change rebuilt the view.
func checkRefsOutliveRebuild(t *testing.T, db *madis.DB, vg *obda.VirtualGraph, table *madis.Table) {
	t.Helper()
	held := allRefs(t, vg)
	want := readRefs(held)
	epoch := vg.DataEpoch()
	bumpThings(db, table)
	vg.Invalidate()
	after := readRefs(allRefs(t, vg))
	if vg.DataEpoch() != epoch+1 {
		t.Fatalf("data epoch %d after the upstream change, want %d: the view was not rebuilt", vg.DataEpoch(), epoch+1)
	}
	if slices.Equal(after, want) {
		t.Fatal("the rebuilt view answers as the old one did")
	}
	if got := readRefs(held); !slices.Equal(got, want) {
		t.Errorf("held refs read %v after the rebuild, read %v before", got, want)
	}
}
