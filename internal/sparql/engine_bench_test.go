package sparql

import (
	"runtime"
	"testing"
)

// BenchmarkEngine_* compares the compiled slot engine against the seed
// map evaluator on the workloads the tentpole targets: multi-pattern
// BGP joins over a 5k-subject graph (25k triples). The acceptance bar
// is >=3x fewer allocs/op and >=2x lower ns/op on the join benchmark;
// cmd/applab-bench -json records the numbers into BENCH_PR3.json.

const benchSubjects = 5000

var benchJoinQuery = `PREFIX ex: <http://ex.org/>
SELECT ?s ?n ?a WHERE { ?s a ex:Person . ?s ex:city "Paris" . ?s ex:name ?n . ?s ex:age ?a }`

var benchStarQuery = `PREFIX ex: <http://ex.org/>
SELECT ?s ?o ?n WHERE { ?s ex:city "Athens" . ?s ex:knows ?o . ?o ex:name ?n }`

var benchFilterQuery = `PREFIX ex: <http://ex.org/>
SELECT ?s ?b WHERE { ?s ex:age ?a . FILTER(?a > 40) BIND(?a + 1 AS ?b) }`

func benchEval(b *testing.B, query string, workers int, seed bool) {
	b.Helper()
	g := equivGraph(benchSubjects)
	if workers == 0 {
		workers = QueryWorkers()
	}
	q, err := Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *Results
		var err error
		if seed {
			res, err = q.EvalSeed(g)
		} else {
			res, err = q.eval(g, workers, ParallelThreshold())
		}
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bindings) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkEngine_BGPJoinSeed(b *testing.B)     { benchEval(b, benchJoinQuery, 1, true) }
func BenchmarkEngine_BGPJoinCompiled(b *testing.B) { benchEval(b, benchJoinQuery, 1, false) }
func BenchmarkEngine_BGPJoinParallel(b *testing.B) { benchEval(b, benchJoinQuery, 0, false) }

func BenchmarkEngine_StarJoinSeed(b *testing.B)     { benchEval(b, benchStarQuery, 1, true) }
func BenchmarkEngine_StarJoinCompiled(b *testing.B) { benchEval(b, benchStarQuery, 1, false) }

func BenchmarkEngine_FilterBindSeed(b *testing.B)     { benchEval(b, benchFilterQuery, 1, true) }
func BenchmarkEngine_FilterBindCompiled(b *testing.B) { benchEval(b, benchFilterQuery, 1, false) }

// TestBGPJoinBytesCeiling is the allocation guard ci.sh names: the join
// benchmark's bytes per evaluation, measured directly. What is left is
// the source's own Match slices (60%) and the result's Binding maps
// (30%); rows are 8-byte handles, and going back to one 56-byte rdf.Term
// per slot would add 0.6 MB and trip the ceiling (the engine stood at
// 3.88 MB before rows were handles, 2.82 MB after).
func TestBGPJoinBytesCeiling(t *testing.T) {
	const ceiling = 3_000_000
	g := equivGraph(benchSubjects)
	q, err := Parse(benchJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		if _, err := q.eval(g, 1, ParallelThreshold()); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Engine_BGPJoinCompiled: %d B per evaluation (ceiling %d)", perOp, ceiling)
	if perOp > ceiling {
		t.Fatalf("Engine_BGPJoinCompiled allocates %d B per evaluation, ceiling is %d", perOp, ceiling)
	}
}
