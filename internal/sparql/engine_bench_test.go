package sparql

import (
	"runtime"
	"testing"
)

// BenchmarkEngine_* compares the compiled slot engine against the seed
// map evaluator on the workloads the tentpole targets: multi-pattern
// BGP joins over a 5k-subject graph (25k triples). The acceptance bar
// is >=3x fewer allocs/op and >=2x lower ns/op on the join benchmark.
// BenchmarkEngine_BGPJoinVariants (engine_variants_test.go) runs the
// same join through the layers that wrap the engine.

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
		workers = runtime.GOMAXPROCS(0)
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
			res, err = q.eval(g, workers, parallelThreshold)
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
