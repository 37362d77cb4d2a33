package sparql_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// Engine_BGPJoin served plain and through each layer that wraps the
// engine on a serving path and must cost it next to nothing: a live
// metrics registry, a query budget generous enough never to trip,
// spatial-join detection switched off, the memory-mode store instead of
// the bare graph, and a result cache that bypasses an anonymous source.
// BenchmarkEngine_BGPJoinVariants measures them; TestBGPJoinBytesCeiling
// is the deterministic guard.

type evalFunc func() (*sparql.Results, error)

type joinVariant struct {
	name string
	// setup installs the variant for the rest of tb and returns one
	// single-worker evaluation of q.
	setup func(tb testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc
}

func plainEval(q *sparql.Query, src sparql.Source) evalFunc {
	return func() (*sparql.Results, error) { return q.EvalOneWorker(context.Background(), src) }
}

// bgpJoinVariants lists plain first: the others are measured against it.
func bgpJoinVariants() []joinVariant {
	return []joinVariant{
		{"plain", func(_ testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			return plainEval(q, g)
		}},
		{"instrumented", func(tb testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			sparql.SetMetrics(telemetry.NewRegistry())
			tb.Cleanup(func() { sparql.SetMetrics(nil) })
			return plainEval(q, g)
		}},
		{"budgeted", func(_ testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			limits := admission.Limits{MaxIntermediate: 1 << 40, MaxRows: 1 << 40}
			return func() (*sparql.Results, error) {
				ctx := admission.WithBudget(context.Background(), admission.NewBudget(limits, nil))
				return q.EvalOneWorker(ctx, g)
			}
		}},
		{"spatial-off", func(tb testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			if err := sparql.SetSpatialJoin(sparql.SpatialJoinOff); err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = sparql.SetSpatialJoin("") })
			return plainEval(q, g)
		}},
		{"memstore", func(tb testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			st := strabon.New()
			tb.Cleanup(func() { _ = st.Close() })
			st.AddAll(g.Triples())
			return plainEval(q, st)
		}},
		{"cache-bypass", func(_ testing.TB, q *sparql.Query, g *rdf.Graph) evalFunc {
			cache := rescache.New(64, 0)
			eval := plainEval(q, g)
			return func() (*sparql.Results, error) {
				if _, _, st := cache.Lookup(q, g); st != rescache.Bypass {
					return nil, fmt.Errorf("cache status %v, want Bypass", st)
				}
				return eval()
			}
		}},
	}
}

func mustEval(tb testing.TB, eval evalFunc) {
	res, err := eval()
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		tb.Fatal("empty result")
	}
}

func joinQuery(tb testing.TB) *sparql.Query {
	q, err := sparql.Parse(sparql.BenchJoinQuery)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func BenchmarkEngine_BGPJoinVariants(b *testing.B) {
	g := sparql.EquivGraph(sparql.BenchSubjects)
	q := joinQuery(b)
	for _, v := range bgpJoinVariants() {
		b.Run(v.name, func(b *testing.B) {
			eval := v.setup(b, q, g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustEval(b, eval)
			}
		})
	}
}

// perEval is eval's heap bytes and allocations per call, averaged over
// a few calls after a warm-up.
func perEval(t *testing.T, eval evalFunc) (bytes, allocs uint64) {
	t.Helper()
	mustEval(t, eval)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mustEval(t, eval)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestBGPJoinBytesCeiling is the allocation guard ci.sh names. What is
// left of the plain join's bytes is the source's own Match slices (60%)
// and the result's Binding maps (30%); rows are 8-byte handles, and
// going back to one 56-byte rdf.Term per slot would add 0.6 MB and trip
// the ceiling (the engine stood at 3.88 MB before rows were handles,
// 2.82 MB after). No variant may cost the join more than a few
// per-query allocations over plain: with 1,250 result rows, anything
// per row blows the slack.
func TestBGPJoinBytesCeiling(t *testing.T) {
	const (
		ceiling     = 3_000_000
		slackBytes  = 8 << 10
		slackAllocs = 64
	)
	g := sparql.EquivGraph(sparql.BenchSubjects)
	q := joinQuery(t)
	variants := bgpJoinVariants()
	plainBytes, plainAllocs := perEval(t, variants[0].setup(t, q, g))
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			bytes, allocs := plainBytes, plainAllocs
			if v.name != "plain" {
				bytes, allocs = perEval(t, v.setup(t, q, g))
			}
			t.Logf("%d B, %d allocs per evaluation (plain %d B, %d allocs)", bytes, allocs, plainBytes, plainAllocs)
			if bytes > ceiling {
				t.Fatalf("allocates %d B per evaluation, ceiling is %d", bytes, ceiling)
			}
			if bytes > plainBytes+slackBytes || allocs > plainAllocs+slackAllocs {
				t.Fatalf("costs +%d B, +%d allocs over plain; slack is %d B, %d allocs",
					int64(bytes)-int64(plainBytes), int64(allocs)-int64(plainAllocs), slackBytes, slackAllocs)
			}
		})
	}
}
