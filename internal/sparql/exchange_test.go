package sparql

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// fragmented is an in-process partitioned source: triples placed on
// fragments by a hash of their subject, like the cluster's placement.
type fragmented struct {
	frags       []*rdf.Graph
	reads       atomic.Int64 // FragmentMatch calls
	batches     atomic.Int64 // FragmentMatchBatch calls
	batchedPats atomic.Int64
}

func newFragmented(n int, ts []rdf.Triple) *fragmented {
	f := &fragmented{frags: make([]*rdf.Graph, n)}
	for i := range f.frags {
		f.frags[i] = rdf.NewGraph()
	}
	for _, t := range ts {
		frag, _ := f.Route(t.S, t.P, t.O)
		f.frags[frag].Add(t)
	}
	return f
}

func (f *fragmented) Match(s, p, o rdf.Term) []rdf.Triple {
	var all []rdf.Triple
	for _, g := range f.frags {
		all = append(all, g.Match(s, p, o)...)
	}
	return all
}

func (f *fragmented) Fragments() int { return len(f.frags) }

func (f *fragmented) Route(s, p, o rdf.Term) (int, bool) {
	if s.IsZero() {
		return 0, false
	}
	h := fnv.New32a()
	h.Write([]byte(s.Key()))
	return int(h.Sum32() % uint32(len(f.frags))), true
}

func (f *fragmented) FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error) {
	f.reads.Add(1)
	return f.frags[frag].Match(s, p, o), nil
}

// batching adds the batch capability, failing fragment fail (if >= 0)
// with err.
type batching struct {
	*fragmented
	fail int
	err  error
}

func (b *batching) FragmentMatchBatch(ctx context.Context, frag int, pats []rdf.Ref) ([][]rdf.Ref, error) {
	b.batches.Add(1)
	b.batchedPats.Add(int64(len(pats)))
	if frag == b.fail {
		return nil, b.err
	}
	out := make([][]rdf.Ref, len(pats))
	for i, p := range pats {
		s, p, o := p.Terms()
		out[i], _ = b.frags[frag].AppendRefs(ctx, nil, s, p, o)
	}
	return out, nil
}

func exchangeTriples() []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < 60; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i))
		ts = append(ts,
			rdf.NewTriple(s, rdf.NewIRI("http://ex.org/kind"), rdf.NewLiteral(fmt.Sprintf("k%d", i%4))),
			rdf.NewTriple(s, rdf.NewIRI("http://ex.org/n"), rdf.NewInteger(int64(i))),
			rdf.NewTriple(s, rdf.NewIRI("http://ex.org/next"), rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", (i+1)%60))))
	}
	return ts
}

var exchangeQueries = []string{
	// A fan-out, then two subject-bound steps.
	`SELECT ?s ?n ?t WHERE { ?s <http://ex.org/kind> "k1" . ?s <http://ex.org/n> ?n . ?s <http://ex.org/next> ?t }`,
	// A step whose subject comes from an object, and one whose object
	// is bound from the row.
	`SELECT ?s ?t ?m WHERE { ?s <http://ex.org/next> ?t . ?t <http://ex.org/n> ?m . ?s <http://ex.org/next> ?t }`,
	// Routed and fan-out rows in one step.
	`SELECT ?x ?s ?k WHERE { ?x <http://ex.org/n> ?i OPTIONAL { ?s <http://ex.org/n> ?i FILTER(?i < 3) } ?s <http://ex.org/kind> ?k } ORDER BY ?x ?s`,
	// Every subject twice in one step.
	`SELECT ?s ?p ?k WHERE { ?s ?p ?o . ?s <http://ex.org/kind> ?k FILTER(?o != "k0") }`,
}

// TestBatchedExchangeMatchesPerRow: a partitioned source without the
// batch, read through the FragmentMatch adapter, answers what EvalSeed
// answers on 1, 2, 4 and 8 workers, with one exchange scan per routed row
// and per fan-out. A batching source answers row for row and in the same
// order: each per-row fragment read becomes one batched pattern, and
// FragmentMatch is never called.
func TestBatchedExchangeMatchesPerRow(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	t.Cleanup(func() { SetMetrics(nil) })
	routed := reg.Counter("sparql_exchange_scans_total", "mode", "routed")
	fanout := reg.Counter("sparql_exchange_scans_total", "mode", "fanout")
	scans := []struct{ routed, fanout int64 }{{30, 1}, {120, 1}, {3, 118}, {180, 1}}
	ts := exchangeTriples()
	g := rdf.NewGraph()
	g.AddAll(ts)
	for i, q := range exchangeQueries {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parsed.EvalSeed(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			perRow := newFragmented(3, ts)
			r0, f0 := routed.Value(), fanout.Value()
			rows, err := parsed.eval(perRow, workers, 16)
			if err != nil {
				t.Fatal(err)
			}
			if resultsKey(rows) != resultsKey(want) {
				t.Fatalf("%d workers, per-row exchange diverged from EvalSeed on %s", workers, q)
			}
			if r, f := routed.Value()-r0, fanout.Value()-f0; r != scans[i].routed || f != scans[i].fanout {
				t.Fatalf("%d workers: %d routed and %d fan-out exchange scans on %s, want %d and %d", workers, r, f, q, scans[i].routed, scans[i].fanout)
			}
			batched := &batching{fragmented: newFragmented(3, ts), fail: -1}
			got, err := parsed.eval(batched, workers, 16)
			if err != nil {
				t.Fatal(err)
			}
			if orderedKey(got) != orderedKey(rows) {
				t.Fatalf("%d workers, batched exchange diverged from per-row on %s", workers, q)
			}
			if batched.batches.Load() == 0 {
				t.Fatalf("%d workers: no batch read on %s", workers, q)
			}
			if reads, pats := perRow.reads.Load(), batched.batchedPats.Load(); reads != pats || batched.reads.Load() != 0 {
				t.Fatalf("%d workers: %d per-row reads, but %d patterns in %d batches and %d FragmentMatch calls", workers, reads, pats, batched.batches.Load(), batched.reads.Load())
			}
		}
	}
}

// TestBatchedExchangeErrors: a fragment's failed batch reads as empty
// answers for its rows, unless it is an abort, which ends the query.
func TestBatchedExchangeErrors(t *testing.T) {
	ts := exchangeTriples()
	q, err := Parse(exchangeQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.eval(&batching{fragmented: newFragmented(3, ts), fail: -1}, 1, parallelThreshold)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := q.eval(&batching{fragmented: newFragmented(3, ts), fail: 1, err: errors.New("group down")}, 1, parallelThreshold)
	if err != nil {
		t.Fatalf("a failed batch aborted the query: %v", err)
	}
	if n := len(degraded.Bindings); n == 0 || n >= len(full.Bindings) {
		t.Fatalf("one failed fragment left %d of %d rows", n, len(full.Bindings))
	}
	_, err = q.eval(&batching{fragmented: newFragmented(3, ts), fail: 1, err: context.Canceled}, 1, parallelThreshold)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("an aborted batch: %v, want context.Canceled", err)
	}
}
