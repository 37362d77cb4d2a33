package segment

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"applab/internal/rdf"
)

// ingestStream is a synthetic load shaped like the end-to-end
// benchmark's set-up: n triples over subjects of five triples each,
// a dozen predicates, objects mixing shared class IRIs, small integers,
// per-subject labels and WKT geometries, and every seventh subject
// carrying a valid time.
func ingestStream(n int) []rdf.Triple {
	ts := make([]rdf.Triple, 0, n)
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; len(ts) < n; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://ex.org/feature/%07d", s))
		pred := func(i int) rdf.Term { return rdf.NewIRI("http://ex.org/p" + strconv.Itoa((s+i)%12)) }
		objs := []rdf.Term{
			rdf.NewIRI("http://ex.org/class/" + strconv.Itoa(s%40)),
			rdf.NewInteger(int64(s % 128)),
			rdf.NewLiteral("feature " + strconv.Itoa(s)),
			rdf.NewTypedLiteral(fmt.Sprintf("POINT(%d.%03d %d.%03d)", s%90, s%997, s%180, s%991), rdf.WKTLiteral),
			rdf.NewIRI(fmt.Sprintf("http://ex.org/feature/%07d", (s*7919)%(n/5+1))),
		}
		for i, o := range objs {
			if len(ts) == n {
				break
			}
			t := rdf.NewTriple(subj, pred(i), o)
			if s%7 == 0 {
				t.ValidFrom = t0.Add(time.Duration(s) * time.Hour)
				t.ValidTo = t.ValidFrom.Add(24 * time.Hour)
			}
			ts = append(ts, t)
		}
	}
	return ts
}

// BenchmarkFlushCompact times the write path alone: about 186k triples
// in 4,096-triple AddAll batches into a fresh engine at FlushEvery 8192
// and CompactAt 4 (the engine defaults), so every iteration makes the
// 23 flushes and 7 synchronous compactions of the benchmark's set-up,
// WAL fsyncs included.
func BenchmarkFlushCompact(b *testing.B) {
	const n, batch = 186250, 4096
	stream := ingestStream(n)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(root, "engine")
		if err != nil {
			b.Fatal(err)
		}
		e, err := Open(dir, Options{FlushEvery: 8192, CompactAt: 4})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j += batch {
			if _, err := e.AddAll(stream[j:min(j+batch, n)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = os.RemoveAll(dir)
		b.StartTimer()
	}
}

// TestEncodeRowsAllocations: encoding a run costs a fixed number of
// allocations whatever its size — the counting passes reuse one count
// array and the image is sized before it is written, so no allocation
// is made per row, per term or per comparison. The collector is off
// while it counts: a cycle started by the large buffers allocates in
// the runtime and would be charged to the encoder.
func TestEncodeRowsAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(n int) float64 {
		stream := ingestStream(n)
		img, err := encodeRun(stream, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := openImage(t, img)
		terms, err := r.ensureDict()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := r.ensureRows()
		if err != nil {
			t.Fatal(err)
		}
		// Hand encodeRows the rows shuffled, as a memtable would.
		rows := make([]row, len(decoded))
		return testing.AllocsPerRun(5, func() {
			for i := range rows {
				rows[i] = decoded[(i*7919)%len(decoded)]
			}
			encodeRows(terms, rows)
		})
	}
	small, large := measure(1000), measure(64000)
	if small != large || small > 8 {
		t.Fatalf("encodeRows allocates %v times for 1k rows and %v for 64k; want the same, at most 8", small, large)
	}
}

// openImage writes a run image to a file and opens it.
func openImage(tb testing.TB, img []byte) *Run {
	tb.Helper()
	path := tb.TempDir() + "/run.seg"
	if err := os.WriteFile(path, img, 0o644); err != nil {
		tb.Fatal(err)
	}
	r, err := OpenRun(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.close() })
	return r
}
