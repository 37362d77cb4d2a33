package segment

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// tri builds a small deterministic triple.
func tri(s, p, o string) rdf.Triple {
	return rdf.NewTriple(
		rdf.NewIRI("http://ex/"+s),
		rdf.NewIRI("http://ex/"+p),
		rdf.NewIRI("http://ex/"+o),
	)
}

// litTri builds a triple with a literal object.
func litTri(s, p, lex string) rdf.Triple {
	return rdf.NewTriple(
		rdf.NewIRI("http://ex/"+s),
		rdf.NewIRI("http://ex/"+p),
		rdf.NewLiteral(lex),
	)
}

// vtTri builds a triple carrying valid time.
func vtTri(s, p, o string, from, to time.Time) rdf.Triple {
	t := tri(s, p, o)
	t.ValidFrom, t.ValidTo = from, to
	return t
}

// nTriples generates n distinct triples.
func nTriples(n int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = tri("s"+strconv.Itoa(i%17), "p"+strconv.Itoa(i%5), "o"+strconv.Itoa(i))
	}
	return ts
}

// canonicalSet keys a result set ignoring order.
func canonicalSet(ts []rdf.Triple) map[string]bool {
	set := map[string]bool{}
	for _, t := range ts {
		set[tripleKey(t)] = true
	}
	return set
}

func mustAdd(t testing.TB, e *Engine, ts ...rdf.Triple) {
	t.Helper()
	if _, err := e.AddAll(ts); err != nil {
		t.Fatalf("AddAll: %v", err)
	}
}

func mustOpen(t testing.TB, dir string, opts Options) *Engine {
	t.Helper()
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

// TestMemoryModeMatchesGraph pins the memory-only engine to rdf.Graph
// behavior exactly — order included — because strabon.New() rides on it.
func TestMemoryModeMatchesGraph(t *testing.T) {
	e := New()
	g := rdf.NewGraph()
	ts := nTriples(100)
	ts = append(ts, ts[3], ts[50]) // duplicates
	for _, tr := range ts {
		ce, _ := e.Add(tr)
		cg := g.Add(tr)
		if ce != cg {
			t.Fatalf("Add(%v): engine changed=%v graph=%v", tr, ce, cg)
		}
	}
	if e.Len() != g.Len() {
		t.Fatalf("Len: engine %d graph %d", e.Len(), g.Len())
	}
	pats := []struct{ s, p, o rdf.Term }{
		{rdf.Term{}, rdf.Term{}, rdf.Term{}},
		{rdf.NewIRI("http://ex/s3"), rdf.Term{}, rdf.Term{}},
		{rdf.Term{}, rdf.NewIRI("http://ex/p1"), rdf.Term{}},
		{rdf.Term{}, rdf.Term{}, rdf.NewIRI("http://ex/o42")},
		{rdf.NewIRI("http://ex/s1"), rdf.NewIRI("http://ex/p2"), rdf.Term{}},
		{rdf.NewIRI("http://ex/nope"), rdf.Term{}, rdf.Term{}},
	}
	for _, p := range pats {
		if got, want := e.Match(p.s, p.p, p.o), g.Match(p.s, p.p, p.o); !reflect.DeepEqual(got, want) {
			t.Errorf("Match(%v %v %v): engine and graph disagree (order matters in memory mode)", p.s, p.p, p.o)
		}
		if got, want := e.Cardinality(p.s, p.p, p.o), g.Cardinality(p.s, p.p, p.o); got != want {
			t.Errorf("Cardinality(%v %v %v): engine %d graph %d", p.s, p.p, p.o, got, want)
		}
	}
}

// TestFlushAndReopen round-trips triples through a flush, a close, and a
// cold open.
func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := nTriples(50)
	ts = append(ts, vtTri("v", "p0", "x",
		time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 4, 30, 0, 0, 0, 0, time.UTC)))
	ts = append(ts, litTri("lit", "p0", "Leaf Area Index"))
	mustAdd(t, e, ts...)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if e.Segments() != 1 {
		t.Fatalf("segments = %d, want 1", e.Segments())
	}
	want := canonicalSet(e.Triples())
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	got := canonicalSet(e2.Triples())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened triples differ: got %d want %d", len(got), len(want))
	}
	if e2.Stats().WALReplayed != 0 {
		t.Fatalf("clean close should leave nothing to replay, got %d", e2.Stats().WALReplayed)
	}
	// Valid time survives the run encoding.
	vts := e2.Match(rdf.NewIRI("http://ex/v"), rdf.Term{}, rdf.Term{})
	if len(vts) != 1 || !vts[0].HasValidTime() {
		t.Fatalf("valid-time triple lost: %+v", vts)
	}
	if !vts[0].ValidFrom.Equal(time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("ValidFrom drifted: %v", vts[0].ValidFrom)
	}
}

// TestWALReplayWithoutFlush loses nothing when the engine is abandoned
// without Flush or Close.
func TestWALReplayWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := nTriples(20)
	mustAdd(t, e, ts...)
	// Abandon without Close: the WAL is the only durable copy.
	e.wal.f.Close()

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if got := canonicalSet(e2.Triples()); !reflect.DeepEqual(got, canonicalSet(ts)) {
		t.Fatalf("WAL replay lost triples: got %d want %d", len(got), len(ts))
	}
	if e2.Stats().WALReplayed == 0 {
		t.Fatal("expected WAL replay to be reported")
	}
}

// TestDeleteTombstone checks delete masks flushed data and compaction
// physically drops it.
func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{CompactAt: -1})
	ts := nTriples(10)
	mustAdd(t, e, ts...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(ts[4]); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 9 {
		t.Fatalf("Len after delete = %d, want 9", e.Len())
	}
	if got := e.Match(ts[4].S, ts[4].P, ts[4].O); len(got) != 0 {
		t.Fatalf("deleted triple still matches: %v", got)
	}
	// Flush the tombstone into its own run, then compact: the dead row
	// and the tombstone both disappear.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", e.Segments())
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Segments() != 1 {
		t.Fatalf("segments after compact = %d, want 1", e.Segments())
	}
	st := e.Stats()
	if st.SegmentRows != 9 || st.Tombstones != 0 {
		t.Fatalf("compacted run: rows=%d tombs=%d, want 9/0", st.SegmentRows, st.Tombstones)
	}
	// Re-adding revives.
	if _, err := e.Add(ts[4]); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 10 {
		t.Fatalf("Len after re-add = %d, want 10", e.Len())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoFlushThreshold flushes on FlushEvery and compaction kicks in
// at CompactAt.
func TestAutoFlushThreshold(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{FlushEvery: 10, CompactAt: 3})
	defer e.Close()
	for i := 0; i < 35; i++ {
		if _, err := e.Add(tri("s"+strconv.Itoa(i), "p", "o"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Flushes < 3 {
		t.Fatalf("flushes = %d, want >= 3", st.Flushes)
	}
	if st.Compactions < 1 {
		t.Fatalf("compactions = %d, want >= 1", st.Compactions)
	}
	if e.Len() != 35 {
		t.Fatalf("Len = %d, want 35", e.Len())
	}
}

// TestTombstonesCountTowardFlush: a delete-heavy stream fills the
// memtable with tombstones, and they count toward FlushEvery like live
// triples — otherwise the tombstone graph and the WAL grow without bound
// and a reopen replays all of it.
func TestTombstonesCountTowardFlush(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{FlushEvery: 64, CompactAt: -1})
	defer e.Close()
	for i := 0; i < 704; i++ {
		if _, err := e.Delete(tri("gone"+strconv.Itoa(i), "p", "o")); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Flushes != 11 || st.Segments != 11 {
		t.Fatalf("704 deletes at FlushEvery 64: %d flushes, %d runs; want 11 of each", st.Flushes, st.Segments)
	}
	if st.Tombstones != 704 || st.WALBytes != int64(len(walMagic)) {
		t.Fatalf("after the last flush: %d tombstones, %d WAL bytes; want 704 in runs and an empty WAL", st.Tombstones, st.WALBytes)
	}
}

// TestNewestWins: a triple re-added after deletion, across runs, is
// resolved newest-first.
func TestNewestWins(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{CompactAt: -1})
	defer e.Close()
	x := tri("a", "b", "c")
	mustAdd(t, e, x)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(x); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})); n != 0 {
		t.Fatalf("deleted triple visible across runs: %d", n)
	}
	mustAdd(t, e, x)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})); n != 1 {
		t.Fatalf("re-added triple not visible: %d", n)
	}
}

// TestOrphanCleanup: files outside the manifest are removed on open.
func TestOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	mustAdd(t, e, nTriples(5)...)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "seg-00000099.seg")
	if err := os.WriteFile(orphan, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "seg-00000100.seg.tmp")
	if err := os.WriteFile(tmp, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived open", filepath.Base(p))
		}
	}
	if e2.Len() != 5 {
		t.Fatalf("Len = %d, want 5", e2.Len())
	}
}

// TestCardinalityUpperBound: estimates never undercount actual matches.
func TestCardinalityUpperBound(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{FlushEvery: 16, CompactAt: -1})
	defer e.Close()
	mustAdd(t, e, nTriples(100)...)
	pats := []struct{ s, p, o rdf.Term }{
		{rdf.Term{}, rdf.Term{}, rdf.Term{}},
		{rdf.NewIRI("http://ex/s3"), rdf.Term{}, rdf.Term{}},
		{rdf.Term{}, rdf.NewIRI("http://ex/p1"), rdf.Term{}},
		{rdf.NewIRI("http://ex/s1"), rdf.NewIRI("http://ex/p2"), rdf.Term{}},
	}
	for _, p := range pats {
		est := e.Cardinality(p.s, p.p, p.o)
		got := len(e.Match(p.s, p.p, p.o))
		if est < got {
			t.Errorf("Cardinality(%v %v %v) = %d < actual %d", p.s, p.p, p.o, est, got)
		}
	}
}

// TestStatsAndMetrics: the segment_* gauges render through a registry.
func TestStatsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	defer e.Close()
	mustAdd(t, e, nTriples(10)...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, e, tri("extra", "p", "o"))

	st := e.Stats()
	if st.Segments != 1 || st.SegmentBytes <= 0 || st.MemtableTriples != 1 {
		t.Fatalf("stats off: %+v", st)
	}
	if st.WALRecords != 2 || st.WALFsyncs < 2 {
		t.Fatalf("WAL counters off: %+v", st)
	}
	if st.FlushTime <= 0 || st.CompactTime != 0 {
		t.Fatalf("write-stall timers off after one flush and no compaction: %+v", st)
	}

	reg := telemetry.NewRegistry()
	RegisterMetrics(reg, e)
	snap := reg.Snapshot()
	for _, name := range []string{
		"segment_segments", "segment_bytes", "segment_memtable_triples",
		"segment_wal_records_total", "segment_wal_fsyncs_total",
		"segment_flushes_total", "segment_compactions_total",
		"segment_flush_seconds_total", "segment_compaction_seconds_total",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	if snap.Gauges["segment_segments"] != 1 {
		t.Errorf("segment_segments = %v, want 1", snap.Gauges["segment_segments"])
	}
	if snap.Gauges["segment_memtable_triples"] != 1 {
		t.Errorf("segment_memtable_triples = %v, want 1", snap.Gauges["segment_memtable_triples"])
	}
}

// TestRunFormatDense exercises the run format directly: literals with
// datatypes and language tags, valid time, tombstone rows.
func TestRunFormatDense(t *testing.T) {
	adds := []rdf.Triple{
		tri("a", "p", "b"),
		litTri("a", "label", "vineyard"),
		rdf.NewTriple(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/lang"), rdf.NewLangLiteral("wein", "de")),
		rdf.NewTriple(rdf.NewBlank("b1"), rdf.NewIRI("http://ex/p"), rdf.NewInteger(42)),
		vtTri("t", "p", "o", time.Unix(100, 0).UTC(), time.Unix(200, 0).UTC()),
	}
	tombs := []rdf.Triple{tri("dead", "p", "gone")}
	img, err := encodeRun(adds, tombs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.seg")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.Rows() != 6 || r.Tombstones() != 1 {
		t.Fatalf("rows=%d tombs=%d, want 6/1", r.Rows(), r.Tombstones())
	}
	var live, dead []rdf.Triple
	err = r.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple, tomb bool) {
		if tomb {
			dead = append(dead, tr)
		} else {
			live = append(live, tr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalSet(live), canonicalSet(adds)) {
		t.Fatalf("live rows differ: %d vs %d", len(live), len(adds))
	}
	if len(dead) != 1 || tripleKey(dead[0]) != tripleKey(tombs[0]) {
		t.Fatalf("tombstone rows differ: %v", dead)
	}
	// Bound patterns through each permutation index.
	if n := len(matchRun(t, r, rdf.NewIRI("http://ex/a"), rdf.Term{}, rdf.Term{})); n != 3 {
		t.Errorf("s-bound = %d, want 3", n)
	}
	if n := len(matchRun(t, r, rdf.Term{}, rdf.NewIRI("http://ex/p"), rdf.Term{})); n != 4 {
		t.Errorf("p-bound = %d, want 4 (three live + one tombstone)", n)
	}
	if n := len(matchRun(t, r, rdf.Term{}, rdf.Term{}, rdf.NewInteger(42))); n != 1 {
		t.Errorf("o-bound = %d, want 1", n)
	}
	// Cardinality from index footers without touching rows.
	if card, err := r.cardinality(rdf.NewIRI("http://ex/a"), rdf.Term{}, rdf.Term{}); err != nil || card != 3 {
		t.Errorf("cardinality s-bound = %d (%v), want 3", card, err)
	}
	if card, err := r.cardinality(rdf.Term{}, rdf.Term{}, rdf.Term{}); err != nil || card != 5 {
		t.Errorf("wildcard cardinality = %d (%v), want 5 (rows minus tombstones)", card, err)
	}
}

func matchRun(t *testing.T, r *Run, s, p, o rdf.Term) []rdf.Triple {
	t.Helper()
	var out []rdf.Triple
	if err := r.match(s, p, o, func(tr rdf.Triple, _ bool) { out = append(out, tr) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMemoryModeDeleteNoTombstones: a memory-only engine removes
// triples in place — no tombstone map growing without bound, and
// re-deleting what is already gone reports false like rdf.Graph.
func TestMemoryModeDeleteNoTombstones(t *testing.T) {
	e := New()
	ts := nTriples(50)
	mustAdd(t, e, ts...)
	for _, tt := range ts {
		changed, err := e.Delete(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("Delete(%v) of a present triple reported false", tt)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", e.Len())
	}
	if got := e.Stats().Tombstones; got != 0 {
		t.Fatalf("memory-only engine accumulated %d tombstones", got)
	}
	// Deleting absent triples neither changes anything nor accumulates.
	for _, tt := range ts {
		changed, err := e.Delete(tt)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatal("Delete of an absent triple reported true")
		}
	}
	if got := e.Stats().Tombstones; got != 0 {
		t.Fatalf("absent-triple deletes accumulated %d tombstones", got)
	}
	// The engine is still usable after heavy delete traffic.
	mustAdd(t, e, ts...)
	if e.Len() != len(canonicalSet(ts)) {
		t.Fatalf("Len = %d after re-add, want %d", e.Len(), len(canonicalSet(ts)))
	}
}

// TestCloseConcurrent: Close is documented safe to call more than
// once, including concurrently: the files are closed exactly once (run
// with -race).
func TestCloseConcurrent(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{FlushEvery: 4})
	mustAdd(t, e, nTriples(20)...)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close #%d: %v", i, err)
		}
	}
	// And again, sequentially, after everything is down.
	if err := e.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
}
