package segment

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// Hostile-input and error-path tests: everything here drives the
// decoders and the engine through the branches a healthy run never
// takes — corrupt frames, tampered footers, failing syscalls, calls
// after Close. The fuzz targets explore this space randomly; these
// tests pin it deterministically so the coverage gate sees it.

// diverseTriples exercises every term encoding: IRI, plain / typed /
// language-tagged literals, blank nodes, and valid time (including
// rows identical up to their interval, which the run sort must order).
func diverseTriples() []rdf.Triple {
	t0 := time.Unix(1000, 0).UTC()
	t1 := time.Unix(2000, 0).UTC()
	t2 := time.Unix(3000, 0).UTC()
	lang := rdf.NewTriple(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/label"),
		rdf.NewLangLiteral("Blattflächenindex", "de"))
	typed := rdf.NewTriple(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/lai"),
		rdf.NewTypedLiteral("2.5", "http://www.w3.org/2001/XMLSchema#double"))
	blank := rdf.NewTriple(rdf.NewBlank("b1"), rdf.NewIRI("http://ex/p"),
		rdf.NewLiteral("plain"))
	return []rdf.Triple{
		tri("s", "p", "o"),
		lang,
		typed,
		blank,
		litTri("s", "p", "lex"),
		vtTri("s", "p", "o", t0, t1),
		vtTri("s", "p", "o", t0, t2), // same terms+from, later to
		vtTri("s", "p", "o", t1, t2), // same terms, later from
	}
}

// TestWALDiverseTermsRoundTrip: every term kind survives a crash-reopen
// through the WAL codec.
func TestWALDiverseTermsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := diverseTriples()
	mustAdd(t, e, ts...)
	if _, err := e.Delete(ts[0]); err != nil {
		t.Fatal(err)
	}
	abandon(e)

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	want := canonicalSet(ts[1:])
	if got := committedSet(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of diverse terms: got %d triples, want %d", len(got), len(want))
	}
}

// walFrame frames a raw payload with a correct checksum, so the decode
// failure under test is the payload's, not the frame's.
func walFrame(payload []byte) []byte {
	b := appendU32(nil, uint32(len(payload)))
	b = appendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func walPayload(op byte, ts []rdf.Triple) []byte {
	p := []byte{op}
	p = appendU32(p, uint32(len(ts)))
	for _, t := range ts {
		p = appendTriple(p, t)
	}
	return p
}

// TestWALHostilePayloads: CRC-valid frames with undecodable payloads
// end the committed prefix — they never error, never panic, and never
// let a later valid record through.
func TestWALHostilePayloads(t *testing.T) {
	valid := walPayload(opAdd, diverseTriples())
	bad := [][]byte{
		{},                              // empty payload
		{99},                            // invalid op
		walPayload(7, nil),              // invalid op, framed shape
		{opAdd},                         // op without count
		appendU32([]byte{opAdd}, 1<<31), // count over maxTriples
		appendU32([]byte{opAdd}, 1<<20), // huge count, no triples
		append(valid, 0xAA),             // trailing garbage
	}
	// Every strict prefix of a valid payload is undecodable too: this
	// walks each bounds check in the term and triple decoders.
	for i := 1; i < len(valid); i++ {
		bad = append(bad, valid[:i])
	}
	tail := walFrame(walPayload(opAdd, []rdf.Triple{tri("after", "the", "bad")}))
	for i, p := range bad {
		img := append([]byte(walMagic), walFrame(p)...)
		img = append(img, tail...)
		ops, good, err := replayWAL(img)
		if err != nil {
			t.Fatalf("payload %d: replay error %v, want torn-frame stop", i, err)
		}
		if len(ops) != 0 || good != int64(len(walMagic)) {
			t.Fatalf("payload %d: %d ops committed through a corrupt frame (boundary %d)", i, len(ops), good)
		}
	}
	// A frame whose declared length overruns the file is torn, and a
	// zero-length frame is corrupt.
	for _, img := range [][]byte{
		append([]byte(walMagic), appendU32(appendU32(nil, 1<<20), 0)...),
		append([]byte(walMagic), appendU32(appendU32(nil, 0), 0)...),
	} {
		if ops, good, err := replayWAL(img); err != nil || len(ops) != 0 || good != int64(len(walMagic)) {
			t.Fatalf("hostile frame header: ops=%d good=%d err=%v", len(ops), good, err)
		}
	}
}

// TestWALBrokenAfterFailedRepair: when the post-failure truncate itself
// fails, the WAL refuses further appends instead of writing after
// garbage.
func TestWALBrokenAfterFailedRepair(t *testing.T) {
	dir := t.TempDir()
	wrap := func(s Sink) Sink {
		return noTruncate{faults.NewFile(s, faults.Seq(
			faults.Step{Kind: faults.OK},
			faults.Step{Kind: faults.ConnError},
		), nil)}
	}
	e := mustOpen(t, dir, Options{WrapWAL: wrap})
	mustAdd(t, e, tri("ok", "first", "append"))
	if _, err := e.Add(tri("will", "fail", "now")); !errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatalf("second append: %v, want injected write error", err)
	}
	if _, err := e.Add(tri("after", "broken", "wal")); err == nil ||
		!strings.Contains(err.Error(), "broken") {
		t.Fatalf("append on broken WAL: %v, want broken-WAL refusal", err)
	}
	abandon(e)
	// The committed first record is still recoverable.
	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if got, want := committedSet(e2), canonicalSet([]rdf.Triple{tri("ok", "first", "append")}); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery after broken WAL lost the committed record")
	}
}

// noTruncate hides the underlying Truncate and fails it, simulating a
// filesystem that cannot even cut the tail back.
type noTruncate struct{ Sink }

func (noTruncate) Truncate(int64) error { return errors.New("injected truncate failure") }

// TestRunByteFlipSweep: flipping ANY single byte of a run image either
// fails OpenRun or fails the section checksum on first read — it never
// panics and never silently serves corrupt rows whose checksum broke.
func TestRunByteFlipSweep(t *testing.T) {
	img, err := encodeRun(diverseTriples(), []rdf.Triple{tri("dead", "row", "here")})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.seg")
	s, p := rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p")
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRun(path)
		if err != nil {
			continue // footer or magic rejected the flip
		}
		// Footer survived: the flip is in a section; reads must verify.
		_ = r.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple, bool) {})
		_ = r.match(s, rdf.Term{}, rdf.Term{}, func(rdf.Triple, bool) {})
		_ = r.match(rdf.Term{}, p, rdf.Term{}, func(rdf.Triple, bool) {})
		_, _ = r.cardinality(s, rdf.Term{}, rdf.Term{})
		_, _ = r.cardinality(rdf.Term{}, rdf.Term{}, rdf.Term{})
		r.close()
	}
	// Truncation sweep: every prefix must be rejected or decode cleanly.
	for _, mut := range faults.Truncations(img, 3, 64) {
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenRun(path); err == nil {
			_ = r.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple, bool) {})
			r.close()
		}
	}
}

// TestRunGeometryErrors: a syntactically valid, checksummed footer
// whose geometry lies about the file is rejected field by field.
func TestRunGeometryErrors(t *testing.T) {
	img, err := encodeRun(nTriples(6), []rdf.Triple{tri("gone", "p", "o")})
	if err != nil {
		t.Fatal(err)
	}
	foot, err := decodeFooter(img[len(img)-footerSize:])
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		mut  func(f *runFooter)
	}{
		{"terms over cap", func(f *runFooter) { f.nTerms = maxTerms + 1 }},
		{"rows over cap", func(f *runFooter) { f.nRows = maxTriples + 1 }},
		{"tombs over rows", func(f *runFooter) { f.nTombs = f.nRows + 1 }},
		{"index over domain", func(f *runFooter) { f.nS = f.nRows + 1 }},
		{"dict off", func(f *runFooter) { f.dictOff++ }},
		{"dict len", func(f *runFooter) { f.dictLen++ }},
		{"rows off", func(f *runFooter) { f.rowsOff++ }},
		{"pos off", func(f *runFooter) { f.posOff++ }},
		{"osp off", func(f *runFooter) { f.ospOff++ }},
		{"s off", func(f *runFooter) { f.sOff++ }},
		{"p off", func(f *runFooter) { f.pOff++ }},
		{"o off", func(f *runFooter) { f.oOff++ }},
		{"size mismatch", func(f *runFooter) { f.nO-- }},
	}
	dir := t.TempDir()
	for _, m := range mutations {
		f := foot
		m.mut(&f)
		mut := append([]byte(nil), img[:len(img)-footerSize]...)
		mut = append(mut, encodeFooter(f)...)
		path := filepath.Join(dir, "geom.seg")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenRun(path); err == nil {
			r.close()
			t.Errorf("%s: tampered geometry accepted", m.name)
		}
	}
}

// TestEngineDiskTermSets: Len / MemGraph / Dir / Triples on a disk
// engine whose data sits in runs, checked against the in-memory
// graph over the same triples.
func TestEngineDiskTermSets(t *testing.T) {
	ts := append(diverseTriples(), nTriples(9)...)
	g := rdf.NewGraph()
	g.AddAll(ts)

	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	mustAdd(t, e, ts...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Segments() == 0 {
		t.Fatal("no segments; the disk paths are not under test")
	}
	if e.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", e.Dir(), dir)
	}
	if New().Dir() != "" {
		t.Fatal("memory engine reports a directory")
	}
	if n := e.MemGraph().Len(); n != 0 {
		t.Fatalf("memtable has %d triples after flush", n)
	}
	if got, want := e.Len(), g.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := canonicalSet(e.Triples()), canonicalSet(g.Triples()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Triples: %d vs %d", len(got), len(want))
	}
}

// TestEngineReadErrorsNoted: a run corrupted at rest does not panic the
// query path — reads fail their checksum, the error lands in Err() and
// the ReadErrors counter, and the rest of the data keeps serving.
func TestEngineReadErrorsNoted(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	mustAdd(t, e, nTriples(8)...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Corrupt the dictionary of the published run behind the engine's
	// back; sections are lazy, so nothing has been read yet.
	name := filepath.Join(dir, runName(e.segs[0].seq))
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(len(runMagic))+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := e.Err(); err != nil {
		t.Fatalf("Err before any read: %v", err)
	}
	_ = e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})
	if err := e.Err(); err == nil {
		t.Fatal("Match over a corrupt run noted no error")
	}
	_ = e.Cardinality(rdf.NewIRI("http://ex/s0"), rdf.Term{}, rdf.Term{})
	if n := e.Stats().ReadErrors; n < 2 {
		t.Fatalf("ReadErrors = %d, want >= 2 (match + cardinality)", n)
	}
}

// TestOpenRejectsCorruptState: the open path refuses bad manifests, bad
// run files, bad run names, and bad WAL headers — and closes whatever
// it had already opened on the way out.
func TestOpenRejectsCorruptState(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}

	// A path whose parent is a file cannot be MkdirAll'd.
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub"), Options{}); err == nil {
		t.Fatal("Open under a plain file succeeded")
	}

	// seed builds a dir with one committed run and a clean WAL,
	// returning the dir and the committed run's file name.
	seed := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		e := mustOpen(t, dir, Options{})
		mustAdd(t, e, nTriples(5)...)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		name := runName(e.segs[0].seq)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, name
	}

	cases := []struct {
		name string
		mut  func(t *testing.T, dir, run string)
	}{
		{"bad manifest magic", func(t *testing.T, dir, run string) {
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("NOPE\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest path escape", func(t *testing.T, dir, run string) {
			body := manifestMagic + "\nseg-../../etc.seg\n"
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest foreign entry", func(t *testing.T, dir, run string) {
			body := manifestMagic + "\nwal.log\n"
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest lists missing run", func(t *testing.T, dir, run string) {
			body := manifestMagic + "\n" + run + "\n" + runName(99) + "\n"
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"unparsable run name", func(t *testing.T, dir, run string) {
			// Valid run content under a name runSeq cannot parse, listed
			// after a good run so closeAll has something to close.
			data, err := os.ReadFile(filepath.Join(dir, run))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "seg-xx.seg"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			body := manifestMagic + "\n" + run + "\nseg-xx.seg\n"
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad wal magic", func(t *testing.T, dir, run string) {
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("XWAL9junk"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated run footer", func(t *testing.T, dir, run string) {
			path := filepath.Join(dir, run)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, run := seed(t)
			tc.mut(t, dir, run)
			if e, err := Open(dir, Options{}); err == nil {
				e.Close()
				t.Fatal("Open accepted corrupt state")
			}
		})
	}
}

// TestClosedEngineRefusesWrites: every mutating call after Close fails
// cleanly; Close and Flush stay idempotent.
func TestClosedEngineRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	mustAdd(t, e, tri("a", "b", "c"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Add(tri("x", "y", "z")); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if _, err := e.Delete(tri("a", "b", "c")); err == nil {
		t.Fatal("Delete after Close succeeded")
	}
	if err := e.Compact(); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v (must be a no-op)", err)
	}

	m := New()
	if changed, err := m.AddAll(nil); err != nil || changed {
		t.Fatalf("AddAll(nil) = %v, %v", changed, err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("memory Flush: %v", err)
	}
	if err := m.Compact(); err != nil {
		t.Fatalf("memory Compact: %v", err)
	}
}

// TestBackgroundCompactionError: a failing merge (corrupt run) is noted
// on the engine instead of killing the compaction loop.
func TestBackgroundCompactionError(t *testing.T) {
	dir := t.TempDir()
	clock := faults.NewClock(time.Unix(0, 0))
	e := mustOpen(t, dir, Options{
		CompactAt:    2,
		CompactEvery: time.Minute,
		After:        clock.After,
	})
	mustAdd(t, e, nTriples(6)...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, e, tri("second", "run", "x"))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first run at rest so the merge read fails.
	name := filepath.Join(dir, runName(e.segs[0].seq))
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(len(runMagic))+1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	clock.AwaitTimers(1)
	clock.Advance(time.Minute)
	clock.AwaitTimers(2) // first tick fully processed

	if err := e.Err(); err == nil {
		t.Fatal("background compaction over a corrupt run noted no error")
	}
	if e.Stats().Compactions != 0 {
		t.Fatal("a failed compaction was counted as done")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterMetricsLabels: the segment gauges register unlabeled —
// one engine per registry since the per-shard labels went with the
// sharded store — under the bare names README's metric table lists,
// and snapshot the engine's values.
func TestRegisterMetricsLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New()
	mustAdd(t, e, nTriples(3)...)
	RegisterMetrics(reg, e)
	snap := reg.Snapshot()
	for name := range snap.Gauges {
		if strings.Contains(name, "{") {
			t.Errorf("segment gauge %s carries labels", name)
		}
	}
	if v, ok := snap.Gauges["segment_memtable_triples"]; !ok || v != 3 {
		t.Fatalf("segment_memtable_triples = %v (registered %v), want 3", v, ok)
	}
}
