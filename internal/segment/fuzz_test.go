package segment

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
)

// Fuzz targets for the two decoders that open hostile files: run
// images (FuzzSegmentOpen) and write-ahead logs (FuzzWALReplay). The
// invariant under fuzz is codec.go's contract: corrupt input must
// produce an error (or, for the WAL, a shorter committed prefix)
// — never a panic, never an allocation proportional to a declared but
// absent payload. Seeds are real encodings plus deterministic
// truncations and bit-flips from the faults injector.

// seedRunImage builds a small real run image for the corpus.
func seedRunImage(tb testing.TB) []byte {
	tb.Helper()
	adds := nTriples(12)
	adds = append(adds, litTri("s", "label", "Leaf Area Index"))
	img, err := encodeRun(adds, []rdf.Triple{tri("dead", "p", "o")})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// seedWALImage builds a small real WAL image for the corpus.
func seedWALImage(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	e := mustOpen(tb, dir, Options{})
	mustAdd(tb, e, nTriples(6)...)
	if _, err := e.Delete(tri("s0", "p0", "o0")); err != nil {
		tb.Fatal(err)
	}
	abandon(e)
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzSegmentOpen(f *testing.F) {
	img := seedRunImage(f)
	f.Add(img)
	for _, v := range faults.Truncations(img, 7, 32) {
		f.Add(v)
	}
	// Hostile header: a footer declaring huge sections over a tiny file.
	hostile := append([]byte(runMagic), make([]byte, footerSize)...)
	f.Add(hostile)
	f.Add([]byte(runMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenRun(path)
		if err != nil {
			return // corrupt input correctly rejected
		}
		defer r.close()
		// Footer validated: every lazy section load must either verify
		// or fail cleanly, and decoded rows must round-trip through the
		// encoder to an identical image (stability).
		var live, tombs []rdf.Triple
		merr := r.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple, tomb bool) {
			if tomb {
				tombs = append(tombs, tr)
			} else {
				live = append(live, tr)
			}
		})
		if merr != nil {
			return // CRC or structural check caught deeper corruption
		}
		if _, err := r.cardinality(rdf.Term{}, rdf.Term{}, rdf.Term{}); err != nil {
			t.Fatalf("cardinality failed after successful full match: %v", err)
		}
		img2, err := encodeRun(live, tombs)
		if err != nil {
			t.Fatalf("re-encode of decoded run failed: %v", err)
		}
		path2 := filepath.Join(t.TempDir(), "rt.seg")
		if err := os.WriteFile(path2, img2, 0o644); err != nil {
			t.Skip()
		}
		r2, err := OpenRun(path2)
		if err != nil {
			t.Fatalf("round-tripped run does not open: %v", err)
		}
		defer r2.close()
		n := 0
		if err := r2.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple, bool) { n++ }); err != nil {
			t.Fatalf("round-tripped run does not match: %v", err)
		}
		if n != len(live)+len(tombs) {
			t.Fatalf("round trip changed row count: %d vs %d", n, len(live)+len(tombs))
		}
	})
}

// walSeeds is FuzzWALReplay's seed corpus: a real WAL image, its
// truncations and bit-flips, and hostile headers.
func walSeeds(tb testing.TB) [][]byte {
	img := seedWALImage(tb)
	seeds := append([][]byte{img}, faults.Truncations(img, 11, 32)...)
	// Hostile: a frame declaring a huge payload on a short file must
	// not allocate gigabytes.
	huge := append([]byte(walMagic), 0x3f, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	return append(seeds, huge, []byte(walMagic), []byte{})
}

func FuzzWALReplay(f *testing.F) {
	for _, seed := range walSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, good, err := replayWAL(data)
		if err != nil {
			return // not a WAL at all (bad magic / short header)
		}
		if good < int64(len(walMagic)) || good > int64(len(data)) {
			t.Fatalf("committed boundary %d outside [header, len=%d]", good, len(data))
		}
		// Replay of the committed prefix must be deterministic: cutting
		// the file at the boundary reproduces the exact same ops.
		ops2, good2, err := replayWAL(data[:good])
		if err != nil {
			t.Fatalf("replay of committed prefix failed: %v", err)
		}
		if good2 != good || len(ops2) != len(ops) {
			t.Fatalf("replay not stable: %d/%d ops, %d/%d boundary", len(ops), len(ops2), good, good2)
		}
		for _, op := range ops {
			if op.op != opAdd && op.op != opDelete {
				t.Fatalf("invalid op %d leaked through replay", op.op)
			}
		}
		// The real open path (with tail repair) must agree with the pure
		// decoder and leave a reopenable log behind.
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		w, ops3, discarded, err := openWAL(path, nil)
		if err != nil {
			return // header rejected
		}
		defer w.close()
		if len(ops3) != len(ops) {
			t.Fatalf("openWAL replayed %d ops, replayWAL %d", len(ops3), len(ops))
		}
		if discarded != int64(len(data))-good {
			t.Fatalf("discarded %d, want %d", discarded, int64(len(data))-good)
		}
		if err := w.append(opAdd, []rdf.Triple{tri("post", "fuzz", "append")}); err != nil {
			t.Fatalf("append after repair failed: %v", err)
		}
	})
}

// FuzzDecodeLogRefs holds the ref decoder to DecodeLogRecords, the
// decoder it shares its frame loop with: on any input DecodeLogRefs
// accepts exactly when DecodeLogRecords decodes the input into add
// records only, and then yields the same S/P/O terms in the same
// order, record by record.
func FuzzDecodeLogRefs(f *testing.F) {
	// FuzzWALReplay's corpus, its checked-in entries included, and the
	// same images as bare frames (the wire carries no magic).
	for _, seed := range walSeeds(f) {
		f.Add(seed)
		if len(seed) > len(walMagic) {
			f.Add(seed[len(walMagic):])
		}
	}
	entries, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWALReplay", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, _ := strings.Cut(string(data), "[]byte(")
		if seed, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(arg), ")"))); err == nil {
			f.Add([]byte(seed))
		}
	}
	encode := func(rec LogRecord) []byte {
		img, err := EncodeLogRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		return img
	}
	from := time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)
	f.Add(encode(LogRecord{Triples: []rdf.Triple{vtTri("s", "p", "o", from, from.Add(time.Hour)), tri("s", "p", "o")}}))
	f.Add(encode(LogRecord{Delete: true, Triples: nTriples(3)}))
	old := walChunkPayload
	walChunkPayload = 128
	f.Add(encode(LogRecord{Triples: nTriples(12)}))
	walChunkPayload = old

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, recErr := DecodeLogRecords(data)
		adds := recErr == nil
		for _, rec := range recs {
			adds = adds && !rec.Delete
		}
		refs, err := DecodeLogRefs(data)
		if (err == nil) != adds {
			t.Fatalf("DecodeLogRefs error %v, but DecodeLogRecords error %v over %d records", err, recErr, len(recs))
		}
		if err != nil {
			return
		}
		if len(refs) != len(recs) {
			t.Fatalf("%d ref records, %d triple records", len(refs), len(recs))
		}
		for i, rec := range recs {
			if len(refs[i]) != len(rec.Triples) {
				t.Fatalf("record %d: %d refs, %d triples", i, len(refs[i]), len(rec.Triples))
			}
			for j, tr := range rec.Triples {
				if r := refs[i][j]; *r.S != tr.S || *r.P != tr.P || *r.O != tr.O {
					t.Fatalf("record %d, triple %d: ref reads %v %v %v, triple is %v", i, j, *r.S, *r.P, *r.O, tr)
				}
			}
		}
	})
}
