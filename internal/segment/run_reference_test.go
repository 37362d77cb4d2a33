package segment

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"applab/internal/rdf"
)

// The byte oracle for the run encoder: the original comparison-sort
// writer, which keys its dictionary on Key() strings and orders the
// rows and both permutations with sort.Slice over rowLess.
// encodeRun and encodeRows must produce exactly these bytes.

// encodeRunReference serializes adds (live triples) and tombs
// (tombstones) into a complete run image.
func encodeRunReference(adds, tombs []rdf.Triple) ([]byte, error) {
	n := len(adds) + len(tombs)
	if n > maxTriples {
		return nil, fmt.Errorf("segment: run of %d rows exceeds the %d cap", n, maxTriples)
	}
	// Dictionary: every distinct term, sorted by key.
	termSet := map[string]rdf.Term{}
	collect := func(ts []rdf.Triple) {
		for _, t := range ts {
			termSet[t.S.Key()] = t.S
			termSet[t.P.Key()] = t.P
			termSet[t.O.Key()] = t.O
		}
	}
	collect(adds)
	collect(tombs)
	keys := make([]string, 0, len(termSet))
	for k := range termSet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	id := make(map[string]uint32, len(keys))
	for i, k := range keys {
		id[k] = uint32(i)
	}

	terms := make([]rdf.Term, len(keys))
	for i, k := range keys {
		terms[i] = termSet[k]
	}
	rows := make([]row, 0, n)
	addRows := func(ts []rdf.Triple, extra uint8) {
		for _, t := range ts {
			r := row{s: id[t.S.Key()], p: id[t.P.Key()], o: id[t.O.Key()], flags: extra}
			if t.HasValidTime() {
				r.flags |= rowHasVT
				r.vf = t.ValidFrom.UnixNano()
				r.vt = t.ValidTo.UnixNano()
			}
			rows = append(rows, r)
		}
	}
	addRows(adds, 0)
	addRows(tombs, rowTombstone)
	return encodeRowsReference(terms, rows), nil
}

// encodeRowsReference serializes dictionary-encoded rows (in any order)
// over a strictly key-sorted dictionary into a complete run image. It
// sorts rows in place.
func encodeRowsReference(terms []rdf.Term, rows []row) []byte {
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j], bySPO) })
	nTombs := 0
	for _, r := range rows {
		if r.flags&rowTombstone != 0 {
			nTombs++
		}
	}

	perm := func(less func(a, b row) bool) []uint32 {
		p := make([]uint32, len(rows))
		for i := range p {
			p[i] = uint32(i)
		}
		sort.Slice(p, func(i, j int) bool { return less(rows[p[i]], rows[p[j]]) })
		return p
	}
	posPerm := perm(func(a, b row) bool { return rowLess(a, b, byPOS) })
	ospPerm := perm(func(a, b row) bool { return rowLess(a, b, byOSP) })

	index := func(termAt func(row) uint32, order []uint32) []idxEntry {
		var idx []idxEntry
		for i := 0; i < len(order); {
			t := termAt(rows[order[i]])
			j := i
			for j < len(order) && termAt(rows[order[j]]) == t {
				j++
			}
			idx = append(idx, idxEntry{term: t, start: uint32(i), count: uint32(j - i)})
			i = j
		}
		return idx
	}
	rowOrder := make([]uint32, len(rows))
	for i := range rowOrder {
		rowOrder[i] = uint32(i)
	}
	sIdx := index(func(r row) uint32 { return r.s }, rowOrder)
	pIdx := index(func(r row) uint32 { return r.p }, posPerm)
	oIdx := index(func(r row) uint32 { return r.o }, ospPerm)

	// Serialize the sections.
	dict := make([]byte, 0, 32*len(terms))
	for _, t := range terms {
		dict = appendTerm(dict, t)
	}
	rowsBuf := make([]byte, 0, rowSize*len(rows))
	for _, r := range rows {
		rowsBuf = appendU32(rowsBuf, r.s)
		rowsBuf = appendU32(rowsBuf, r.p)
		rowsBuf = appendU32(rowsBuf, r.o)
		rowsBuf = appendI64(rowsBuf, r.vf)
		rowsBuf = appendI64(rowsBuf, r.vt)
		rowsBuf = append(rowsBuf, r.flags)
	}
	permBuf := func(p []uint32) []byte {
		b := make([]byte, 0, 4*len(p))
		for _, v := range p {
			b = appendU32(b, v)
		}
		return b
	}
	posBuf, ospBuf := permBuf(posPerm), permBuf(ospPerm)
	idxBuf := func(idx []idxEntry) []byte {
		b := make([]byte, 0, idxEntrySize*len(idx))
		for _, e := range idx {
			b = appendU32(b, e.term)
			b = appendU32(b, e.start)
			b = appendU32(b, e.count)
		}
		return b
	}
	sBuf, pBuf, oBuf := idxBuf(sIdx), idxBuf(pIdx), idxBuf(oIdx)

	img := make([]byte, 0, len(runMagic)+len(dict)+len(rowsBuf)+len(posBuf)+len(ospBuf)+len(sBuf)+len(pBuf)+len(oBuf)+footerSize)
	img = append(img, runMagic...)
	foot := runFooter{nTerms: uint32(len(terms)), nRows: uint32(len(rows)), nTombs: uint32(nTombs),
		nS: uint32(len(sIdx)), nP: uint32(len(pIdx)), nO: uint32(len(oIdx))}
	foot.dictOff, foot.dictLen, foot.dictCRC = uint64(len(img)), uint64(len(dict)), crc32.ChecksumIEEE(dict)
	img = append(img, dict...)
	foot.rowsOff, foot.rowsCRC = uint64(len(img)), crc32.ChecksumIEEE(rowsBuf)
	img = append(img, rowsBuf...)
	foot.posOff, foot.posCRC = uint64(len(img)), crc32.ChecksumIEEE(posBuf)
	img = append(img, posBuf...)
	foot.ospOff, foot.ospCRC = uint64(len(img)), crc32.ChecksumIEEE(ospBuf)
	img = append(img, ospBuf...)
	foot.sOff, foot.sCRC = uint64(len(img)), crc32.ChecksumIEEE(sBuf)
	img = append(img, sBuf...)
	foot.pOff, foot.pCRC = uint64(len(img)), crc32.ChecksumIEEE(pBuf)
	img = append(img, pBuf...)
	foot.oOff, foot.oCRC = uint64(len(img)), crc32.ChecksumIEEE(oBuf)
	img = append(img, oBuf...)
	img = append(img, encodeFooter(foot)...)
	return img
}

type rowOrderKind int

const (
	bySPO rowOrderKind = iota
	byPOS
	byOSP
)

// key returns the row's term ids in the significance order of ord.
func (r *row) key(ord rowOrderKind) [3]uint32 {
	switch ord {
	case bySPO:
		return [3]uint32{r.s, r.p, r.o}
	case byPOS:
		return [3]uint32{r.p, r.o, r.s}
	default:
		return [3]uint32{r.o, r.s, r.p}
	}
}

func rowLess(a, b row, ord rowOrderKind) bool {
	ka, kb := a.key(ord), b.key(ord)
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	if a.vf != b.vf {
		return a.vf < b.vf
	}
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.flags < b.flags
}

// checkImage fails the test unless got is byte-for-byte want.
func checkImage(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	t.Fatalf("%s: image of %d bytes differs from the reference's %d at byte %d", what, len(got), len(want), at)
}

// checkEncodeRun encodes adds and tombs with encodeRun and with the
// reference, and then hands encodeRows the reference's own rows,
// shuffled, as compaction hands it rows: every image must be the
// reference's.
func checkEncodeRun(t *testing.T, what string, r *rand.Rand, adds, tombs []rdf.Triple) {
	t.Helper()
	got, err := encodeRun(adds, tombs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeRunReference(adds, tombs)
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, what, got, want)
	run := openImage(t, want)
	terms, err := run.ensureDict()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := run.ensureRows()
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.Clone(decoded)
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	checkImage(t, what+" (encodeRows, shuffled)", encodeRows(terms, rows), want)
}

// TestEncodeRowsMatchesReference: the counting-pass encoder writes the
// reference's bytes for the edge shapes — no rows, one row, a
// dictionary of one term, rows of one (s,p,o) told apart only by valid
// time, and a tombstone without valid time beside a live triple valid
// exactly at the epoch (rows that tie on time and differ in flags), two
// spellings of one term key — and for seeded random mixes of live and tombstone rows, shuffled.
func TestEncodeRowsMatchesReference(t *testing.T) {
	at := func(sec int64) time.Time { return time.Unix(sec, 0).UTC() }
	during := func(tr rdf.Triple, from, to time.Time) rdf.Triple {
		tr.ValidFrom, tr.ValidTo = from, to
		return tr
	}
	x := rdf.NewIRI("http://ex/x")
	xxx := rdf.NewTriple(x, x, x)
	spo := tri("s", "p", "o")
	cases := []struct {
		name        string
		adds, tombs []rdf.Triple
	}{
		{"no rows", nil, nil},
		{"one row", []rdf.Triple{spo}, nil},
		{"one tombstone", nil, []rdf.Triple{spo}},
		{"single-term dictionary", []rdf.Triple{during(xxx, at(5), at(9)), xxx, during(xxx, at(0), at(0))}, []rdf.Triple{during(xxx, at(5), at(6))}},
		{"valid times of one triple", []rdf.Triple{during(spo, at(300), at(400)), spo, during(spo, at(0), at(0)),
			during(spo, at(-5), at(9)), during(spo, at(0), at(1)), during(spo, at(300), at(301))}, nil},
		{"epoch corner", []rdf.Triple{during(spo, at(0), at(0))}, []rdf.Triple{spo}},
		{"epoch corner, reversed", []rdf.Triple{spo}, []rdf.Triple{during(spo, at(0), at(0))}},
		// Two spellings of one Key(): an IRI carrying a datatype is
		// the same dictionary entry as the bare IRI.
		{"one key, two spellings", []rdf.Triple{rdf.NewTriple(x, x, rdf.Term{Kind: rdf.KindIRI, Value: x.Value, Datatype: "junk"}), spo}, []rdf.Triple{xxx}},
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range cases {
		checkEncodeRun(t, c.name, r, c.adds, c.tombs)
	}

	u := newUniverse()
	u.times = append(u.times, [2]time.Time{at(0), at(0)})
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Distinct triples on each side, as a memtable holds them; the
		// same triple may be both live and a tombstone.
		var adds, tombs []rdf.Triple
		seen := map[string]bool{}
		for n := r.Intn(120); n > 0; n-- {
			tr, tomb := u.triple(r), r.Intn(4) == 0
			if k := fmt.Sprint(tomb, tripleKey(tr)); !seen[k] {
				seen[k] = true
				if tomb {
					tombs = append(tombs, tr)
				} else {
					adds = append(adds, tr)
				}
			}
		}
		checkEncodeRun(t, fmt.Sprintf("seed %d", seed), r, adds, tombs)
	}
}

// TestRunFilesMatchReference: through a seeded add / delete / flush /
// compact stream, every run file on disk, after every step, is the
// reference's encoding of its own content, and the run a final
// compaction leaves is the reference's encoding of the live triples.
func TestRunFilesMatchReference(t *testing.T) {
	u := newUniverse()
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		e := mustOpen(t, dir, Options{FlushEvery: 4 + int(seed)%5, CompactAt: 3})
		live := newModel()
		var recent []rdf.Triple
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, what, err)
			}
			checkRunFiles(t, dir, r)
		}
		for i := 0; i < 60; i++ {
			switch op := r.Intn(10); {
			case op < 6:
				batch := make([]rdf.Triple, 1+r.Intn(4))
				for j := range batch {
					batch[j] = u.triple(r)
					live.add(batch[j])
				}
				recent = append(recent, batch...)
				_, err := e.AddAll(batch)
				step("add", err)
			case op < 8:
				tr := u.triple(r)
				if len(recent) > 0 && r.Intn(2) == 0 {
					tr = recent[r.Intn(len(recent))]
				}
				live.delete(tr)
				_, err := e.Delete(tr)
				step("delete", err)
			case op < 9:
				step("flush", e.Flush())
			default:
				step("compact", e.Compact())
			}
		}
		// Two more flushed runs, so the compaction has runs to fold.
		for _, s := range []string{"last1", "last2"} {
			tr := tri(s, "p", "o")
			live.add(tr)
			if _, err := e.Add(tr); err != nil {
				t.Fatal(err)
			}
			step("flush", e.Flush())
		}
		step("compact", e.Compact())
		files, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		if err != nil || len(files) != 1 {
			t.Fatalf("seed %d: %d run files after a full compaction (%v)", seed, len(files), err)
		}
		got, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		var adds []rdf.Triple
		for _, tr := range live.live {
			adds = append(adds, tr)
		}
		want, err := encodeRunReference(adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, fmt.Sprintf("seed %d: compacted run", seed), got, want)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRunFiles re-encodes every run file in dir from its own
// dictionary and rows, shuffled, with the reference encoder: the file
// must be exactly those bytes.
func checkRunFiles(t *testing.T, dir string, r *rand.Rand) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		run := openImage(t, img)
		terms, err := run.ensureDict()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := run.ensureRows()
		if err != nil {
			t.Fatal(err)
		}
		rows := slices.Clone(decoded)
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		checkImage(t, filepath.Base(path), img, encodeRowsReference(terms, rows))
	}
}
