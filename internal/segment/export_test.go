package segment

import (
	"encoding/binary"
	"testing"
	"time"

	"applab/internal/rdf"
)

func exportTriples(n, base int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.NewTriple(
			rdf.NewIRI("http://ex/s"+string(rune('a'+(base+i)%26))),
			rdf.NewIRI("http://ex/p"),
			rdf.NewInteger(int64(base+i)),
		)
	}
	return ts
}

func TestLogRecordRoundtrip(t *testing.T) {
	recs := []LogRecord{
		{Triples: exportTriples(5, 0)},
		{Delete: true, Triples: exportTriples(2, 1)},
		{Triples: nil}, // empty batches frame fine
		{Triples: exportTriples(1, 9)},
	}
	img, err := AppendLogRecords(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLogRecords(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		if got[i].Delete != rec.Delete || len(got[i].Triples) != len(rec.Triples) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], rec)
		}
		for j := range rec.Triples {
			if got[i].Triples[j].String() != rec.Triples[j].String() {
				t.Fatalf("record %d triple %d mismatch", i, j)
			}
		}
	}
}

func TestDecodeLogRecordsStrict(t *testing.T) {
	img, err := EncodeLogRecord(LogRecord{Triples: exportTriples(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: WAL replay would stop; the wire decode must refuse.
	if _, err := DecodeLogRecords(img[:len(img)-1]); err == nil {
		t.Fatal("torn frame accepted")
	}
	if _, err := DecodeLogRecords(img[:4]); err == nil {
		t.Fatal("short header accepted")
	}
	// Corruption is refused.
	bad := append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeLogRecords(bad); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	// Empty input is a valid empty batch sequence.
	if recs, err := DecodeLogRecords(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v %v", recs, err)
	}
}

func TestLogRecordChunkGroups(t *testing.T) {
	// Shrink the chunk cap (the wal_test.go idiom) so a modest batch
	// splits into a chunk group; it must come back as ONE record.
	old := walChunkPayload
	walChunkPayload = 256
	t.Cleanup(func() { walChunkPayload = old })
	big := exportTriples(40, 0)
	img, err := EncodeLogRecord(LogRecord{Triples: big})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLogRecords(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Triples) != len(big) {
		t.Fatalf("chunk group decoded as %d records / %d triples", len(got), len(got[0].Triples))
	}
	// Truncating mid-group (dropping the final chunk) must be refused.
	firstFrameLen := 8 + int(binary.BigEndian.Uint32(img[:4]))
	if firstFrameLen >= len(img) {
		t.Fatal("expected a multi-frame chunk group")
	}
	if _, err := DecodeLogRecords(img[:firstFrameLen]); err == nil {
		t.Fatal("unfinished chunk group accepted")
	}
}

// TestDecodeLogRefs: refs read the terms of the triples they were
// encoded from, valid time dropped, record by record; a term repeated
// from the previous triple in the same position is one term, across
// records too; an empty record is nil, no record's slice reaches into
// the next one's, and a delete record is refused.
func TestDecodeLogRefs(t *testing.T) {
	from := time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)
	head := []rdf.Triple{vtTri("s", "p", "o", from, from.Add(time.Hour)), tri("s", "p", "o"), tri("s", "q", "o")}
	img, err := AppendLogRecords(nil, []LogRecord{{Triples: head}, {}, {Triples: []rdf.Triple{tri("t", "q", "o")}}})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := DecodeLogRefs(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 || len(refs[0]) != 3 || refs[1] != nil || len(refs[2]) != 1 {
		t.Fatalf("decoded %d records: %v", len(refs), refs)
	}
	for i, tr := range head {
		if r := refs[0][i]; *r.S != tr.S || *r.P != tr.P || *r.O != tr.O {
			t.Fatalf("ref %d reads %v %v %v, want %v", i, *r.S, *r.P, *r.O, tr)
		}
	}
	a, b, c, d := refs[0][0], refs[0][1], refs[0][2], refs[2][0]
	if a.S != b.S || b.S != c.S || a.P != b.P || a.O != c.O || c.P == b.P || d.P != c.P || d.O != c.O || d.S == c.S {
		t.Fatal("repeated terms were not shared, or distinct ones were")
	}
	if cap(refs[0]) != 3 {
		t.Fatalf("a record's refs have capacity %d for 3 refs", cap(refs[0]))
	}
	del, err := EncodeLogRecord(LogRecord{Delete: true, Triples: head})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLogRefs(append(img, del...)); err == nil {
		t.Fatal("a delete record decoded to refs")
	}
}
