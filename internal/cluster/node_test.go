package cluster

import (
	"runtime"
	"testing"

	"applab/internal/rdf"
	"applab/internal/segment"
)

func testTriples(n, base int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.NewTriple(
			rdf.NewIRI(testSubjectIRI(base+i)),
			rdf.NewIRI("http://ex/p0"),
			rdf.NewInteger(int64(base+i)),
		)
	}
	return ts
}

func testSubjectIRI(i int) string {
	return "http://example.org/subject/" + string(rune('a'+i%26)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func mustRecord(t testing.TB, rec segment.LogRecord) []byte {
	t.Helper()
	img, err := segment.EncodeLogRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestNodeApplyOrdering(t *testing.T) {
	n := NewNode("n1")
	img1 := mustRecord(t, segment.LogRecord{Triples: testTriples(3, 0)})
	img2 := mustRecord(t, segment.LogRecord{Triples: testTriples(3, 10)})

	// A gap is refused.
	resp := n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 2, Records: img2})
	if resp.Type != MsgApplyResp || resp.OK || resp.Seq != 0 {
		t.Fatalf("gapped apply: %+v", resp)
	}
	// In-order applies advance the position.
	if resp = n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: img1}); !resp.OK || resp.Seq != 1 {
		t.Fatalf("apply 1: %+v", resp)
	}
	if resp = n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 2, Records: img2}); !resp.OK || resp.Seq != 2 {
		t.Fatalf("apply 2: %+v", resp)
	}
	// Replaying an old sequence is an idempotent ack, not a reapply.
	if resp = n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: img1}); !resp.OK || resp.Seq != 2 {
		t.Fatalf("idempotent apply: %+v", resp)
	}
	match := n.Handle(Message{Type: MsgMatchReq, Shard: 0, Patterns: []rdf.Ref{{}}})
	if match.Type != MsgMatchResp || match.Seq != 2 {
		t.Fatalf("match: %+v", match)
	}
	recs, err := segment.DecodeLogRecords(match.Records)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range recs {
		total += len(r.Triples)
	}
	if total != 6 {
		t.Fatalf("store holds %d triples, want 6", total)
	}
}

func TestNodeDeleteCardAndSeq(t *testing.T) {
	n := NewNode("n1")
	ts := testTriples(4, 0)
	n.Handle(Message{Type: MsgApplyReq, Shard: 1, Seq: 1, Records: mustRecord(t, segment.LogRecord{Triples: ts})})
	n.Handle(Message{Type: MsgApplyReq, Shard: 1, Seq: 2, Records: mustRecord(t, segment.LogRecord{Delete: true, Triples: ts[:2]})})
	card := n.Handle(Message{Type: MsgCardReq, Shard: 1, P: rdf.NewIRI("http://ex/p0")})
	if card.Type != MsgCardResp || card.Card != 2 || card.Seq != 2 {
		t.Fatalf("card: %+v", card)
	}
	seq := n.Handle(Message{Type: MsgSeqReq, Shard: 1})
	if seq.Type != MsgSeqResp || seq.Seq != 2 {
		t.Fatalf("seq: %+v", seq)
	}
	// Shards are independent.
	if s0 := n.Handle(Message{Type: MsgSeqReq, Shard: 0}); s0.Seq != 0 {
		t.Fatalf("shard 0 seq: %+v", s0)
	}
}

func TestNodeSnapshotInstall(t *testing.T) {
	src := NewNode("src")
	src.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: mustRecord(t, segment.LogRecord{Triples: testTriples(5, 0)})})
	snap := src.Handle(Message{Type: MsgSnapReq, Shard: 0})
	if snap.Type != MsgSnapResp || snap.Seq != 1 {
		t.Fatalf("snap: %+v", snap)
	}
	dst := NewNode("dst")
	if resp := dst.Handle(Message{Type: MsgInstallReq, Shard: 0, Seq: snap.Seq, Records: snap.Records}); resp.Type != MsgInstallResp {
		t.Fatalf("install: %+v", resp)
	}
	// The installed replica accepts the next in-order apply.
	if resp := dst.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 2, Records: mustRecord(t, segment.LogRecord{Triples: testTriples(1, 100)})}); !resp.OK {
		t.Fatalf("apply after install: %+v", resp)
	}
	card := dst.Handle(Message{Type: MsgCardReq, Shard: 0, P: rdf.NewIRI("http://ex/p0")})
	if card.Card != 6 {
		t.Fatalf("installed card = %d, want 6", card.Card)
	}
}

func TestNodeResetAndErrors(t *testing.T) {
	n := NewNode("n1")
	n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: mustRecord(t, segment.LogRecord{Triples: testTriples(2, 0)})})
	n.Reset()
	if seq := n.Handle(Message{Type: MsgSeqReq, Shard: 0}); seq.Seq != 0 {
		t.Fatalf("seq after reset: %+v", seq)
	}
	if resp := n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: []byte("garbage!")}); resp.Type != MsgErr {
		t.Fatalf("bad payload: %+v", resp)
	}
	if resp := n.Handle(Message{Type: MsgInstallReq, Shard: 0, Seq: 1, Records: []byte("garbage!")}); resp.Type != MsgErr {
		t.Fatalf("bad install payload: %+v", resp)
	}
	if resp := n.Handle(Message{Type: MsgMatchResp}); resp.Type != MsgErr {
		t.Fatalf("response-typed request: %+v", resp)
	}
	if resp := n.Handle(Message{Type: MsgPingReq}); resp.Type != MsgPingResp {
		t.Fatalf("ping: %+v", resp)
	}
}

// TestNodeMatchAllocations: a node matches a request's patterns into its
// connection's triple buffer and encodes the records into its record
// buffer, so an answer of 1,000 matches allocates as often, and as many
// bytes, as an answer of 10: nothing per matched triple.
func TestNodeMatchAllocations(t *testing.T) {
	n := NewNode("n1")
	ts := testTriples(1000, 0)
	for i := range 10 {
		ts = append(ts, rdf.NewTriple(ts[i].S, rdf.NewIRI("http://ex/p1"), ts[i].O))
	}
	n.Handle(Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: mustRecord(t, segment.LogRecord{Triples: ts})})
	var bufs answerBufs
	cost := func(p string, want int) (allocs, bytes uint64) {
		req := Message{Type: MsgMatchReq, Shard: 0, Patterns: []rdf.Ref{rdf.PatternRef(rdf.Term{}, rdf.NewIRI(p), rdf.Term{})}}
		recs, err := segment.DecodeLogRecords(n.handle(req, &bufs).Records)
		if err != nil || len(recs) != 1 || len(recs[0].Triples) != want {
			t.Fatalf("%s: %d records, err %v; want %d matches", p, len(recs), err, want)
		}
		bufs.reset()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			n.handle(req, &bufs)
			bufs.reset()
		}
		runtime.ReadMemStats(&after)
		// Whole allocations per answer, as testing.AllocsPerRun counts
		// them: the runtime's own stray allocations round away.
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	sa, sb := cost("http://ex/p1", 10)
	la, lb := cost("http://ex/p0", 1000)
	t.Logf("node answer: %d allocs and %d bytes for 10 matches, %d and %d for 1,000", sa, sb, la, lb)
	if la != sa || lb > sb+64 {
		t.Fatalf("a 1,000-match answer costs %d allocs and %d bytes, a 10-match one %d and %d", la, lb, sa, sb)
	}
}
