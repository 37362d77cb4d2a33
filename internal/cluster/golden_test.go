package cluster

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/segment"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/match_answer.golden")

// goldenShard is a fixed shard: literals with and without datatype and
// language, a blank node, and two triples that differ only in valid
// time.
func goldenShard(t *testing.T) *Node {
	t.Helper()
	s1, s2 := rdf.NewIRI("http://ex/s1"), rdf.NewIRI("http://ex/s2")
	p, o := rdf.NewIRI("http://ex/p0"), rdf.NewIRI("http://ex/o")
	timed := rdf.NewTriple(s1, p, o)
	timed.ValidFrom = time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)
	timed.ValidTo = time.Date(2019, 3, 29, 12, 30, 0, 0, time.UTC)
	ts := []rdf.Triple{
		rdf.NewTriple(s1, p, rdf.NewInteger(7)),
		rdf.NewTriple(s1, rdf.NewIRI("http://ex/label"), rdf.NewLangLiteral("Leaf Area Index", "en")),
		rdf.NewTriple(s1, p, o),
		timed,
		rdf.NewTriple(s2, p, rdf.NewBlank("b1")),
		rdf.NewTriple(s2, rdf.NewIRI("http://ex/name"), rdf.NewLiteral("Paris")),
	}
	n := NewNode("golden")
	if resp := n.Handle(Message{Type: MsgApplyReq, Shard: 3, Seq: 1, Records: mustRecord(t, segment.LogRecord{Triples: ts})}); !resp.OK {
		t.Fatalf("apply: %+v", resp)
	}
	return n
}

// TestNodeMatchAnswerGolden: the frames a node answers a match request
// with stay byte-identical to testdata/match_answer.golden — one whole
// answer, then the same request under a 160-byte matchAnswerCap, asked
// again for the rest as the coordinator does — valid time included.
// After a deliberate wire change, rerun with -update.
func TestNodeMatchAnswerGolden(t *testing.T) {
	n := goldenShard(t)
	none := rdf.Term{}
	pats := []rdf.Ref{
		rdf.PatternRef(rdf.NewIRI("http://ex/s1"), none, none),
		rdf.PatternRef(none, rdf.NewIRI("http://ex/p0"), none),
		rdf.PatternRef(rdf.NewIRI("http://ex/s2"), none, none),
		{},
		rdf.PatternRef(rdf.NewIRI("http://ex/none"), none, none),
		rdf.PatternRef(none, rdf.NewIRI("http://ex/p0"), rdf.NewIRI("http://ex/o")),
	}
	var frames []string
	answer := func(pats []rdf.Ref) int {
		resp := n.Handle(Message{Type: MsgMatchReq, Shard: 3, Patterns: pats})
		frame, err := EncodeMessage(resp)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, hex.EncodeToString(frame))
		recs, err := segment.DecodeLogRecords(resp.Records)
		if err != nil || resp.Type != MsgMatchResp {
			t.Fatalf("answer %+v: %v", resp, err)
		}
		return len(recs)
	}
	answer(pats)
	old := matchAnswerCap
	matchAnswerCap = 160
	defer func() { matchAnswerCap = old }()
	for done := 0; done < len(pats); {
		done += answer(pats[done:])
	}
	if len(frames) < 4 {
		t.Fatalf("%d frames: the cap split the answer too little", len(frames))
	}
	got := []byte(strings.Join(frames, "\n") + "\n")
	path := filepath.Join("testdata", "match_answer.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("match answer frames changed:\n%s\nwant\n%s", got, want)
	}
}
