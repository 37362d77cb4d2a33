package cluster

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"

	"applab/internal/rdf"
	"applab/internal/segment"
)

func wireMessages(t testing.TB) []Message {
	t.Helper()
	img, err := segment.EncodeLogRecord(segment.LogRecord{Triples: []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewLiteral("v")),
	}})
	if err != nil {
		t.Fatalf("encode record: %v", err)
	}
	return []Message{
		{Type: MsgMatchReq, Shard: 3, Patterns: []rdf.Ref{
			rdf.PatternRef(rdf.NewIRI("http://ex/s"), rdf.Term{}, rdf.NewLangLiteral("hi", "en")),
			rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p"), rdf.NewTypedLiteral("7", rdf.XSDInteger)),
		}},
		{Type: MsgMatchResp, Seq: 42, Records: img},
		{Type: MsgCardReq, Shard: 0, S: rdf.Term{}, P: rdf.NewIRI("http://ex/p"), O: rdf.Term{}},
		{Type: MsgCardResp, Seq: 7, Card: -1},
		{Type: MsgApplyReq, Shard: 1, Seq: 9, Records: img},
		{Type: MsgApplyResp, Seq: 9, OK: true},
		{Type: MsgApplyResp, Seq: 8, OK: false},
		{Type: MsgSnapReq, Shard: 2},
		{Type: MsgSnapResp, Seq: 5, Records: img},
		{Type: MsgInstallReq, Shard: 2, Seq: 5, Records: img},
		{Type: MsgInstallResp},
		{Type: MsgSeqReq, Shard: 4},
		{Type: MsgSeqResp, Seq: 11},
		{Type: MsgPingReq},
		{Type: MsgPingResp},
		{Type: MsgErr, Msg: "boom"},
	}
}

func TestWireRoundtrip(t *testing.T) {
	for _, m := range wireMessages(t) {
		buf, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %v: %v", m.Type, err)
		}
		got, n, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", m.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("type %v: consumed %d of %d", m.Type, n, len(buf))
		}
		if len(got.Records) == 0 {
			got.Records = nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("type %v roundtrip:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	buf, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestWireStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := wireMessages(t)
	for _, m := range msgs {
		if _, err := buf.Write(mustEncode(t, m)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, want := range msgs {
		got, _, err := readMessage(&buf, nil, &patternBufs{})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.Type != want.Type {
			t.Fatalf("stream order: got %v want %v", got.Type, want.Type)
		}
	}
}

func TestWireDecodeStrict(t *testing.T) {
	valid, err := EncodeMessage(Message{Type: MsgSeqResp, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       valid[:wireHeaderLen-1],
		"bad version": append([]byte{9}, valid[1:]...),
		"bad type":    append([]byte{wireVersion, 0}, valid[2:]...),
		"truncated":   valid[:len(valid)-2],
	}
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	cases["bad crc"] = crcFlip
	// A frame whose body decodes but leaves trailing bytes.
	body := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xaa}
	trailing := []byte{wireVersion, byte(MsgSeqResp)}
	trailing = appendU32(trailing, uint32(len(body)))
	trailing = appendU32(trailing, crc32.ChecksumIEEE(body))
	cases["trailing body"] = append(trailing, body...)
	for name, data := range cases {
		if _, _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
}

// referenceEncodeMessage is the frame encoder appendMessage replaced:
// body built in a buffer of its own, then copied behind a header. It is
// the byte oracle for TestWireFramesUnchanged.
func referenceEncodeMessage(m Message) []byte {
	var body []byte
	switch m.Type {
	case MsgMatchReq:
		body = appendU32(body, m.Shard)
		body = appendU32(body, uint32(len(m.Patterns)))
		for _, p := range m.Patterns {
			s, p, o := p.Terms()
			body = appendTerm(body, s)
			body = appendTerm(body, p)
			body = appendTerm(body, o)
		}
	case MsgCardReq:
		body = appendU32(body, m.Shard)
		body = appendTerm(body, m.S)
		body = appendTerm(body, m.P)
		body = appendTerm(body, m.O)
	case MsgMatchResp, MsgSnapResp:
		body = appendU64(body, m.Seq)
		body = appendU32(body, uint32(len(m.Records)))
		body = append(body, m.Records...)
	case MsgCardResp:
		body = appendU64(body, m.Seq)
		body = appendU64(body, uint64(m.Card))
	case MsgApplyReq, MsgInstallReq:
		body = appendU32(body, m.Shard)
		body = appendU64(body, m.Seq)
		body = appendU32(body, uint32(len(m.Records)))
		body = append(body, m.Records...)
	case MsgApplyResp:
		body = appendU64(body, m.Seq)
		ok := byte(0)
		if m.OK {
			ok = 1
		}
		body = append(body, ok)
	case MsgSnapReq, MsgSeqReq:
		body = appendU32(body, m.Shard)
	case MsgSeqResp:
		body = appendU64(body, m.Seq)
	case MsgErr:
		body = appendStr(body, m.Msg)
	}
	out := []byte{2, byte(m.Type)}
	out = appendU32(out, uint32(len(body)))
	out = appendU32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestWireFramesUnchanged: encoding in place into a reused buffer — and
// after bytes a buffer already holds — writes exactly the frames the
// copying encoder writes, under wire version 2 (a match request carries
// a pattern list).
func TestWireFramesUnchanged(t *testing.T) {
	if wireVersion != 2 {
		t.Fatalf("wire version %d: frames changed", wireVersion)
	}
	buf := bytes.Repeat([]byte{0xa5}, 512) // stale bytes from an earlier call
	prefix := []byte("earlier frame")
	for _, m := range wireMessages(t) {
		want := referenceEncodeMessage(m)
		var err error
		if buf, err = appendMessage(buf[:0], m); err != nil {
			t.Fatalf("type %v: %v", m.Type, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("type %v: reused buffer\n got %x\nwant %x", m.Type, buf, want)
		}
		after, err := appendMessage(append([]byte(nil), prefix...), m)
		if err != nil || !bytes.Equal(after, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("type %v: appended after %d bytes: %x (err %v)", m.Type, len(prefix), after, err)
		}
		if enc, err := EncodeMessage(m); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("type %v: EncodeMessage %x (err %v)", m.Type, enc, err)
		}
	}
	// A refused message leaves the buffer as it was.
	kept, err := appendMessage(append([]byte(nil), prefix...), Message{Type: msgTypeEnd})
	if err == nil || !bytes.Equal(kept, prefix) {
		t.Fatalf("unencodable type: %x, err %v", kept, err)
	}
}

// TestReadMessageHostileLength: a 10-byte header declaring the largest
// legal body, then end of stream, is a truncation error — and costs a
// bounded buffer, not the 64 MiB the header asked for.
func TestReadMessageHostileLength(t *testing.T) {
	hdr := appendU32([]byte{wireVersion, byte(MsgMatchResp)}, maxWireBody)
	hdr = appendU32(hdr, 0)
	for _, tail := range [][]byte{nil, bytes.Repeat([]byte{7}, 100<<10)} {
		in := bytes.NewReader(append(append([]byte(nil), hdr...), tail...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readMessage(in, nil, &patternBufs{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d body bytes of %d: %v, want io.ErrUnexpectedEOF", len(tail), maxWireBody, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%d body bytes of %d: allocated %d bytes, want < 1 MiB", len(tail), maxWireBody, d)
		}
	}
}

// hostilePatternCount is a checksummed match request whose pattern
// count claims four billion patterns over six bytes of patterns.
func hostilePatternCount() []byte {
	body := appendU32(appendU32(nil, 1), 0xffffffff)
	body = append(body, 0, 0, 0, 0, 0, 0)
	frame := appendU32([]byte{wireVersion, byte(MsgMatchReq)}, uint32(len(body)))
	frame = appendU32(frame, crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// TestWirePatternCountBounded: a pattern count larger than the bytes
// present is a truncation error, refused before the list is allocated.
func TestWirePatternCountBounded(t *testing.T) {
	frame := hostilePatternCount()
	var err error
	allocs := testing.AllocsPerRun(10, func() { _, _, err = DecodeMessage(frame) })
	if !errors.Is(err, errWireShort) {
		t.Fatalf("decode of a hostile pattern count: %v, want %v", err, errWireShort)
	}
	if allocs > 0 {
		t.Fatalf("decode of a hostile pattern count allocated %.0f times", allocs)
	}
}

func TestWireBodyCap(t *testing.T) {
	m := Message{Type: MsgMatchResp, Records: make([]byte, maxWireBody)}
	if _, err := EncodeMessage(m); err == nil {
		t.Fatal("encode accepted over-cap body")
	}
}

// FuzzWireDecode hammers the strict frame decode with hostile input.
// The invariants: no panic, no unbounded allocation (caps are enforced
// before allocating), and every frame the decoder accepts re-encodes to
// an identical frame (the codec is canonical).
func FuzzWireDecode(f *testing.F) {
	seedMsgs := []Message{
		{Type: MsgMatchReq, Shard: 1, Patterns: []rdf.Ref{rdf.PatternRef(rdf.NewIRI("http://ex/s"), rdf.Term{}, rdf.Term{})}},
		{Type: MsgMatchReq, Shard: 2, Patterns: []rdf.Ref{{}, rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p"), rdf.Term{}), rdf.PatternRef(rdf.NewBlank("b"), rdf.Term{}, rdf.NewLangLiteral("x", "en"))}},
		{Type: MsgMatchReq, Shard: 0},
		{Type: MsgCardReq, Shard: 1, P: rdf.NewIRI("http://ex/p")},
		{Type: MsgApplyResp, Seq: 5, OK: true},
		{Type: MsgSeqResp, Seq: 1},
		{Type: MsgErr, Msg: "x"},
		{Type: MsgPingReq},
	}
	for _, m := range seedMsgs {
		buf, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Regression seeds: hostile length fields and truncated frames.
	f.Add([]byte{wireVersion, byte(MsgMatchResp), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{wireVersion, byte(MsgErr), 4, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{wireVersion, byte(MsgApplyReq)})
	f.Add(hostilePatternCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", data[:n], re)
		}
	})
}
