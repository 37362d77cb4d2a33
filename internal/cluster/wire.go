// Package cluster is the one partitioned deployment of the store, a
// replicated multi-node serving layer: consistent-hash placement of
// triples across replica groups, node processes answering shard RPCs
// over a versioned wire protocol, and a coordinator that pushes
// per-shard BGP fragments through the query engine's exchange operator,
// hedging slow replicas and degrading to partial answers when a whole
// replica group is down.
//
// The wire protocol is deliberately tiny: one frame shape, fifteen
// message types, and triple batches carried as the segment engine's
// AWAL1 record framing (segment.AppendLogRecord) so that snapshot
// transfer, log-tail catch-up and disk recovery all share one fuzzed
// codec. A match request carries a list of patterns for one shard and
// its answer one AWAL1 record per pattern, in request order: a join
// step reads each replica group once, however many rows it routes
// there.
//
// Each RPC is encoded once and decoded once. Frames are appended in
// place into buffers each TCP connection keeps for its lifetime (a node
// also matches a request into a per-connection triple buffer and
// encodes the answer's records from it); a buffer grown past its cap is
// dropped after the call, so one snapshot does not pin its size.
// A read goes by reference both ways: a match request's patterns are
// handles (a node decodes them into buffers its connection reuses), and
// the goroutine that asked decodes the answer inside the request's Read,
// straight from the frame, into memory it alone owns — refs for the
// engine (segment.DecodeLogRefs), triples with valid time for others.
package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"applab/internal/rdf"
)

// wireVersion is the protocol version stamped on every frame. A node
// refuses frames from a different version rather than guessing.
// Version 2 made a match request a pattern list.
const wireVersion = 2

// maxWireBody caps a frame body, mirroring the WAL record cap so a
// snapshot record that fits on disk fits on the wire.
const maxWireBody = 1 << 26

// maxWireString caps any decoded string, matching the segment codec.
const maxWireString = 1 << 24

// wireHeaderLen is the fixed frame prefix: version u8, type u8,
// body-length u32, body CRC32 u32.
const wireHeaderLen = 10

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types. Requests are odd concerns of the read path
// (Match), the replication path (Apply/Snap/Install/Seq) and liveness
// (Ping); every request has exactly one success response type, and any
// request may instead be answered with MsgErr. Types 3 and 4 are
// reserved: no message has them, and decode rejects them like any
// unknown type.
const (
	MsgMatchReq MsgType = 1 + iota
	MsgMatchResp
	msgReserved3
	msgReserved4
	MsgApplyReq
	MsgApplyResp
	MsgSnapReq
	MsgSnapResp
	MsgInstallReq
	MsgInstallResp
	MsgSeqReq
	MsgSeqResp
	MsgPingReq
	MsgPingResp
	MsgErr
	msgTypeEnd // sentinel: first invalid type
)

// Message is the decoded form of one wire frame. Which fields are
// meaningful depends on Type; unused fields stay zero.
type Message struct {
	Type MsgType
	// Shard addresses the replica-group-local store on the node.
	Shard uint32
	// Seq is the replication sequence number: the record being applied
	// (ApplyReq/InstallReq), the node's last applied sequence
	// (ApplyResp/SeqResp), or the sequence the payload is current as of
	// (MatchResp/SnapResp) — readers use it to reject answers from
	// replicas that have not caught up.
	Seq uint64
	// OK reports ApplyResp acceptance.
	OK bool
	// Patterns are the MatchReq patterns, all read from Shard: nil
	// handles are wildcards.
	Patterns []rdf.Ref
	// Records holds AWAL1-framed triple batches
	// (segment.AppendLogRecord / DecodeLogRecords). A MatchResp holds one
	// record per answered pattern, in request order; a node stops short
	// of the full list when the next answer would overflow the frame,
	// and the coordinator asks again for the rest.
	Records []byte
	// Msg is the MsgErr error text.
	Msg string
	// Read, on a request, reads the response while Transport.Call still
	// holds its frame, which the response's Records alias; Call returns
	// its error. A caller that keeps Records clones them. Not encoded.
	Read func(resp Message) error
}

var (
	errWireShort   = errors.New("cluster: truncated wire frame")
	errWireCorrupt = errors.New("cluster: wire frame checksum mismatch")
)

// wireCursor is a bounds-checked reader over a frame body.
type wireCursor struct {
	data []byte
	pos  int
	err  error
}

func (c *wireCursor) fail() {
	if c.err == nil {
		c.err = errWireShort
	}
}

func (c *wireCursor) u8() byte {
	if c.err != nil || c.pos+1 > len(c.data) {
		c.fail()
		return 0
	}
	v := c.data[c.pos]
	c.pos++
	return v
}

func (c *wireCursor) u32() uint32 {
	if c.err != nil || c.pos+4 > len(c.data) {
		c.fail()
		return 0
	}
	b := c.data[c.pos:]
	c.pos += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *wireCursor) u64() uint64 {
	lo := c.u32()
	hi := c.u32()
	return uint64(lo) | uint64(hi)<<32
}

// str reads a length-prefixed string. The length is validated against
// the bytes actually present before anything is allocated, so a hostile
// header cannot force a large allocation; bytes equal to like are like.
func (c *wireCursor) str(like string) string {
	n := c.u32()
	if c.err != nil {
		return ""
	}
	if n > maxWireString || c.pos+int(n) > len(c.data) {
		c.fail()
		return ""
	}
	b := c.data[c.pos : c.pos+int(n)]
	c.pos += int(n)
	if string(b) == like {
		return like
	}
	return string(b)
}

// bytes reads a length-prefixed byte payload, aliasing the frame.
func (c *wireCursor) bytes() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if int(n) > maxWireBody || c.pos+int(n) > len(c.data) {
		c.fail()
		return nil
	}
	v := c.data[c.pos : c.pos+int(n) : c.pos+int(n)]
	c.pos += int(n)
	return v
}

// term reads a presence-flagged pattern term, sharing the strings of
// like where the bytes are equal.
func (c *wireCursor) term(like rdf.Term) rdf.Term {
	switch c.u8() {
	case 0:
		return rdf.Term{}
	case 1:
	default:
		c.fail()
		return rdf.Term{}
	}
	kind := c.u8()
	if kind > uint8(rdf.KindBlank) {
		c.fail()
		return rdf.Term{}
	}
	t := rdf.Term{Kind: rdf.TermKind(kind)}
	t.Value = c.str(like.Value)
	t.Datatype = c.str(like.Datatype)
	t.Lang = c.str(like.Lang)
	if t.IsZero() {
		c.fail() // only an absent term is a wildcard: decode→encode stays canonical
	}
	return t
}

// minPatternLen is the smallest encoded pattern: three absent terms.
const minPatternLen = 3

// patternBufs hold decoded patterns: handles into three term slots each.
type patternBufs struct {
	refs  []rdf.Ref
	terms []rdf.Term
}

// reset clears the terms, pinning no strings, and drops grown buffers.
func (b *patternBufs) reset() {
	clear(b.terms)
	b.refs, b.terms = reuse(b.refs, maxConnPatterns), reuse(b.terms, 3*maxConnPatterns)
}

// patterns reads a counted pattern list into b's storage, growing it if
// needed; the count is checked against the bytes left first, so a
// hostile count costs nothing. A term shares the strings of the last
// one in its position: a batch repeats its predicate in every pattern.
func (c *wireCursor) patterns(b *patternBufs) []rdf.Ref {
	n := int(c.u32())
	if c.err != nil || n == 0 {
		return nil
	}
	if uint64(n) > uint64(len(c.data)-c.pos)/minPatternLen {
		c.fail()
		return nil
	}
	if cap(b.refs) < n || cap(b.terms) < 3*n {
		b.refs, b.terms = make([]rdf.Ref, n), make([]rdf.Term, 3*n)
	}
	b.refs, b.terms = b.refs[:n], b.terms[:3*n]
	var last [3]rdf.Term
	for i := range b.refs {
		var h [3]*rdf.Term
		for k := range h {
			if t := c.term(last[k]); !t.IsZero() {
				b.terms[3*i+k], last[k] = t, t
				h[k] = &b.terms[3*i+k]
			}
		}
		b.refs[i] = rdf.Ref{S: h[0], P: h[1], O: h[2]}
	}
	return b.refs
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendTerm(b []byte, t rdf.Term) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1, byte(t.Kind))
	b = appendStr(b, t.Value)
	b = appendStr(b, t.Datatype)
	return appendStr(b, t.Lang)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// EncodeMessage frames a message: version, type, body length, body
// CRC32, body. It returns an error only when the body exceeds the frame
// cap.
func EncodeMessage(m Message) ([]byte, error) {
	out, err := appendMessage(make([]byte, 0, wireHeaderLen+64+len(m.Records)), m)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendMessage appends m's frame to dst: the body is written after a
// reserved header, whose length and CRC are patched once the body is
// complete. On error dst comes back at its original length.
func appendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, wireVersion, byte(m.Type))
	dst = appendU32(dst, 0) // body length, patched below
	dst = appendU32(dst, 0) // body CRC, patched below
	body := len(dst)
	switch m.Type {
	case MsgMatchReq:
		dst = appendU32(dst, m.Shard)
		dst = appendU32(dst, uint32(len(m.Patterns)))
		for _, p := range m.Patterns {
			s, p, o := p.Terms()
			dst = appendTerm(appendTerm(appendTerm(dst, s), p), o)
		}
	case MsgMatchResp, MsgSnapResp:
		dst = appendU64(dst, m.Seq)
		dst = appendU32(dst, uint32(len(m.Records)))
		dst = append(dst, m.Records...)
	case MsgApplyReq, MsgInstallReq:
		dst = appendU32(dst, m.Shard)
		dst = appendU64(dst, m.Seq)
		dst = appendU32(dst, uint32(len(m.Records)))
		dst = append(dst, m.Records...)
	case MsgApplyResp:
		dst = appendU64(dst, m.Seq)
		ok := byte(0)
		if m.OK {
			ok = 1
		}
		dst = append(dst, ok)
	case MsgSnapReq, MsgSeqReq:
		dst = appendU32(dst, m.Shard)
	case MsgSeqResp:
		dst = appendU64(dst, m.Seq)
	case MsgInstallResp, MsgPingReq, MsgPingResp:
	case MsgErr:
		dst = appendStr(dst, m.Msg)
	default:
		return dst[:start], fmt.Errorf("cluster: cannot encode message type %d", m.Type)
	}
	n := len(dst) - body
	if n > maxWireBody {
		return dst[:start], fmt.Errorf("cluster: frame body %d exceeds cap", n)
	}
	putU32(dst[start+2:], uint32(n))
	putU32(dst[start+6:], crc32.ChecksumIEEE(dst[body:]))
	return dst, nil
}

// DecodeMessage decodes one frame from the front of data, returning the
// message and the bytes consumed. The decode is strict — version
// mismatch, unknown type, bad CRC, short body or trailing body bytes
// are all errors — and every allocation is bounded by bytes actually
// present, so it is safe on hostile input (see FuzzWireDecode). Records
// alias data.
func DecodeMessage(data []byte) (Message, int, error) {
	return decodeMessage(data, &patternBufs{})
}

// decodeMessage is DecodeMessage with a match request's patterns
// decoded into pats's storage when it is large enough: the message
// then aliases pats.
func decodeMessage(data []byte, pats *patternBufs) (Message, int, error) {
	if len(data) < wireHeaderLen {
		return Message{}, 0, errWireShort
	}
	if data[0] != wireVersion {
		return Message{}, 0, fmt.Errorf("cluster: wire version %d, want %d", data[0], wireVersion)
	}
	typ := MsgType(data[1])
	if typ == 0 || typ >= msgTypeEnd || typ == msgReserved3 || typ == msgReserved4 {
		return Message{}, 0, fmt.Errorf("cluster: unknown message type %d", typ)
	}
	hc := wireCursor{data: data[2:wireHeaderLen]}
	n := hc.u32()
	sum := hc.u32()
	if n > maxWireBody {
		return Message{}, 0, fmt.Errorf("cluster: frame body length %d exceeds cap", n)
	}
	if wireHeaderLen+int(n) > len(data) {
		return Message{}, 0, errWireShort
	}
	body := data[wireHeaderLen : wireHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return Message{}, 0, errWireCorrupt
	}
	m := Message{Type: typ}
	c := wireCursor{data: body}
	switch typ {
	case MsgMatchReq:
		m.Shard = c.u32()
		m.Patterns = c.patterns(pats)
	case MsgMatchResp, MsgSnapResp:
		m.Seq = c.u64()
		m.Records = c.bytes()
	case MsgApplyReq, MsgInstallReq:
		m.Shard = c.u32()
		m.Seq = c.u64()
		m.Records = c.bytes()
	case MsgApplyResp:
		m.Seq = c.u64()
		switch c.u8() {
		case 0:
		case 1:
			m.OK = true
		default:
			// Reject so decode→encode stays canonical.
			c.fail()
		}
	case MsgSnapReq, MsgSeqReq:
		m.Shard = c.u32()
	case MsgSeqResp:
		m.Seq = c.u64()
	case MsgInstallResp, MsgPingReq, MsgPingResp:
	case MsgErr:
		m.Msg = c.str("")
	}
	if c.err != nil {
		return Message{}, 0, c.err
	}
	if c.pos != len(body) {
		return Message{}, 0, fmt.Errorf("cluster: %d trailing bytes in frame body", len(body)-c.pos)
	}
	return m, wireHeaderLen + int(n), nil
}

// readChunk caps how far a frame buffer grows ahead of the bytes that
// have actually arrived.
const readChunk = 64 << 10

// readMessage reads one frame into buf's storage and decodes it,
// returning the buffer (grown if the frame needed it) for the next
// read. The body is read in chunks that at most double what has
// arrived, so a header declaring a huge body on a stream that then ends
// costs a bounded allocation, not the declared size. The message's
// Records alias the returned buffer, and a match request's patterns are
// decoded into pats's storage when it is large enough.
func readMessage(r io.Reader, buf []byte, pats *patternBufs) (Message, []byte, error) {
	buf = append(buf[:0], make([]byte, wireHeaderLen)...)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Message{}, buf, err
	}
	hc := wireCursor{data: buf[2:wireHeaderLen]}
	n := hc.u32()
	if n > maxWireBody {
		return Message{}, buf, fmt.Errorf("cluster: frame body length %d exceeds cap", n)
	}
	total := wireHeaderLen + int(n)
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(total-len(buf), max(len(buf), readChunk)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), total)])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Message{}, buf, err
		}
	}
	m, _, err := decodeMessage(buf, pats)
	return m, buf, err
}
