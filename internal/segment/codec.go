package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"applab/internal/rdf"
)

// Shared binary primitives for the WAL and run formats. Everything is
// big-endian, strings are u32-length-prefixed, and every decode is
// bounds-checked against the buffer it reads from: the formats are
// opened on files that crashed mid-write or were corrupted at rest, so
// a decoder must fail with an error — never panic, never allocate
// proportionally to a declared-but-absent payload.
const (
	// maxStringLen caps a single encoded string (term value, datatype,
	// language tag).
	maxStringLen = 1 << 24
	// maxTerms caps a run's term dictionary.
	maxTerms = 1 << 26
	// maxTriples caps a run's row count and a WAL record's batch size.
	maxTriples = 1 << 30
)

var errCorrupt = errors.New("segment: corrupt encoding")

// cursor is a bounds-checked reader over an in-memory buffer.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) u8() (byte, error) {
	if c.remaining() < 1 {
		return 0, errCorrupt
	}
	v := c.data[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, errCorrupt
	}
	v := binary.BigEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, errCorrupt
	}
	v := binary.BigEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) i64() (int64, error) {
	v, err := c.u64()
	return int64(v), err
}

// str reads a u32-length-prefixed string. The length is validated
// against both the global cap and the bytes actually present, so a
// hostile header cannot force a large allocation. When the bytes equal
// like, like itself is returned and nothing is allocated: consecutive
// triples of a batch repeat their subjects, predicates and datatypes.
func (c *cursor) str(like string) (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || int(n) > c.remaining() {
		return "", errCorrupt
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	if string(b) == like {
		return like, nil
	}
	return string(b), nil
}

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func putU32(b []byte, v uint32)           { binary.BigEndian.PutUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendTerm encodes a term structurally: kind byte, value, and for
// literals the datatype and language tag. Unlike the store-image
// format there is no interning — WAL records are self-contained so a
// torn tail never severs a reference another record depends on.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = appendString(b, t.Value)
	if t.Kind == rdf.KindLiteral {
		b = appendString(b, t.Datatype)
		b = appendString(b, t.Lang)
	}
	return b
}

// termSize is len(appendTerm(nil, t)).
func termSize(t rdf.Term) int {
	n := 1 + 4 + len(t.Value)
	if t.Kind == rdf.KindLiteral {
		n += 4 + len(t.Datatype) + 4 + len(t.Lang)
	}
	return n
}

// term decodes a term, sharing the strings of like (the term at the
// same position of the previous triple) wherever the bytes are equal.
func (c *cursor) term(like *rdf.Term) (rdf.Term, error) {
	kind, err := c.u8()
	if err != nil {
		return rdf.Term{}, err
	}
	if kind > byte(rdf.KindBlank) {
		return rdf.Term{}, fmt.Errorf("segment: term kind %d invalid", kind)
	}
	t := rdf.Term{Kind: rdf.TermKind(kind)}
	if t.Value, err = c.str(like.Value); err != nil {
		return rdf.Term{}, err
	}
	if t.Kind == rdf.KindLiteral {
		if t.Datatype, err = c.str(like.Datatype); err != nil {
			return rdf.Term{}, err
		}
		if t.Lang, err = c.str(like.Lang); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// appendTriple encodes a full triple with its optional valid time.
func appendTriple(b []byte, t rdf.Triple) []byte {
	b = appendTerm(b, t.S)
	b = appendTerm(b, t.P)
	b = appendTerm(b, t.O)
	if t.HasValidTime() {
		b = append(b, 1)
		b = appendI64(b, t.ValidFrom.UnixNano())
		b = appendI64(b, t.ValidTo.UnixNano())
	} else {
		b = append(b, 0)
	}
	return b
}

// triple decodes a triple, sharing term strings with prev (the triple
// decoded before it) where they repeat.
func (c *cursor) triple(prev *rdf.Triple) (rdf.Triple, error) {
	var t rdf.Triple
	var err error
	if t.S, err = c.term(&prev.S); err != nil {
		return rdf.Triple{}, err
	}
	if t.P, err = c.term(&prev.P); err != nil {
		return rdf.Triple{}, err
	}
	if t.O, err = c.term(&prev.O); err != nil {
		return rdf.Triple{}, err
	}
	flags, err := c.u8()
	if err != nil {
		return rdf.Triple{}, err
	}
	if flags&1 != 0 {
		from, err := c.i64()
		if err != nil {
			return rdf.Triple{}, err
		}
		to, err := c.i64()
		if err != nil {
			return rdf.Triple{}, err
		}
		t.ValidFrom = time.Unix(0, from).UTC()
		t.ValidTo = time.Unix(0, to).UTC()
	}
	return t, nil
}
