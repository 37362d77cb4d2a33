// Package rdf implements the RDF 1.1 data model used throughout the App Lab
// stack: IRIs, literals, blank nodes, triples (optionally with valid time),
// in-memory graphs, and Turtle / N-Triples serialization.
//
// The package is deliberately small and allocation-conscious: terms are value
// types, and a graph interns them once and holds its triples and indexes as
// ids.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// KindIRI identifies an IRI term.
	KindIRI TermKind = iota
	// KindLiteral identifies a literal term.
	KindLiteral
	// KindBlank identifies a blank node term.
	KindBlank
)

// Common XSD and RDF datatype IRIs.
const (
	XSDString      = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger     = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal     = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDFloat       = "http://www.w3.org/2001/XMLSchema#float"
	XSDDouble      = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean     = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime    = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDDate        = "http://www.w3.org/2001/XMLSchema#date"
	RDFLangString  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
	RDFType        = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	WKTLiteral     = "http://www.opengis.net/ont/geosparql#wktLiteral"
	RDFSLabel      = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSComment    = "http://www.w3.org/2000/01/rdf-schema#comment"
	RDFSDomain     = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange      = "http://www.w3.org/2000/01/rdf-schema#range"
	OWLClass       = "http://www.w3.org/2002/07/owl#Class"
	OWLSameAs      = "http://www.w3.org/2002/07/owl#sameAs"
)

// Term is an RDF term: an IRI, a literal, or a blank node.
//
// For IRIs, Value holds the IRI string. For blank nodes, Value holds the
// label (without the "_:" prefix). For literals, Value holds the lexical
// form, Datatype the datatype IRI (empty means xsd:string), and Lang the
// optional language tag.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain xsd:string literal.
func NewLiteral(lexical string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: XSDString}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: RDFLangString, Lang: lang}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// NewBool returns an xsd:boolean literal.
func NewBool(v bool) Term {
	return NewTypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// NewDateTime returns an xsd:dateTime literal in RFC 3339 / XSD format.
func NewDateTime(t time.Time) Term {
	return NewTypedLiteral(t.UTC().Format("2006-01-02T15:04:05Z"), XSDDateTime)
}

// NewWKT returns a geo:wktLiteral with the given WKT text.
func NewWKT(wkt string) Term { return NewTypedLiteral(wkt, WKTLiteral) }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero Term (no kind-IRI value set).
// The zero Term is used as a wildcard in graph pattern matching.
func (t Term) IsZero() bool {
	return t.Kind == KindIRI && t.Value == ""
}

// Equal reports term equality per RDF 1.1 semantics.
func (t Term) Equal(o Term) bool {
	return t.Kind == o.Kind && t.Value == o.Value && t.Datatype == o.Datatype && t.Lang == o.Lang
}

// Float returns the numeric value of a numeric literal.
func (t Term) Float() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDFloat, XSDDouble, "":
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

// Int returns the integer value of an xsd:integer literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDInteger {
		return 0, false
	}
	v, err := strconv.ParseInt(t.Value, 10, 64)
	return v, err == nil
}

// Bool returns the value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	v, err := strconv.ParseBool(t.Value)
	return v, err == nil
}

// Time returns the time value of an xsd:dateTime or xsd:date literal.
func (t Term) Time() (time.Time, bool) {
	if t.Kind != KindLiteral {
		return time.Time{}, false
	}
	for _, layout := range []string{"2006-01-02T15:04:05Z", time.RFC3339, "2006-01-02"} {
		if v, err := time.Parse(layout, t.Value); err == nil {
			return v, true
		}
	}
	return time.Time{}, false
}

// IsNumeric reports whether the literal has a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDFloat, XSDDouble:
		return true
	}
	return false
}

// String returns the N-Triples encoding of the term. Blank nodes render as
// _:label; literals carry their datatype or language tag.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	default:
		esc := escapeLiteral(t.Value)
		if t.Lang != "" {
			return `"` + esc + `"@` + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return `"` + esc + `"^^<` + t.Datatype + ">"
		}
		return `"` + esc + `"`
	}
}

// Key returns a compact unique encoding of the term, suitable as a map key.
// It is cheaper than String for literals because it avoids escaping.
func (t Term) Key() string {
	switch t.Kind {
	case KindIRI:
		return "I" + t.Value
	case KindBlank:
		return "B" + t.Value
	default:
		return "L" + t.Datatype + "@" + t.Lang + "\x00" + t.Value
	}
}

// AppendKey appends exactly the bytes of Key() to dst, so callers that
// build composite keys in a reused buffer need no string per term.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		dst = append(dst, 'I')
	case KindBlank:
		dst = append(dst, 'B')
	default:
		dst = append(dst, 'L')
		dst = append(dst, t.Datatype...)
		dst = append(dst, '@')
		dst = append(dst, t.Lang...)
		dst = append(dst, 0)
	}
	return append(dst, t.Value...)
}

// Compare orders terms exactly as strings.Compare orders their Key()s —
// blank nodes, then IRIs, then literals by datatype, language tag and
// lexical form — without building either key.
func (t Term) Compare(o Term) int {
	rt, ro := t.keyRank(), o.keyRank()
	if rt != ro {
		if rt < ro {
			return -1
		}
		return 1
	}
	if rt != 2 || (t.Datatype == o.Datatype && t.Lang == o.Lang) {
		return strings.Compare(t.Value, o.Value)
	}
	a := [5]string{t.Datatype, "@", t.Lang, "\x00", t.Value}
	b := [5]string{o.Datatype, "@", o.Lang, "\x00", o.Value}
	return compareConcat(&a, &b)
}

// keyRank orders the Key() prefix bytes: 'B' < 'I' < 'L'.
func (t Term) keyRank() int {
	switch t.Kind {
	case KindBlank:
		return 0
	case KindIRI:
		return 1
	default:
		return 2
	}
}

// compareConcat compares the concatenations of a and b chunk by chunk.
func compareConcat(a, b *[5]string) int {
	ai, bi := 0, 0
	as, bs := a[0], b[0]
	for {
		for as == "" && ai < len(a)-1 {
			ai++
			as = a[ai]
		}
		for bs == "" && bi < len(b)-1 {
			bi++
			bs = b[bi]
		}
		switch {
		case as == "" && bs == "":
			return 0
		case as == "": // a is a proper prefix of b
			return -1
		case bs == "":
			return 1
		}
		n := min(len(as), len(bs))
		if c := strings.Compare(as[:n], bs[:n]); c != 0 {
			return c
		}
		as, bs = as[n:], bs[n:]
	}
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is an RDF statement. Valid time (the Strabon stRDF extension the
// paper relies on for time-evolving data) is carried by the optional
// ValidFrom/ValidTo pair; zero times mean "no valid time attached".
type Triple struct {
	S, P, O   Term
	ValidFrom time.Time
	ValidTo   time.Time
}

// NewTriple returns a triple without valid time.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// Compare is the canonical triple order: subject, predicate and object
// in Term.Compare (term-key) order, then valid time. It allocates
// nothing, and is zero only for identical triples.
func (t *Triple) Compare(o *Triple) int {
	if c := t.S.Compare(o.S); c != 0 {
		return c
	}
	if c := t.P.Compare(o.P); c != 0 {
		return c
	}
	if c := t.O.Compare(o.O); c != 0 {
		return c
	}
	if c := t.ValidFrom.Compare(o.ValidFrom); c != 0 {
		return c
	}
	return t.ValidTo.Compare(o.ValidTo)
}

// HasValidTime reports whether the triple carries a valid-time interval.
func (t Triple) HasValidTime() bool { return !t.ValidFrom.IsZero() || !t.ValidTo.IsZero() }

// Ref is a triple by reference: handles to terms that whoever handed
// them out never mutates. It carries no valid time. As a triple pattern
// a nil handle is a wildcard.
type Ref struct{ S, P, O *Term }

// PatternRef returns the pattern s p o by reference: handles to one copy
// of its terms, nil for the zero (wildcard) ones.
func PatternRef(s, p, o Term) Ref {
	ts := &[3]Term{s, p, o}
	var h [3]*Term
	for i := range ts {
		if !ts[i].IsZero() {
			h[i] = &ts[i]
		}
	}
	return Ref{h[0], h[1], h[2]}
}

// Terms returns the terms behind the handles, zero for nil ones.
func (r Ref) Terms() (s, p, o Term) { return deref(r.S), deref(r.P), deref(r.O) }

func deref(h *Term) Term {
	if h == nil {
		return Term{}
	}
	return *h
}

// Ref returns handles to the triple's own terms.
func (t *Triple) Ref() Ref { return Ref{&t.S, &t.P, &t.O} }

// String renders the triple in N-Triples form (valid time, when present, is
// appended as an stRDF-style comment).
func (t Triple) String() string {
	base := fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
	if t.HasValidTime() {
		return fmt.Sprintf("%s # valid [%s, %s]", base,
			t.ValidFrom.Format("2006-01-02T15:04:05Z"), t.ValidTo.Format("2006-01-02T15:04:05Z"))
	}
	return base
}
