package rdf

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTermConstructorsAndAccessors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatalf("IRI kind flags wrong: %+v", iri)
	}
	if got := iri.String(); got != "<http://example.org/a>" {
		t.Errorf("IRI String = %q", got)
	}

	b := NewBlank("n1")
	if !b.IsBlank() || b.String() != "_:n1" {
		t.Errorf("blank node: %v", b)
	}

	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Datatype != XSDString {
		t.Errorf("plain literal: %+v", lit)
	}
	if got := lit.String(); got != `"hello"` {
		t.Errorf("plain literal String = %q", got)
	}

	lang := NewLangLiteral("bonjour", "fr")
	if got := lang.String(); got != `"bonjour"@fr` {
		t.Errorf("lang literal String = %q", got)
	}

	typed := NewTypedLiteral("4.5", XSDDouble)
	if got := typed.String(); got != `"4.5"^^<`+XSDDouble+">" {
		t.Errorf("typed literal String = %q", got)
	}
}

func TestNumericAccessors(t *testing.T) {
	if v, ok := NewInteger(42).Int(); !ok || v != 42 {
		t.Errorf("Int() = %v, %v", v, ok)
	}
	if v, ok := NewDouble(2.5).Float(); !ok || v != 2.5 {
		t.Errorf("Float() = %v, %v", v, ok)
	}
	if v, ok := NewBool(true).Bool(); !ok || !v {
		t.Errorf("Bool() = %v, %v", v, ok)
	}
	if _, ok := NewLiteral("x").Int(); ok {
		t.Error("Int() on string literal should fail")
	}
	if !NewInteger(1).IsNumeric() || NewLiteral("1").IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
}

func TestDateTimeRoundTrip(t *testing.T) {
	now := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	lit := NewDateTime(now)
	got, ok := lit.Time()
	if !ok || !got.Equal(now) {
		t.Fatalf("Time() = %v, %v; want %v", got, ok, now)
	}
	d := NewTypedLiteral("2018-06-01", XSDDate)
	if _, ok := d.Time(); !ok {
		t.Error("xsd:date should parse")
	}
}

func TestLiteralEscaping(t *testing.T) {
	lit := NewLiteral("line1\nline2\t\"quoted\"\\slash")
	want := `"line1\nline2\t\"quoted\"\\slash"`
	if got := lit.String(); got != want {
		t.Errorf("escaped String = %q, want %q", got, want)
	}
}

func TestTermEqualAndKey(t *testing.T) {
	a := NewTypedLiteral("1", XSDInteger)
	b := NewTypedLiteral("1", XSDDecimal)
	if a.Equal(b) {
		t.Error("literals with different datatypes must differ")
	}
	if a.Key() == b.Key() {
		t.Error("Key must distinguish datatypes")
	}
	if NewIRI("x").Key() == NewBlank("x").Key() {
		t.Error("Key must distinguish kinds")
	}
	if NewIRI("x").Key() == NewLiteral("x").Key() {
		t.Error("Key must distinguish IRI from literal")
	}
}

func TestZeroTermIsWildcard(t *testing.T) {
	var z Term
	if !z.IsZero() {
		t.Error("zero Term must be IsZero")
	}
	if NewIRI("x").IsZero() {
		t.Error("non-empty IRI must not be IsZero")
	}
}

// Property: Key is injective over distinct (kind, value, datatype, lang)
// combinations drawn from a constrained generator.
func TestKeyInjectiveProperty(t *testing.T) {
	f := func(v1, v2 string, k1, k2 uint8, lang1, lang2 bool) bool {
		mk := func(v string, k uint8, lang bool) Term {
			switch k % 3 {
			case 0:
				return NewIRI(v)
			case 1:
				if lang {
					return NewLangLiteral(v, "en")
				}
				return NewLiteral(v)
			default:
				return NewBlank(v)
			}
		}
		t1, t2 := mk(v1, k1, lang1), mk(v2, k2, lang2)
		if t1.Equal(t2) {
			return t1.Key() == t2.Key()
		}
		return t1.Key() != t2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTripleValidTime(t *testing.T) {
	tr := NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	if tr.HasValidTime() {
		t.Error("fresh triple must have no valid time")
	}
	tr.ValidFrom = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.ValidTo = time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)
	if !tr.HasValidTime() {
		t.Error("triple with interval must report valid time")
	}
}

// compareSeeds are term pairs whose keys share long prefixes or differ
// only in where the datatype, language tag and lexical form meet.
var compareSeeds = [][2]Term{
	{NewIRI("http://ex/a"), NewIRI("http://ex/ab")},
	{NewIRI("http://ex/a"), NewBlank("http://ex/a")},
	{NewBlank("b"), NewLiteral("b")},
	{NewIRI("L"), NewLiteral("")},
	{NewLiteral("x"), NewLiteral("x")},
	{NewTypedLiteral("1", XSDInteger), NewTypedLiteral("1", XSDInteger+"s")},
	{NewTypedLiteral("v", "dt"), NewTypedLiteral("v", "dt@")},
	{NewTypedLiteral("v", "dt@en"), NewLangLiteral("v", "en")},
	{Term{Kind: KindLiteral, Value: "v", Datatype: "d", Lang: "en"}, Term{Kind: KindLiteral, Value: "v", Datatype: "d@e", Lang: "n"}},
	{Term{Kind: KindLiteral, Value: "v", Datatype: "d", Lang: "e"}, Term{Kind: KindLiteral, Value: "\x00v", Datatype: "d", Lang: "e\x00"}},
	{Term{Kind: KindLiteral, Value: "a\x00b", Lang: "x"}, Term{Kind: KindLiteral, Value: "b", Lang: "x\x00a"}},
	{Term{Kind: KindLiteral, Value: "@", Datatype: ""}, Term{Kind: KindLiteral, Value: "", Datatype: "@"}},
	{NewLangLiteral("hi", "en"), NewLangLiteral("hi", "en-GB")},
	{Term{Kind: 7, Value: "odd"}, NewLiteral("odd")},
}

func checkCompare(t *testing.T, a, b Term) {
	t.Helper()
	for _, x := range []Term{a, b} {
		if got := string(x.AppendKey([]byte("pre"))); got != "pre"+x.Key() {
			t.Fatalf("AppendKey(%#v) = %q, Key() = %q", x, got, x.Key())
		}
	}
	if got, want := a.Compare(b), strings.Compare(a.Key(), b.Key()); got != want {
		t.Fatalf("Compare(%#v, %#v) = %d, key order says %d", a, b, got, want)
	}
	if got, want := b.Compare(a), strings.Compare(b.Key(), a.Key()); got != want {
		t.Fatalf("Compare(%#v, %#v) = %d, key order says %d", b, a, got, want)
	}
}

func TestTermCompareIsKeyOrder(t *testing.T) {
	var pool []Term
	for _, pair := range compareSeeds {
		checkCompare(t, pair[0], pair[1])
		pool = append(pool, pair[0], pair[1])
	}
	for _, a := range pool {
		for _, b := range pool {
			checkCompare(t, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { pool[8].Compare(pool[9]) }); n != 0 {
		t.Fatalf("Compare allocates %v objects", n)
	}
}

func FuzzTermCompare(f *testing.F) {
	for _, p := range compareSeeds {
		f.Add(uint8(p[0].Kind), p[0].Value, p[0].Datatype, p[0].Lang, uint8(p[1].Kind), p[1].Value, p[1].Datatype, p[1].Lang)
	}
	f.Fuzz(func(t *testing.T, ak uint8, av, ad, al string, bk uint8, bv, bd, bl string) {
		checkCompare(t, Term{Kind: TermKind(ak), Value: av, Datatype: ad, Lang: al},
			Term{Kind: TermKind(bk), Value: bv, Datatype: bd, Lang: bl})
	})
}
