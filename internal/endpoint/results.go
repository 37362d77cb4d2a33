package endpoint

import (
	"net/http"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"applab/internal/rdf"
	"applab/internal/sparql"
)

// resultsEncoder renders SPARQL-results-JSON by appending to a reused
// buffer. Its output is byte for byte what
// json.NewEncoder(w).Encode(ResultsJSON(res)) writes — object keys in
// sorted order, encoding/json's string escaping (HTML-safe, U+2028/9,
// invalid UTF-8 as U+FFFD), trailing newline — without the three maps
// per cell and the reflection walk; results_test.go holds the
// differential and the fuzz target that pin the equivalence.
type resultsEncoder struct {
	buf   []byte
	cells []cell // one row's bindings, sorted by variable name
}

type cell struct {
	name string
	term rdf.Term
}

var encoderPool = sync.Pool{New: func() any { return new(resultsEncoder) }}

// maxPooledBuffer keeps one huge response from pinning its buffer in the
// pool forever.
const maxPooledBuffer = 1 << 20

// writeResults encodes a result set as SPARQL-results-JSON. The whole
// body is built before its first byte is written; encoded, when set,
// runs in between, so stage accounting is complete by the time a client
// can see the response.
func writeResults(w http.ResponseWriter, res *sparql.Results, encoded func()) {
	e := encoderPool.Get().(*resultsEncoder)
	e.encode(res)
	if encoded != nil {
		encoded()
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	_, _ = w.Write(e.buf) // best-effort: a vanished client is not a server error
	if cap(e.buf) <= maxPooledBuffer {
		encoderPool.Put(e)
	}
}

func (e *resultsEncoder) encode(res *sparql.Results) {
	b := append(e.buf[:0], `{"boolean":`...)
	if res.Bool {
		b = append(b, "true"...)
	} else {
		b = append(b, "false"...)
	}
	b = append(b, `,"head":{"vars":`...)
	if res.Vars == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range res.Vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `},"results":{"bindings":[`...)
	for i, row := range res.Bindings {
		if i > 0 {
			b = append(b, ',')
		}
		e.cells = e.cells[:0]
		for v, t := range row {
			e.cells = append(e.cells, cell{v, t})
		}
		slices.SortFunc(e.cells, func(x, y cell) int { return strings.Compare(x.name, y.name) })
		b = append(b, '{')
		for j, c := range e.cells {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c.name)
			b = appendCell(append(b, ':'), c.term)
		}
		b = append(b, '}')
	}
	e.buf = append(b, "]}}\n"...)
}

// appendCell renders one term; the keys come out in sorted order:
// datatype, type, value, xml:lang.
func appendCell(b []byte, t rdf.Term) []byte {
	b = append(b, '{')
	kind := "literal"
	switch {
	case t.IsIRI():
		kind = "uri"
	case t.IsBlank():
		kind = "bnode"
	case t.Datatype != "" && t.Datatype != rdf.XSDString:
		b = appendJSONString(append(b, `"datatype":`...), t.Datatype)
		b = append(b, ',')
	}
	b = append(b, `"type":"`...)
	b = append(b, kind...)
	b = appendJSONString(append(b, `","value":`...), t.Value)
	if kind == "literal" && t.Lang != "" {
		b = appendJSONString(append(b, `,"xml:lang":`...), t.Lang)
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s the way encoding/json does with HTML
// escaping on.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
