// Package obda implements the ontology-based data access layer of the App
// Lab stack, modeled on Ontop-spatial [Bereta & Koubarakis, ISWC 2016]:
// R2RML-style mappings in Ontop's native syntax (the paper's Listing 2)
// turn relational sources — MadIS tables and virtual tables, including the
// OPeNDAP adapter — into virtual RDF graphs that answer GeoSPARQL queries
// without materializing triples.
package obda

import (
	"fmt"
	"strconv"
	"strings"

	"applab/internal/madis"
	"applab/internal/rdf"
)

// Mapping is one mapping axiom: a target triple template instantiated once
// per row of the source SQL result.
type Mapping struct {
	ID     string
	Target []TripleTemplate
	Source string // SQL over the MadIS backend
}

// TripleTemplate is a triple whose terms may contain {column} placeholders.
type TripleTemplate struct {
	S, P, O TermTemplate
}

// TermTemplateKind discriminates template term kinds.
type TermTemplateKind uint8

// Template term kinds.
const (
	TmplIRI TermTemplateKind = iota
	TmplLiteral
	TmplBlank
)

// TermTemplate is a term with optional placeholders. For IRIs and literals
// Text holds the pattern with {col} placeholders; Datatype/Lang apply to
// literals. Blank templates mint one blank node per (label, row).
type TermTemplate struct {
	Kind     TermTemplateKind
	Text     string
	Datatype string
	Lang     string
}

// split cuts the template text at its {col} placeholders: the text is
// parts[0] {cols[0]} parts[1] ... parts[len(cols)]. An unclosed brace
// is literal text.
func (t TermTemplate) split() (parts, cols []string) {
	s := t.Text
	for {
		i, j := strings.IndexByte(s, '{'), -1
		if i >= 0 {
			j = strings.IndexByte(s[i:], '}')
		}
		if j < 0 {
			return append(parts, s), cols
		}
		parts = append(parts, s[:i])
		cols = append(cols, s[i+1:i+j])
		s = s[i+j+1:]
	}
}

// Columns returns the placeholder column names used by the template.
func (t TermTemplate) Columns() []string {
	_, cols := t.split()
	return cols
}

// term builds the template's kind of term around its instantiated text.
func (t TermTemplate) term(text string) rdf.Term {
	switch {
	case t.Kind == TmplIRI:
		return rdf.NewIRI(text)
	case t.Kind == TmplBlank:
		return rdf.NewBlank(text)
	case t.Lang != "":
		return rdf.NewLangLiteral(text, t.Lang)
	case t.Datatype != "":
		return rdf.NewTypedLiteral(text, t.Datatype)
	}
	return rdf.NewLiteral(text)
}

// termPlan is a term template bound to the result table of its
// mapping's source: split once, each placeholder resolved to the column
// it reads.
type termPlan struct {
	tmpl  TermTemplate
	parts []string
	cols  []int
}

func (t TermTemplate) compile(table *madis.Table) termPlan {
	tp := termPlan{tmpl: t}
	var names []string
	tp.parts, names = t.split()
	for _, name := range names {
		c, ok := table.ColIndex(name)
		if !ok {
			c = len(table.Cols) // the slot of a row's values that is always NULL
		}
		tp.cols = append(tp.cols, c)
	}
	return tp
}

// constant reports whether every row instantiates the same term.
func (tp *termPlan) constant() bool { return len(tp.cols) == 0 && tp.tmpl.Kind != TmplBlank }

// instantiate substitutes a row's values (nil is SQL NULL) into the
// template. A placeholder resolving to NULL reports ok=false, dropping
// the triple; a blank template mints the node of row seq.
func (tp *termPlan) instantiate(vals []*string, seq int) (rdf.Term, bool) {
	if tp.tmpl.Kind == TmplBlank {
		return tp.tmpl.term(tp.tmpl.Text + "_r" + strconv.Itoa(seq)), true
	}
	n := len(tp.parts[0])
	for i, c := range tp.cols {
		if vals[c] == nil {
			return rdf.Term{}, false
		}
		n += len(*vals[c]) + len(tp.parts[i+1])
	}
	if len(tp.cols) == 1 && n == len(*vals[tp.cols[0]]) {
		return tp.tmpl.term(*vals[tp.cols[0]]), true // a bare {col}: the value is the text
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(tp.parts[0])
	for i, c := range tp.cols {
		b.WriteString(*vals[c])
		b.WriteString(tp.parts[i+1])
	}
	return tp.tmpl.term(b.String()), true
}

// materialize adds the mapping's target triples for every row of its
// source's result to g, numbering the rows on from seq, and returns the
// last number used. A row instantiates each distinct template of the
// target once, however many triples share it, and a template without
// placeholders is instantiated once for the whole table.
func (m Mapping) materialize(g *rdf.Graph, table *madis.Table, seq int) int {
	var plans []termPlan
	plan := func(t TermTemplate) int {
		for i := range plans {
			if plans[i].tmpl == t {
				return i
			}
		}
		plans = append(plans, t.compile(table))
		return len(plans) - 1
	}
	targets := make([][3]int, len(m.Target))
	for i, tt := range m.Target {
		targets[i] = [3]int{plan(tt.S), plan(tt.P), plan(tt.O)}
	}
	terms, ok := make([]rdf.Term, len(plans)), make([]bool, len(plans))
	for i := range plans {
		if plans[i].constant() {
			terms[i], ok[i] = plans[i].instantiate(nil, 0)
		}
	}
	strs := make([]string, len(table.Cols))
	vals := make([]*string, len(table.Cols)+1)
	for _, row := range table.Rows {
		seq++
		for i := range strs {
			vals[i] = &strs[i]
			switch v := row[i].(type) {
			case nil:
				vals[i] = nil
			case string:
				strs[i] = v
			case float64:
				strs[i] = strconv.FormatFloat(v, 'g', -1, 64)
			default:
				strs[i] = fmt.Sprint(v)
			}
		}
		for i := range plans {
			if !plans[i].constant() {
				terms[i], ok[i] = plans[i].instantiate(vals, seq)
			}
		}
		for _, tt := range targets {
			if ok[tt[0]] && ok[tt[1]] && ok[tt[2]] {
				g.Add(rdf.NewTriple(terms[tt[0]], terms[tt[1]], terms[tt[2]]))
			}
		}
	}
	return seq
}

// ParseMappings parses a mapping document in Ontop's native syntax:
//
//	mappingId  <id>
//	target     <triple templates in Turtle-like syntax with {col} placeholders>
//	source     <SQL (may span lines until blank line or next mappingId)>
//
// Multiple mappings are separated by their mappingId lines.
func ParseMappings(doc string) ([]Mapping, error) {
	prefixes := rdf.DefaultPrefixes()
	var mappings []Mapping
	var cur *Mapping
	var targetText string
	var mode string // "target" | "source" | ""
	flush := func() error {
		if cur == nil {
			return nil
		}
		if strings.TrimSpace(targetText) != "" {
			tmpl, err := parseTargetTemplates(targetText, prefixes)
			if err != nil {
				return fmt.Errorf("obda: mapping %s: %v", cur.ID, err)
			}
			cur.Target = tmpl
		}
		targetText = ""
		if cur.ID == "" || len(cur.Target) == 0 || strings.TrimSpace(cur.Source) == "" {
			return fmt.Errorf("obda: mapping %q incomplete (needs mappingId, target, source)", cur.ID)
		}
		cur.Source = strings.TrimSpace(cur.Source)
		mappings = append(mappings, *cur)
		cur = nil
		return nil
	}
	lines := strings.Split(doc, "\n")
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "mappingId"):
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Mapping{ID: strings.TrimSpace(trimmed[len("mappingId"):])}
			mode = ""
		case strings.HasPrefix(trimmed, "target"):
			if cur == nil {
				return nil, fmt.Errorf("obda: target before mappingId")
			}
			targetText += " " + strings.TrimSpace(trimmed[len("target"):])
			mode = "target"
		case strings.HasPrefix(trimmed, "source"):
			if cur == nil {
				return nil, fmt.Errorf("obda: source before mappingId")
			}
			cur.Source = strings.TrimSpace(trimmed[len("source"):])
			mode = "source"
		case trimmed == "":
			// Blank lines end the current clause but not the mapping.
			if mode == "source" {
				mode = ""
			}
		default:
			switch mode {
			case "target":
				targetText += " " + trimmed
			case "source":
				cur.Source += "\n" + line
			default:
				return nil, fmt.Errorf("obda: unexpected line %q", trimmed)
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(mappings) == 0 {
		return nil, fmt.Errorf("obda: no mappings in document")
	}
	return mappings, nil
}

// parseTargetTemplates parses a fragment of target template text: triples
// separated by "." with ";" predicate lists.
func parseTargetTemplates(body string, prefixes *rdf.Prefixes) ([]TripleTemplate, error) {
	toks := tokenizeTarget(body)
	var out []TripleTemplate
	var subj TermTemplate
	haveSubj := false
	i := 0
	next := func() (string, bool) {
		if i < len(toks) {
			t := toks[i]
			i++
			return t, true
		}
		return "", false
	}
	for {
		if !haveSubj {
			tok, ok := next()
			if !ok {
				return out, nil
			}
			s, err := parseTermTemplate(tok, prefixes, true)
			if err != nil {
				return nil, err
			}
			subj = s
			haveSubj = true
		}
		ptok, ok := next()
		if !ok {
			return nil, fmt.Errorf("truncated target after subject")
		}
		p, err := parseTermTemplate(ptok, prefixes, false)
		if err != nil {
			return nil, err
		}
		otok, ok := next()
		if !ok {
			return nil, fmt.Errorf("truncated target after predicate")
		}
		o, err := parseTermTemplate(otok, prefixes, false)
		if err != nil {
			return nil, err
		}
		out = append(out, TripleTemplate{S: subj, P: p, O: o})
		sep, ok := next()
		if !ok {
			return out, nil
		}
		switch sep {
		case ".":
			haveSubj = false
		case ";":
			// same subject
		default:
			return nil, fmt.Errorf("expected '.' or ';', got %q", sep)
		}
	}
}

// tokenizeTarget splits target text into term tokens, detaching trailing
// "." and ";" separators.
func tokenizeTarget(s string) []string {
	fields := strings.Fields(s)
	var out []string
	for _, f := range fields {
		for f != "" {
			if f == "." || f == ";" {
				out = append(out, f)
				break
			}
			if strings.HasSuffix(f, ".") || strings.HasSuffix(f, ";") {
				sep := f[len(f)-1:]
				body := f[:len(f)-1]
				// Don't detach a dot inside an IRI or decimal: only detach
				// when what remains still parses as a term-ish token.
				if body != "" {
					out = append(out, body, sep)
				} else {
					out = append(out, sep)
				}
				break
			}
			out = append(out, f)
			break
		}
	}
	return out
}

// parseTermTemplate parses one target token into a term template.
func parseTermTemplate(tok string, prefixes *rdf.Prefixes, asSubject bool) (TermTemplate, error) {
	if tok == "a" && !asSubject {
		return TermTemplate{Kind: TmplIRI, Text: rdf.RDFType}, nil
	}
	if strings.HasPrefix(tok, "_:") {
		return TermTemplate{Kind: TmplBlank, Text: tok[2:]}, nil
	}
	// Literal with datatype: {col}^^xsd:float or "{col}"^^geo:wktLiteral
	if idx := strings.Index(tok, "^^"); idx >= 0 {
		lex := strings.Trim(tok[:idx], `"`)
		dt := tok[idx+2:]
		dtIRI, err := expandMaybe(dt, prefixes)
		if err != nil {
			return TermTemplate{}, err
		}
		return TermTemplate{Kind: TmplLiteral, Text: lex, Datatype: dtIRI}, nil
	}
	// Language-tagged literal: "{col}"@en
	if idx := strings.LastIndex(tok, `"@`); idx > 0 && strings.HasPrefix(tok, `"`) {
		return TermTemplate{Kind: TmplLiteral, Text: tok[1:idx], Lang: tok[idx+2:]}, nil
	}
	// Quoted plain literal
	if strings.HasPrefix(tok, `"`) && strings.HasSuffix(tok, `"`) && len(tok) >= 2 {
		return TermTemplate{Kind: TmplLiteral, Text: tok[1 : len(tok)-1]}, nil
	}
	// Full IRI
	if strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">") {
		return TermTemplate{Kind: TmplIRI, Text: tok[1 : len(tok)-1]}, nil
	}
	// Bare placeholder -> literal
	if strings.HasPrefix(tok, "{") && strings.HasSuffix(tok, "}") {
		return TermTemplate{Kind: TmplLiteral, Text: tok}, nil
	}
	// Prefixed name, possibly with placeholder in the local part.
	if i := strings.IndexByte(tok, ':'); i >= 0 {
		ns, ok := prefixes.Namespace(tok[:i])
		if !ok {
			return TermTemplate{}, fmt.Errorf("unbound prefix in %q", tok)
		}
		return TermTemplate{Kind: TmplIRI, Text: ns + tok[i+1:]}, nil
	}
	return TermTemplate{}, fmt.Errorf("cannot parse target term %q", tok)
}

func expandMaybe(s string, prefixes *rdf.Prefixes) (string, error) {
	if strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">") {
		return s[1 : len(s)-1], nil
	}
	return prefixes.Expand(s)
}
