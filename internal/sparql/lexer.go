package sparql

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tKeyword
	tVar     // ?name or $name
	tIRI     // <...>
	tPName   // prefix:local (or bare "a")
	tString  // "..."
	tNumber  // 1, 1.5, 1e3
	tBoolean // true/false
	tLBrace
	tRBrace
	tLParen
	tRParen
	tDot
	tSemicolon
	tComma
	tStar
	tCaret // ^^
	tAt    // @lang
	tOp    // = != < > <= >= && || ! + - / (arith * is tStar)
	tAs    // AS keyword handled as keyword
	tBlank // _:label
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// sparqlKeywords is the set of reserved words recognized case-insensitively.
var sparqlKeywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "WHERE": true,
	"PREFIX": true, "BASE": true, "DISTINCT": true, "REDUCED": true,
	"FILTER": true, "OPTIONAL": true, "UNION": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"GROUP": true, "AS": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "BIND": true, "VALUES": true,
	"NOT": true, "EXISTS": true, "IN": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex appends src's tokens to toks, which it returns also on error.
func lex(src string, toks []token) ([]token, error) {
	l := &lexer{src: src, toks: toks}
	if err := l.run(); err != nil {
		return l.toks, err
	}
	l.toks = append(l.toks, token{kind: tEOF, pos: l.pos})
	return l.toks, nil
}

// tokPool recycles Parse's token slices, cleared so they pin no query
// text; one of more than maxPooledToks tokens is dropped.
var tokPool = sync.Pool{New: func() any { return new([]token) }}

const maxPooledToks = 4096

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) emit(kind tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '{':
			l.emit(tLBrace, "{", l.pos)
			l.pos++
		case c == '}':
			l.emit(tRBrace, "}", l.pos)
			l.pos++
		case c == '(':
			l.emit(tLParen, "(", l.pos)
			l.pos++
		case c == ')':
			l.emit(tRParen, ")", l.pos)
			l.pos++
		case c == ';':
			l.emit(tSemicolon, ";", l.pos)
			l.pos++
		case c == ',':
			l.emit(tComma, ",", l.pos)
			l.pos++
		case c == '*':
			l.emit(tStar, "*", l.pos)
			l.pos++
		case c == '?' || c == '$':
			start := l.pos
			l.pos++
			name := l.word()
			if name == "" {
				return l.errf("empty variable name")
			}
			l.emit(tVar, name, start)
		case c == '<':
			// IRI or operators <=, <
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tOp, "<=", l.pos)
				l.pos += 2
				continue
			}
			// Heuristic: an IRI has no spaces before '>'.
			end := strings.IndexAny(l.src[l.pos+1:], "> \t\n")
			if end >= 0 && l.src[l.pos+1+end] == '>' {
				l.emit(tIRI, l.src[l.pos+1:l.pos+1+end], l.pos)
				l.pos += end + 2
				continue
			}
			l.emit(tOp, "<", l.pos)
			l.pos++
		case c == '>':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tOp, ">=", l.pos)
				l.pos += 2
			} else {
				l.emit(tOp, ">", l.pos)
				l.pos++
			}
		case c == '=':
			l.emit(tOp, "=", l.pos)
			l.pos++
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tOp, "!=", l.pos)
				l.pos += 2
			} else {
				l.emit(tOp, "!", l.pos)
				l.pos++
			}
		case c == '&':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '&' {
				l.emit(tOp, "&&", l.pos)
				l.pos += 2
			} else {
				return l.errf("single '&'")
			}
		case c == '|':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '|' {
				l.emit(tOp, "||", l.pos)
				l.pos += 2
			} else {
				return l.errf("single '|'")
			}
		case c == '+':
			l.emit(tOp, "+", l.pos)
			l.pos++
		case c == '/':
			l.emit(tOp, "/", l.pos)
			l.pos++
		case c == '-':
			// Could start a negative number.
			if l.pos+1 < len(l.src) && isDigitByte(l.src[l.pos+1]) {
				l.lexNumber()
			} else {
				l.emit(tOp, "-", l.pos)
				l.pos++
			}
		case c == '^':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '^' {
				l.emit(tCaret, "^^", l.pos)
				l.pos += 2
			} else {
				return l.errf("single '^'")
			}
		case c == '@':
			start := l.pos
			l.pos++
			l.emit(tAt, l.word(), start)
		case c == '"':
			if err := l.lexString(); err != nil {
				return err
			}
		case c == '.':
			l.emit(tDot, ".", l.pos)
			l.pos++
		case c == '_':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
				start := l.pos
				l.pos += 2
				l.emit(tBlank, l.word(), start)
				continue
			}
			return l.errf("unexpected '_'")
		case isDigitByte(c):
			l.lexNumber()
		default:
			if unicode.IsLetter(rune(c)) {
				l.lexName()
				continue
			}
			return l.errf("unexpected character %q", string(c))
		}
	}
	return nil
}

func (l *lexer) word() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' || l.src[l.pos] == '+' {
		l.pos++
	}
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigitByte(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && isDigitByte(l.src[l.pos+1]) {
			seenDot = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && !seenExp {
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			continue
		}
		break
	}
	l.emit(tNumber, l.src[start:l.pos], start)
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			l.emit(tString, b.String(), start)
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"', '\\':
				b.WriteByte(l.src[l.pos])
			default:
				b.WriteByte('\\')
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return l.errf("unterminated string")
}

// lexName scans a bare name: keyword, prefixed name, or function name like
// geof:sfIntersects.
func (l *lexer) lexName() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == '.' {
			l.pos++
			continue
		}
		if c == ':' {
			l.pos++
			continue
		}
		break
	}
	text := strings.TrimSuffix(l.src[start:l.pos], ".")
	l.pos = start + len(text)
	if text == "true" || text == "false" {
		l.emit(tBoolean, text, start)
		return
	}
	if sparqlKeywords[strings.ToUpper(text)] && !strings.Contains(text, ":") {
		l.emit(tKeyword, strings.ToUpper(text), start)
		return
	}
	l.emit(tPName, text, start)
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }
