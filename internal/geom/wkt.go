package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseWKT parses a well-known-text geometry. It accepts the geometry types
// POINT, MULTIPOINT, LINESTRING, MULTILINESTRING, POLYGON, MULTIPOLYGON and
// GEOMETRYCOLLECTION, case-insensitively, with optional EMPTY bodies, and
// tolerates an optional leading CRS IRI as used in GeoSPARQL wktLiterals
// ("<http://www.opengis.net/def/crs/...> POINT(...)").
func ParseWKT(s string) (Geometry, error) {
	p := &wktParser{src: s}
	p.skipSpace()
	// Optional CRS IRI prefix.
	if p.peek() == '<' {
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return nil, fmt.Errorf("wkt: unterminated CRS IRI")
		}
		p.pos += end + 1
		p.skipSpace()
	}
	g, err := p.parseGeometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("wkt: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return g, nil
}

// MustParseWKT is ParseWKT but panics on error; for static test/program text.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

type wktParser struct {
	src string
	pos int
}

func (p *wktParser) errf(format string, args ...any) error {
	return fmt.Errorf("wkt: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *wktParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *wktParser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
			continue
		}
		break
	}
	return strings.ToUpper(p.src[start:p.pos])
}

func (p *wktParser) parseGeometry() (Geometry, error) {
	tag := p.word()
	switch tag {
	case "POINT":
		if p.isEmpty() {
			return &MultiPoint{}, nil // empty point modeled as empty multipoint
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.parseCoord()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &PointGeom{pt}, nil
	case "MULTIPOINT":
		if p.isEmpty() {
			return &MultiPoint{}, nil
		}
		pts, err := p.parseMultiPointBody()
		if err != nil {
			return nil, err
		}
		return &MultiPoint{pts}, nil
	case "LINESTRING":
		if p.isEmpty() {
			return &LineString{}, nil
		}
		pts, err := p.parseCoordList()
		if err != nil {
			return nil, err
		}
		return &LineString{pts}, nil
	case "MULTILINESTRING":
		if p.isEmpty() {
			return &MultiLineString{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var lines []*LineString
		for {
			pts, err := p.parseCoordList()
			if err != nil {
				return nil, err
			}
			lines = append(lines, &LineString{pts})
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &MultiLineString{lines}, nil
	case "POLYGON":
		if p.isEmpty() {
			return &Polygon{}, nil
		}
		rings, err := p.parseRings()
		if err != nil {
			return nil, err
		}
		return &Polygon{rings}, nil
	case "MULTIPOLYGON":
		if p.isEmpty() {
			return &MultiPolygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var polys []*Polygon
		for {
			rings, err := p.parseRings()
			if err != nil {
				return nil, err
			}
			polys = append(polys, &Polygon{rings})
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &MultiPolygon{polys}, nil
	case "GEOMETRYCOLLECTION":
		if p.isEmpty() {
			return &Collection{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var members []Geometry
		for {
			g, err := p.parseGeometry()
			if err != nil {
				return nil, err
			}
			members = append(members, g)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &Collection{members}, nil
	case "":
		return nil, p.errf("empty WKT")
	default:
		return nil, p.errf("unknown geometry type %q", tag)
	}
}

func (p *wktParser) isEmpty() bool {
	save := p.pos
	if p.word() == "EMPTY" {
		return true
	}
	p.pos = save
	return false
}

func (p *wktParser) parseCoord() (Point, error) {
	x, err := p.parseNumber()
	if err != nil {
		return Point{}, err
	}
	y, err := p.parseNumber()
	if err != nil {
		return Point{}, err
	}
	// Tolerate and drop Z/M ordinates. Peeking keeps the usual 2-D
	// coordinate from building an "expected number" error only to
	// discard it.
	for {
		save := p.pos
		p.skipSpace()
		if !isNumberByte(p.peek()) {
			p.pos = save
			break
		}
		if _, err := p.parseNumber(); err != nil {
			p.pos = save
			break
		}
	}
	return Point{x, y}, nil
}

// isNumberByte reports whether c can appear in a WKT number.
func isNumberByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

func (p *wktParser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isNumberByte(p.src[p.pos]) {
		p.pos++
	}
	if start == p.pos {
		return 0, p.errf("expected number")
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, p.errf("bad number %q", p.src[start:p.pos])
	}
	return v, nil
}

func (p *wktParser) parseCoordList() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		pt, err := p.parseCoord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

// parseMultiPointBody accepts both "(1 2, 3 4)" and "((1 2), (3 4))".
func (p *wktParser) parseMultiPointBody() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		p.skipSpace()
		if p.peek() == '(' {
			p.pos++
			pt, err := p.parseCoord()
			if err != nil {
				return nil, err
			}
			if err := p.expect(')'); err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		} else {
			pt, err := p.parseCoord()
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		}
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

func (p *wktParser) parseRings() ([][]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var rings [][]Point
	for {
		pts, err := p.parseCoordList()
		if err != nil {
			return nil, err
		}
		// Close the ring if the input left it open.
		if len(pts) >= 3 && pts[0] != pts[len(pts)-1] {
			pts = append(pts, pts[0])
		}
		rings = append(rings, pts)
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return rings, nil
}
