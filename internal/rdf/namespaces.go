package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Well-known namespace IRIs used across the App Lab stack (the prefixes of
// the paper's Listings and Figures 2-3).
const (
	NSRDF      = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	NSRDFS     = "http://www.w3.org/2000/01/rdf-schema#"
	NSOWL      = "http://www.w3.org/2002/07/owl#"
	NSXSD      = "http://www.w3.org/2001/XMLSchema#"
	NSGeo      = "http://www.opengis.net/ont/geosparql#"
	NSGeof     = "http://www.opengis.net/def/function/geosparql/"
	NSSF       = "http://www.opengis.net/ont/sf#"
	NSTime     = "http://www.w3.org/2006/time#"
	NSQB       = "http://purl.org/linked-data/cube#"
	NSLAI      = "http://www.app-lab.eu/lai/"
	NSGADM     = "http://www.app-lab.eu/gadm/"
	NSCLC      = "http://www.app-lab.eu/corine/"
	NSUA       = "http://www.app-lab.eu/urbanatlas/"
	NSOSM      = "http://www.app-lab.eu/osm/"
	NSSchema   = "http://schema.org/"
	NSDCTerms  = "http://purl.org/dc/terms/"
	NSInspire  = "http://inspire.ec.europa.eu/ont/"
	NSAppLab   = "http://www.app-lab.eu/ont/"
	NSGeoNames = "http://www.geonames.org/ontology#"
)

// DefaultPrefixes returns the prefix table used by the stack's parsers,
// serializers and CLIs. The mapping mirrors the prefixes assumed by the
// paper's Listing 1-3.
func DefaultPrefixes() *Prefixes {
	p := NewPrefixes()
	p.Bind("rdf", NSRDF)
	p.Bind("rdfs", NSRDFS)
	p.Bind("owl", NSOWL)
	p.Bind("xsd", NSXSD)
	p.Bind("geo", NSGeo)
	p.Bind("geof", NSGeof)
	p.Bind("sf", NSSF)
	p.Bind("time", NSTime)
	p.Bind("qb", NSQB)
	p.Bind("lai", NSLAI)
	p.Bind("gadm", NSGADM)
	p.Bind("clc", NSCLC)
	p.Bind("ua", NSUA)
	p.Bind("osm", NSOSM)
	p.Bind("schema", NSSchema)
	p.Bind("dcterms", NSDCTerms)
	p.Bind("inspire", NSInspire)
	p.Bind("applab", NSAppLab)
	return p
}

// Prefixes maps prefix labels to namespace IRIs and supports expansion of
// prefixed names ("geo:asWKT") and compaction of full IRIs.
type Prefixes struct {
	byPrefix map[string]string
	byIRI    map[string]string
}

// NewPrefixes returns an empty prefix table.
func NewPrefixes() *Prefixes {
	return &Prefixes{byPrefix: map[string]string{}, byIRI: map[string]string{}}
}

// Bind associates a prefix label with a namespace IRI, replacing any
// previous binding for the label.
func (p *Prefixes) Bind(prefix, ns string) {
	if old, ok := p.byPrefix[prefix]; ok {
		delete(p.byIRI, old)
	}
	p.byPrefix[prefix] = ns
	p.byIRI[ns] = prefix
}

// Namespace returns the namespace bound to prefix.
func (p *Prefixes) Namespace(prefix string) (string, bool) {
	ns, ok := p.byPrefix[prefix]
	return ns, ok
}

// Expand resolves a prefixed name like "geo:asWKT" to a full IRI. It returns
// an error when the prefix is unbound. Input that is already a full IRI in
// angle brackets is unwrapped.
func (p *Prefixes) Expand(qname string) (string, error) {
	if strings.HasPrefix(qname, "<") && strings.HasSuffix(qname, ">") {
		return qname[1 : len(qname)-1], nil
	}
	i := strings.Index(qname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", qname)
	}
	prefix, local := qname[:i], qname[i+1:]
	ns, ok := p.byPrefix[prefix]
	if !ok {
		return "", fmt.Errorf("rdf: unbound prefix %q in %q", prefix, qname)
	}
	return ns + local, nil
}

// Compact rewrites a full IRI as a prefixed name when a binding matches;
// otherwise it returns the IRI in angle brackets.
func (p *Prefixes) Compact(iri string) string {
	for ns, prefix := range p.byIRI {
		if strings.HasPrefix(iri, ns) {
			local := iri[len(ns):]
			if isSafeLocal(local) {
				return prefix + ":" + local
			}
		}
	}
	return "<" + iri + ">"
}

// Bindings returns all prefix bindings sorted by prefix label.
func (p *Prefixes) Bindings() []struct{ Prefix, Namespace string } {
	out := make([]struct{ Prefix, Namespace string }, 0, len(p.byPrefix))
	for pre, ns := range p.byPrefix {
		out = append(out, struct{ Prefix, Namespace string }{pre, ns})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

func isSafeLocal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return true
}
