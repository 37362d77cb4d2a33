package opendap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/netcdf"
	"applab/internal/telemetry"
)

// Server is an OPeNDAP (DAP2-subset) HTTP server over a set of named
// datasets. Routes, for a dataset published as "lai":
//
//	GET /lai.dds             structure document
//	GET /lai.das             attribute document
//	GET /lai.ncml            combined NcML document
//	GET /lai.dods?<CE>       binary subset (our netcdf encoding)
//	GET /catalog             newline-separated dataset names
//
// Every .dods answer carries a strong ETag, and a request whose
// If-None-Match names it is answered 304 Not Modified with no body: an
// unchanged product costs a round trip, not a subset, an encode and a
// transfer.
//
// The optional per-request latency simulates the wide-area link between the
// App Lab tools and the VITO data archive (used by the E1/E3 experiments to
// make "two orders of magnitude" measurable without a real WAN).
type Server struct {
	mu       sync.RWMutex
	datasets map[string]published

	// Latency is added to every data response when non-zero.
	Latency time.Duration

	// Auth, when non-nil, gates data (.dods) requests behind registered
	// tokens and tracks per-user dataset usage (the paper's §5 RAMANI
	// token scheme). Metadata routes stay open.
	Auth *AccessControl

	// Metrics, when set, counts handled requests in the registry (see
	// metrics.go).
	Metrics *telemetry.Registry

	requests atomic.Int64
}

// published is a dataset with its content tag, the SHA-256 of its
// netcdf encoding.
type published struct {
	ds  *netcdf.Dataset
	tag [sha256.Size]byte
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{datasets: map[string]published{}}
}

// Publish makes a dataset available under its name. The dataset is not
// written again once published (change a product by publishing a new
// dataset): its content tag is derived here, once, and every ETag of
// its answers comes from it.
func (s *Server) Publish(d *netcdf.Dataset) {
	p := published{ds: d}
	h := sha256.New()
	_ = netcdf.Write(h, d) // a hash never fails a write
	h.Sum(p.tag[:0])
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[d.Name] = p
}

// Dataset returns a published dataset.
func (s *Server) Dataset(name string) (*netcdf.Dataset, bool) {
	p, ok := s.lookup(name)
	return p.ds, ok
}

func (s *Server) lookup(name string) (published, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.datasets[name]
	return p, ok
}

// etag is the strong validator of the answer to c: a hash of the
// content tag and c's canonical text, so a change to either changes it
// and two spellings of one constraint share it.
func (p published) etag(c Constraint) string {
	sum := sha256.Sum256(append(p.tag[:], c.String()...))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// noneMatch evaluates If-None-Match against the current entity tag as
// RFC 9110 §13.1.2 says: true when the field is "*" or lists a tag
// equal to etag under weak comparison (a W/ prefix is ignored). A field
// that does not parse matches nothing, so the full answer is sent.
func noneMatch(h http.Header, etag string) bool {
	for _, field := range h.Values("If-None-Match") {
		for {
			field = strings.TrimLeft(field, " \t,")
			if field == "" {
				break
			}
			if field[0] == '*' {
				return true
			}
			field = strings.TrimPrefix(field, "W/")
			if !strings.HasPrefix(field, `"`) {
				break
			}
			end := strings.IndexByte(field[1:], '"')
			if end < 0 {
				break
			}
			if field[:end+2] == etag {
				return true
			}
			field = field[end+2:]
		}
	}
	return false
}

// Requests returns the number of handled requests (any route).
func (s *Server) Requests() int64 { return s.requests.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.noteServerRequest()
	path := strings.TrimPrefix(r.URL.Path, "/")
	if path == "catalog" {
		s.mu.RLock()
		names := make([]string, 0, len(s.datasets))
		for n := range s.datasets {
			names = append(names, n)
		}
		s.mu.RUnlock()
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain")
		writeText(w, strings.Join(names, "\n"))
		return
	}
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		http.Error(w, "opendap: expected <dataset>.<dds|das|ncml|dods>", http.StatusBadRequest)
		return
	}
	name, ext := path[:dot], path[dot+1:]
	p, ok := s.lookup(name)
	d := p.ds
	if !ok {
		http.Error(w, fmt.Sprintf("opendap: no dataset %q", name), http.StatusNotFound)
		return
	}
	switch ext {
	case "dds":
		w.Header().Set("Content-Type", "text/plain")
		writeText(w, RenderDDS(d))
	case "das":
		w.Header().Set("Content-Type", "text/plain")
		writeText(w, RenderDAS(d))
	case "ncml":
		w.Header().Set("Content-Type", "application/xml")
		writeText(w, RenderNcML(d))
	case "dods":
		if s.Auth != nil {
			if _, ok := s.Auth.authorize(r, name); !ok {
				http.Error(w, "opendap: data access requires a registered token", http.StatusUnauthorized)
				return
			}
		}
		if s.Latency > 0 {
			// A client that gives up releases the handler at once.
			t := time.NewTimer(s.Latency)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		ce, err := url.QueryUnescape(stripTokenParam(r.URL.RawQuery))
		if err != nil {
			http.Error(w, "opendap: bad constraint encoding", http.StatusBadRequest)
			return
		}
		if ce == "" {
			http.Error(w, "opendap: missing constraint expression", http.StatusBadRequest)
			return
		}
		c, err := ParseConstraint(ce)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ranges, err := c.resolve(d)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		etag := p.etag(c)
		w.Header().Set("ETag", etag)
		if noneMatch(r.Header, etag) {
			if r.Method == http.MethodGet || r.Method == http.MethodHead {
				w.WriteHeader(http.StatusNotModified)
			} else {
				http.Error(w, "opendap: If-None-Match matched", http.StatusPreconditionFailed)
			}
			return
		}
		sub, err := d.Subset(c.Var, ranges)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := netcdf.Write(w, sub); err != nil {
			// Too late for a status change; the client's decode will fail.
			return
		}
	default:
		http.Error(w, fmt.Sprintf("opendap: unknown extension %q", ext), http.StatusBadRequest)
	}
}

// stripTokenParam removes "token=..." pairs from a raw query string,
// leaving the DAP constraint expression (which is not key=value shaped).
// writeText writes a rendered document best-effort: a vanished client
// is not a server error, so the write result is deliberately discarded.
func writeText(w http.ResponseWriter, body string) {
	_, _ = fmt.Fprint(w, body)
}

func stripTokenParam(rawQuery string) string {
	if !strings.Contains(rawQuery, "token=") {
		return rawQuery
	}
	parts := strings.Split(rawQuery, "&")
	var kept []string
	for _, p := range parts {
		if strings.HasPrefix(p, "token=") {
			continue
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, "&")
}
