// Package endpoint provides the HTTP SPARQL protocol glue of the stack: a
// handler that exposes any sparql.Source as a SPARQL endpoint returning
// (simplified) SPARQL-results-JSON, and a RemoteSource client that makes a
// remote endpoint usable as a sparql.Source again — the transport the
// federation engine (internal/federation) runs on.
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/scatter"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Handler serves GET/POST /sparql?query=... over src without
// instrumentation. Equivalent to NewHandler(src, nil).
func Handler(src sparql.Source) http.Handler { return NewHandler(src, nil) }

// NewHandler serves GET/POST /sparql?query=... over src. When reg is
// non-nil every request is counted and traced: a "sparql_query" trace
// with parse/eval/encode stage spans (a result-cache hit has only the
// encode span) lands in the registry's recent ring (visible at
// /debug/applab), stage latencies feed the
// endpoint_stage_seconds histogram, and the trace rides the request
// context so downstream sources can attach their own spans. Timestamps
// come from the registry's clock, so with a fake clock every stage
// duration is exact.
func NewHandler(src sparql.Source, reg *telemetry.Registry) http.Handler {
	return NewHandlerOpts(src, reg, Options{})
}

// Options configures the overload-protection behaviour of the handler.
// The zero value serves every request with no admission control and no
// budgets — the historic behaviour.
type Options struct {
	// Admission, when set, gates every query: beyond MaxInflight
	// concurrent evaluations requests queue FIFO, and beyond the queue
	// (or past the queue deadline) they are shed with 503 + Retry-After.
	Admission *admission.Controller
	// Limits is the per-query budget (deadline, result rows,
	// intermediate rows, federation fan-out). Zero disables budgets.
	Limits admission.Limits
	// Degraded, when set, is the fallback source for shed requests —
	// typically a snapshot or cache-backed view (like -serve-stale)
	// that answers without touching live upstreams. A shed request whose
	// query the degraded source can evaluate gets 200 with an
	// X-Applab-Degraded header instead of 503.
	Degraded sparql.Source
	// After is the budget-deadline clock hook (time.After when nil);
	// tests drive it from a faults.Clock.
	After func(time.Duration) <-chan time.Time
	// Cache, when set, is the text-keyed result cache, consulted with
	// the query text before it is parsed: a hit is served without a
	// parse, and a miss is parsed, evaluated and offered to the cache.
	// Responses to a query that parsed carry X-Applab-Cache:
	// hit|miss|stale; shed requests may be answered from an invalidated
	// entry (stale) before falling back to the Degraded source.
	Cache *rescache.Cache
}

// PartialEvaluator is a retired capability: nothing implements it and
// the handler does not look for it, because an answer says it is
// partial itself (sparql.Results.Partial). The benchmark's copy of the
// handler still names it.
type PartialEvaluator interface {
	EvalPartialContext(ctx context.Context, query string) (*sparql.Results, bool, error)
}

// Refresher is sparql.Refresher, which the engine, not the handler,
// calls; the benchmark's copy of the handler still names it here.
type Refresher = sparql.Refresher

// maxQueryBytes bounds a POSTed query body. It matches
// http.DefaultMaxHeaderBytes, which already bounds a GET ?query=.
const maxQueryBytes = 1 << 20

// maxErrorBodyBytes bounds how much of a member's non-200 body an error
// message quotes.
const maxErrorBodyBytes = 512

// NewHandlerOpts is NewHandler with overload protection: an admission
// controller in front of evaluation, a per-query budget threaded into
// sparql.EvalContext, structured JSON errors for shed/evicted/over-
// budget queries, and an optional degraded (stale-capable) source for
// requests that would otherwise be shed.
func NewHandlerOpts(src sparql.Source, reg *telemetry.Registry, opts Options) http.Handler {
	requests := reg.Counter("endpoint_requests_total")
	failed := reg.Counter("endpoint_errors_total")
	degraded := reg.Counter("endpoint_degraded_total")
	partialCount := reg.Counter("endpoint_partial_total")
	stageSeconds := func(stage string) *telemetry.Histogram {
		return reg.Histogram("endpoint_stage_seconds", nil, "stage", stage)
	}
	parseSec, evalSec, encodeSec := stageSeconds("parse"), stageSeconds("eval"), stageSeconds("encode")

	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		q := r.URL.Query().Get("query")
		if q == "" && r.Method == http.MethodPost {
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
			if err != nil {
				// A cut-off or oversized body is never evaluated: its
				// prefix could be another valid query.
				failed.Inc()
				status := http.StatusBadRequest
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					status = http.StatusRequestEntityTooLarge
				}
				http.Error(w, "endpoint: reading query body: "+err.Error(), status)
				return
			}
			q = string(body)
		}
		if q == "" {
			failed.Inc()
			http.Error(w, "endpoint: missing query parameter", http.StatusBadRequest)
			return
		}
		if opts.Admission != nil {
			release, aerr := opts.Admission.Acquire(r.Context())
			if aerr != nil {
				// Shed — but a cache-satisfiable query can still be
				// answered from the degraded source without occupying an
				// evaluation slot.
				if res, ok := opts.Cache.LookupStale(q, src); ok {
					degraded.Inc()
					w.Header().Set("X-Applab-Degraded", "stale")
					w.Header().Set("X-Applab-Cache", "stale")
					writeResults(w, res, nil)
					return
				}
				if opts.Degraded != nil {
					if query, perr := sparql.Parse(q); perr == nil {
						if res, derr := query.EvalContext(r.Context(), opts.Degraded); derr == nil {
							degraded.Inc()
							w.Header().Set("X-Applab-Degraded", "stale")
							if res.Partial {
								partialCount.Inc()
								w.Header().Set("X-Applab-Partial", "true")
							}
							writeResults(w, res, nil)
							return
						}
					}
				}
				failed.Inc()
				writeOverload(w, aerr)
				return
			}
			defer release()
		}
		tr := reg.StartTrace("sparql_query")
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
		// respond encodes res under an "encode" span and closes the trace
		// before the first body byte leaves: once a client can read the
		// answer, every counter and histogram of its request is final.
		respond := func(res *sparql.Results, now time.Time) {
			sp := tr.StartSpan("encode", now)
			writeResults(w, res, func() {
				now := reg.Time()
				sp.End(now)
				encodeSec.ObserveDuration(sp.Duration())
				tr.End(reg, now)
			})
		}

		// The cache is keyed on the text as sent, so a hit is served
		// before (and without) a parse; a text that does not parse has
		// no entry and misses. A nil cache bypasses.
		now := reg.Time()
		cached, fill, st := opts.Cache.LookupText(q, src)
		if st == rescache.Hit {
			w.Header().Set("X-Applab-Cache", "hit")
			respond(cached, now)
			return
		}

		sp := tr.StartSpan("parse", now)
		query, err := sparql.Parse(q)
		now = reg.Time()
		sp.End(now)
		parseSec.ObserveDuration(sp.Duration())
		if err != nil {
			failed.Inc()
			tr.End(reg, now)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if st != rescache.Bypass {
			w.Header().Set("X-Applab-Cache", "miss")
		}

		ctx := r.Context()
		if opts.Limits.Enabled() {
			budget := admission.NewBudget(opts.Limits, reg)
			ctx = admission.WithBudget(ctx, budget)
			var stop context.CancelFunc
			ctx, stop = budget.StartDeadline(ctx, opts.After)
			defer stop()
		}

		sp = tr.StartSpan("eval", now)
		res, err := query.EvalContext(ctx, src)
		now = reg.Time()
		sp.End(now)
		evalSec.ObserveDuration(sp.Duration())
		if err != nil {
			failed.Inc()
			tr.End(reg, now)
			if be, ok := admission.AsBudgetError(err); ok {
				writeBudgetError(w, be)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sp.Annotate("rows", strconv.Itoa(len(res.Bindings)))
		if res.Partial {
			partialCount.Inc()
			w.Header().Set("X-Applab-Partial", "true")
		}
		fill.Store(res)
		respond(res, now)
	})
	return mux
}

// encodeJSON writes a (small, error-shaped) JSON response body
// best-effort: a vanished client is not a server error, so the Encode
// result is deliberately discarded.
func encodeJSON(w http.ResponseWriter, v any) {
	_ = json.NewEncoder(w).Encode(v)
}

// writeOverload renders an Acquire rejection: 503 with a Retry-After
// header and a structured JSON error body so clients can distinguish
// door-shed from queue-evicted and schedule their retry.
func writeOverload(w http.ResponseWriter, err error) {
	body := map[string]any{"code": "overloaded", "message": err.Error()}
	if ov, ok := admission.AsOverload(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(ov.RetryAfterSeconds()))
		body["retry_after"] = ov.RetryAfterSeconds()
		if ov.Evicted {
			body["code"] = "evicted"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	encodeJSON(w, map[string]any{"error": body})
}

// writeBudgetError renders a budget violation as a structured SPARQL
// error: 503 with the exhausted dimension and its limit, instead of a
// hang or an opaque 400.
func writeBudgetError(w http.ResponseWriter, be *admission.BudgetError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	encodeJSON(w, map[string]any{"error": map[string]any{
		"code":    "budget_exceeded",
		"kind":    string(be.Kind),
		"limit":   be.Limit,
		"message": be.Error(),
	}})
}

// ResultsJSON renders results in SPARQL-results-JSON form (simplified: no
// typed boolean vs bindings distinction beyond the fields used) as a
// tree for encoding/json. The handler writes the same bytes without the
// tree (results.go); this form serves callers that want the document as
// a value.
func ResultsJSON(res *sparql.Results) map[string]any {
	bindings := make([]map[string]any, len(res.Bindings))
	for i, r := range res.Bindings {
		row := map[string]any{}
		for j, t := range r {
			if t == nil {
				continue
			}
			cell := map[string]any{"value": t.Value}
			switch {
			case t.IsIRI():
				cell["type"] = "uri"
			case t.IsBlank():
				cell["type"] = "bnode"
			default:
				cell["type"] = "literal"
				if t.Datatype != "" && t.Datatype != rdf.XSDString {
					cell["datatype"] = t.Datatype
				}
				if t.Lang != "" {
					cell["xml:lang"] = t.Lang
				}
			}
			row[res.Cols[j]] = cell
		}
		bindings[i] = row
	}
	return map[string]any{
		"head":    map[string]any{"vars": res.Vars},
		"results": map[string]any{"bindings": bindings},
		"boolean": res.Bool,
	}
}

// resultCell is one cell of a SPARQL JSON results binding.
type resultCell struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang"`
	Datatype string `json:"datatype"`
}

// term converts the cell back to a term.
func (c *resultCell) term() rdf.Term {
	switch c.Type {
	case "uri":
		return rdf.NewIRI(c.Value)
	case "bnode":
		return rdf.NewBlank(c.Value)
	default:
		if c.Lang != "" {
			return rdf.NewLangLiteral(c.Value, c.Lang)
		}
		if c.Datatype != "" {
			return rdf.NewTypedLiteral(c.Value, c.Datatype)
		}
		return rdf.NewLiteral(c.Value)
	}
}

// RemoteSource implements sparql.Source against a remote SPARQL endpoint:
// each Match becomes a SELECT over the corresponding triple pattern. It is
// the client side of Handler, and the member type used by the federation
// engine.
type RemoteSource struct {
	// URL is the endpoint URL (".../sparql").
	URL string
	// HTTP is the transport; http.DefaultClient when nil.
	HTTP *http.Client
	// Timeout bounds each pattern request; 0 means no deadline. The
	// federation engine adds its own per-member budget on top, but a
	// transport-level deadline keeps abandoned requests from pinning
	// connections forever.
	Timeout time.Duration
}

// NewRemoteSource returns a source for the endpoint at base (the handler
// path "/sparql" is appended when missing).
func NewRemoteSource(base string) *RemoteSource {
	if !strings.HasSuffix(base, "/sparql") {
		base = strings.TrimSuffix(base, "/") + "/sparql"
	}
	return &RemoteSource{URL: base}
}

// Fingerprint implements rescache.Fingerprinter. A remote endpoint has
// no observable data epoch, so cache entries over a RemoteSource are
// TTL-bounded only; the URL is identity enough for that.
func (r *RemoteSource) Fingerprint() string {
	return "remote:" + r.URL
}

func (r *RemoteSource) httpClient() *http.Client {
	if r.HTTP != nil {
		return r.HTTP
	}
	return http.DefaultClient
}

// Match implements sparql.Source by querying the remote endpoint. Errors
// surface as empty results (the Source interface has no error channel);
// use MatchErr when the failure matters (the federation engine does) or
// Probe to check connectivity.
func (r *RemoteSource) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, err := r.MatchErr(s, p, o)
	if err != nil {
		return nil
	}
	return triples
}

// MatchErr implements sparql.ErrorSource: Match with transport, HTTP and
// decode failures surfaced instead of swallowed into empty results.
func (r *RemoteSource) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return r.MatchContext(context.Background(), s, p, o)
}

// MatchContext implements sparql.ContextSource: the pattern request
// rides ctx (on top of the per-request Timeout), so a cancelled or
// over-budget federated query aborts its member requests in flight. An
// answer the endpoint marks X-Applab-Partial or X-Applab-Degraded marks
// ctx's scatter.Tally partial, so the evaluation reading it says so too.
func (r *RemoteSource) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	q := patternQuery(s, p, o)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL+"?query="+url.QueryEscape(q), nil)
	if err != nil {
		return nil, fmt.Errorf("endpoint: %s: %v", r.URL, err)
	}
	if r.Timeout > 0 {
		tctx, cancel := context.WithTimeout(req.Context(), r.Timeout)
		defer cancel()
		req = req.WithContext(tctx)
	}
	resp, err := r.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("endpoint: query %s: %v", r.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
		return nil, fmt.Errorf("endpoint: query %s: %s: %s", r.URL, resp.Status, body)
	}
	for _, h := range []string{"X-Applab-Partial", "X-Applab-Degraded"} {
		if v := resp.Header.Get(h); v != "" {
			scatter.FromContext(ctx).MarkPartial(fmt.Errorf("endpoint: %s answered %s: %s", r.URL, h, v))
			break
		}
	}
	var doc struct {
		Results struct {
			Bindings []map[string]resultCell `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("endpoint: query %s: bad results document: %v", r.URL, err)
	}
	out := make([]rdf.Triple, 0, len(doc.Results.Bindings))
	for _, row := range doc.Results.Bindings {
		t := rdf.Triple{S: s, P: p, O: o}
		if cell, ok := row["s"]; ok {
			t.S = cell.term()
		}
		if cell, ok := row["p"]; ok {
			t.P = cell.term()
		}
		if cell, ok := row["o"]; ok {
			t.O = cell.term()
		}
		out = append(out, t)
	}
	return out, nil
}

// Probe checks that the endpoint answers a trivial query.
func (r *RemoteSource) Probe() error {
	req, err := http.NewRequest(http.MethodGet, r.URL+"?query="+url.QueryEscape("ASK { ?s ?p ?o }"), nil)
	if err != nil {
		return fmt.Errorf("endpoint: probe %s: %v", r.URL, err)
	}
	if r.Timeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), r.Timeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := r.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("endpoint: probe %s: %v", r.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
		return fmt.Errorf("endpoint: probe %s: %s: %s", r.URL, resp.Status, body)
	}
	return nil
}

// patternQuery renders a triple-pattern SELECT for Match.
func patternQuery(s, p, o rdf.Term) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	pos := func(t rdf.Term, v string) string {
		if t.IsZero() {
			sb.WriteString("?" + v + " ")
			return "?" + v
		}
		return t.String()
	}
	ss := pos(s, "s")
	ps := pos(p, "p")
	os := pos(o, "o")
	if ss[0] != '?' && ps[0] != '?' && os[0] != '?' {
		// Fully bound: project a dummy var via ASK-like SELECT.
		return fmt.Sprintf("SELECT ?s WHERE { ?s ?p ?o . FILTER(?s = %s && ?p = %s && ?o = %s) } LIMIT 1", ss, ps, os)
	}
	sb.WriteString("WHERE { " + ss + " " + ps + " " + os + " }")
	return sb.String()
}
