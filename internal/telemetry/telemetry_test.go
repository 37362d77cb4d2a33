package telemetry

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("requests_total") != c {
		t.Fatal("re-registration returned a different handle")
	}
	if got := r.Snapshot().Counters["requests_total"]; got != 5 {
		t.Fatalf("snapshot counter = %d, want 5", got)
	}
}

func TestCounterLabels(t *testing.T) {
	r := NewRegistry()
	// Label order must not matter: both spellings hit one series.
	a := r.Counter("reqs_total", "method", "GET", "code", "200")
	b := r.Counter("reqs_total", "code", "200", "method", "GET")
	if a != b {
		t.Fatal("label order produced distinct series")
	}
	a.Inc()
	key := `reqs_total{code="200",method="GET"}`
	if got := r.Snapshot().Counters[key]; got != 1 {
		t.Fatalf("snapshot[%s] = %d, want 1", key, got)
	}
}

// TestSeriesKeyCompat pins the rendered series keys: labels sorted by
// key (stably), values escaped like the Prometheus text format, and
// invalid UTF-8 in a value that needs escaping replaced by U+FFFD.
func TestSeriesKeyCompat(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		want   string
	}{
		{"plain_total", nil, `plain_total`},
		{"one_total", []string{"code", "200"}, `one_total{code="200"}`},
		{"sorted_total", []string{"z", "1", "a", "2", "m", "3"}, `sorted_total{a="2",m="3",z="1"}`},
		{"dup_total", []string{"k", "first", "a", "x", "k", "second"}, `dup_total{a="x",k="first",k="second"}`},
		{"esc_total", []string{"v", `a\b"c` + "\nd"}, `esc_total{v="a\\b\"c\nd"}`},
		{"utf8_total", []string{"v", "caf\xe9 \"x\""}, `utf8_total{v="caf` + string(utf8.RuneError) + ` \"x\""}`},
		{"raw_total", []string{"v", "caf\xe9"}, "raw_total{v=\"caf\xe9\"}"},
		{"many_total", []string{"j", "9", "i", "8", "h", "7", "g", "6", "f", "5", "e", "4", "d", "3", "c", "2", "b", "1"},
			`many_total{b="1",c="2",d="3",e="4",f="5",g="6",h="7",i="8",j="9"}`},
		{"long_total", []string{"value", strings.Repeat("v", 200)}, `long_total{value="` + strings.Repeat("v", 200) + `"}`},
	}
	r := NewRegistry()
	for _, c := range cases {
		if got := seriesKey(c.name, c.labels); got != c.want {
			t.Errorf("seriesKey(%s, %q) = %q, want %q", c.name, c.labels, got, c.want)
		}
		r.Counter(c.name, c.labels...).Inc()
		if got := r.Snapshot().Counters[c.want]; got != 1 {
			t.Errorf("%s: snapshot has %d under %q", c.name, got, c.want)
		}
	}
}

// TestSeriesLookupAllocations: looking up a series that already exists
// allocates nothing, for every handle kind, at 0, 1 and 2 label pairs.
func TestSeriesLookupAllocations(t *testing.T) {
	r := NewRegistry()
	node := "n1"
	lookups := map[string]func(){
		"counter/0":   func() { r.Counter("rpcs_total").Inc() },
		"counter/1":   func() { r.Counter("rpcs_total", "type", "match").Inc() },
		"counter/2":   func() { r.Counter("errors_total", "node", node, "type", "match").Inc() },
		"gauge/1":     func() { r.Gauge("busy", "node", node).Set(1) },
		"histogram/0": func() { r.Histogram("read_seconds", nil).Observe(0.1) },
		"histogram/2": func() { r.Histogram("read_seconds", nil, "node", node, "type", "match").Observe(0.1) },
	}
	for name, fn := range lookups {
		fn() // registers the series
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per lookup of an existing series, want 0", name, n)
		}
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pool_busy")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
	if got := r.Snapshot().Gauges["pool_busy"]; got != 1 {
		t.Fatalf("snapshot gauge = %v, want 1", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("store_triples", func() float64 { return n })
	if got := r.Snapshot().Gauges["store_triples"]; got != 7 {
		t.Fatalf("gauge func = %v, want 7", got)
	}
	n = 9
	if got := r.Snapshot().Gauges["store_triples"]; got != 9 {
		t.Fatalf("gauge func after update = %v, want 9", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate GaugeFunc registration did not panic")
		}
	}()
	r.GaugeFunc("store_triples", func() float64 { return 0 })
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100) // above the last bound -> +Inf
	h.ObserveDuration(2 * time.Second)
	hs := r.Snapshot().Histograms["latency_seconds"]
	if want := []int64{1, 2, 1}; len(hs.Counts) != 3 || hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] {
		t.Fatalf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Inf != 1 || hs.Count != 5 {
		t.Fatalf("inf=%d count=%d, want 1, 5", hs.Inf, hs.Count)
	}
	if hs.Sum != 0.05+0.5+0.5+100+2 {
		t.Fatalf("sum = %v", hs.Sum)
	}
	// Same buckets re-register fine; nil buckets means DefBuckets.
	if r.Histogram("latency_seconds", []float64{0.1, 1, 10}) != h {
		t.Fatal("re-registration returned a different handle")
	}
	if d := r.Histogram("fetch_seconds", nil); len(d.bounds) != len(DefBuckets) {
		t.Fatalf("nil buckets: got %d bounds, want DefBuckets", len(d.bounds))
	}
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h_one", []float64{1, 2})
	mustPanic(t, "bucket count mismatch", func() { r.Histogram("h_one", []float64{1, 2, 3}) })
	mustPanic(t, "bucket value mismatch", func() { r.Histogram("h_one", []float64{1, 5}) })
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("applab_metric")
	mustPanic(t, "counter as gauge", func() { r.Gauge("applab_metric") })
	mustPanic(t, "counter as histogram", func() { r.Histogram("applab_metric", nil) })
	mustPanic(t, "counter as gauge func", func() { r.GaugeFunc("applab_metric", func() float64 { return 0 }) })
}

func TestNameValidationPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "uppercase", func() { r.Counter("BadName") })
	mustPanic(t, "empty", func() { r.Counter("") })
	mustPanic(t, "hyphen", func() { r.Counter("bad-name") })
	mustPanic(t, "leading digit", func() { r.Counter("9lives") })
	mustPanic(t, "odd labels", func() { r.Counter("oddity", "lonely") })
	mustPanic(t, "bad label key", func() { r.Counter("fine_name", "Bad-Key", "v") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("c_total").Inc()
	r.Gauge("g_now").Set(1)
	r.GaugeFunc("gf_now", func() float64 { return 1 })
	r.Histogram("h_seconds", nil).Observe(1)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if r.RenderText() != "" {
		t.Fatal("nil registry rendered text")
	}
	if r.StartTrace("q") != nil {
		t.Fatal("nil registry produced a trace")
	}
	if r.RecentTraces() != nil {
		t.Fatal("nil registry produced traces")
	}
	// Nil trace/span chains are inert too.
	var tr *Trace
	sp := tr.StartSpan("s", time.Time{})
	sp.Annotate("k", "v")
	sp.End(time.Time{})
	tr.End(nil, time.Time{})
	if tr.Duration() != 0 || sp.Duration() != 0 {
		t.Fatal("nil trace/span reported a duration")
	}
	if v := tr.View(); v.Name != "" || len(v.Spans) != 0 {
		t.Fatalf("nil trace view = %+v", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "q", "a\"b\\c\nd").Inc()
	key := `esc_total{q="a\"b\\c\nd"}`
	if got := r.Snapshot().Counters[key]; got != 1 {
		t.Fatalf("escaped key missing; snapshot = %v", r.Snapshot().Counters)
	}
}

func TestRenderText(t *testing.T) {
	clk := &testClock{t: time.Unix(1000, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	r.Counter("b_total").Add(2)
	r.Counter("a_total", "x", "1").Inc()
	r.Gauge("g_val").Set(1.5)
	r.GaugeFunc("gf_val", func() float64 { return 2 })
	h := r.Histogram("h_seconds", []float64{0.5, 1}, "stage", "eval")
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	got := r.RenderText()
	want := `a_total{x="1"} 1
b_total 2
g_val 1.5
gf_val 2
h_seconds_bucket{stage="eval",le="0.5"} 1
h_seconds_bucket{stage="eval",le="1"} 2
h_seconds_bucket{stage="eval",le="+Inf"} 3
h_seconds_sum{stage="eval"} 3
h_seconds_count{stage="eval"} 3
`
	if got != want {
		t.Fatalf("render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceSpans(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	tr := r.StartTrace("sparql_query")
	sp := tr.StartSpan("parse", clk.Now())
	clk.Advance(10 * time.Millisecond)
	sp.End(clk.Now())
	sp.End(clk.Now().Add(time.Hour)) // second End ignored
	sp.Annotate("patterns", "3")
	ev := tr.StartSpan("eval", clk.Now())
	clk.Advance(40 * time.Millisecond)
	ev.End(clk.Now())
	tr.End(r, clk.Now())
	tr.End(r, clk.Now().Add(time.Hour)) // second End ignored, not re-recorded

	if d := sp.Duration(); d != 10*time.Millisecond {
		t.Fatalf("parse span = %v, want 10ms", d)
	}
	if d := tr.Duration(); d != 50*time.Millisecond {
		t.Fatalf("trace = %v, want 50ms", d)
	}
	views := r.RecentTraces()
	if len(views) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(views))
	}
	v := views[0]
	if v.Name != "sparql_query" || v.Seconds != 0.05 {
		t.Fatalf("trace view = %+v", v)
	}
	if len(v.Spans) != 2 || v.Spans[0].Seconds != 0.01 || v.Spans[1].Seconds != 0.04 {
		t.Fatalf("span views = %+v", v.Spans)
	}
	if len(v.Spans[0].Attrs) != 1 || v.Spans[0].Attrs[0] != (Attr{"patterns", "3"}) {
		t.Fatalf("attrs = %+v", v.Spans[0].Attrs)
	}
}

func TestTraceRingBounded(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	for i := 0; i < maxTraces+5; i++ {
		tr := r.StartTrace("q")
		tr.End(r, clk.Now())
	}
	if got := len(r.RecentTraces()); got != maxTraces {
		t.Fatalf("ring length = %d, want %d", got, maxTraces)
	}
}

func TestOpenTraceView(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	tr := r.StartTrace("open")
	sp := tr.StartSpan("stage", clk.Now())
	_ = sp
	clk.Advance(time.Second)
	v := tr.View() // trace and span still open: zero durations
	if v.Seconds != 0 || v.Spans[0].Seconds != 0 {
		t.Fatalf("open view = %+v", v)
	}
}

func TestContextPropagation(t *testing.T) {
	r := NewRegistry()
	r.Now = func() time.Time { return time.Unix(0, 0) }
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Fatal("empty context carried a trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("nil trace changed the context")
	}
	tr := r.StartTrace("q")
	ctx = WithTrace(ctx, tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not recovered from context")
	}
}

func TestDefaultClock(t *testing.T) {
	r := NewRegistry()
	before := time.Now()
	tr := r.StartTrace("wall")
	if tr.Start.Before(before) {
		t.Fatal("default clock went backwards")
	}
}

func TestHandler(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	r.Counter("hits_total").Inc()
	tr := r.StartTrace("q")
	clk.Advance(time.Second)
	tr.End(r, clk.Now())

	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := res.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(body.String(), "hits_total 1") {
		t.Fatalf("/metrics body = %q", body.String())
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}

	res2, err := srv.Client().Get(srv.URL + "/debug/applab")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var dump struct {
		Metrics Snapshot    `json:"metrics"`
		Traces  []TraceView `json:"traces"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Metrics.Counters["hits_total"] != 1 {
		t.Fatalf("debug counters = %v", dump.Metrics.Counters)
	}
	if len(dump.Traces) != 1 || dump.Traces[0].Name != "q" || dump.Traces[0].Seconds != 1 {
		t.Fatalf("debug traces = %+v", dump.Traces)
	}
}

// testClock is a manual clock for span tests. The faults.Clock of
// internal/faults is not usable here: faults imports sparql, which
// imports telemetry — a test-only import cycle.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
