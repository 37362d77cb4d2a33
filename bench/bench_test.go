package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// expectedBenchmarkJSON renders the tables of this package the way
// BENCHMARK.json must list them.
func expectedBenchmarkJSON(runSeconds int) benchmarkJSON {
	want := benchmarkJSON{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonMetric{d.name, d.unit, d.better, nil})
	}
	return want
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := expectedBenchmarkJSON(got.RunSeconds)
	gotText, _ := json.MarshalIndent(got, "", "  ")
	wantText, _ := json.MarshalIndent(want, "", "  ")
	if string(gotText) != string(wantText) {
		t.Fatalf("BENCHMARK.json does not list what bench/ measures; it should read:\n%s", wantText)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]jsonMetric{}, got.EndToEnd...), got.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range got.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
}

// smallConfig runs a workload on tiny data in about a second.
func smallConfig(t *testing.T, spec workloadSpec, seed int64) config {
	cfg := defaultConfig(spec, seed, 1.5, true, t.TempDir())
	cfg.sz, cfg.warmup, cfg.traceRequests = smallSizes, 40, 40
	return cfg
}

// TestSmoke runs all five workloads end to end on tiny data: every
// metric of both tables reported with its unit, finite, and no failed
// operation.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			rep, err := runWorkload(smallConfig(t, spec, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, correct %v: %v", rep.Attempted, rep.Failed, rep.Correct, rep.Errors)
			}
			if rep.Checked == 0 {
				t.Error("the oracle re-derived no answer")
			}
			for _, table := range []struct {
				defs []metricDef
				got  map[string]metric
			}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
				if len(table.got) != len(table.defs) {
					t.Errorf("%d metrics reported, table has %d", len(table.got), len(table.defs))
				}
				for _, d := range table.defs {
					m, ok := table.got[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: reported=%v value=%v unit=%q, want unit %q", d.name, ok, m.Value, m.Unit, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if rep.EndToEnd[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must be positive", d.name, rep.EndToEnd[d.name].Value)
				}
			}
			if spec.kind != clusterStack && rep.PerLayer["cluster.rpcs_per_req"].Value != 0 {
				t.Error("cluster layer did work outside its workload")
			}
			if spec.kind != otfStack && rep.PerLayer["obda.match_ms"].Value != 0 {
				t.Error("obda layer did work outside its workload")
			}
		})
	}
}

// TestStreamDeterminism: the request stream is a function of the seed.
func TestStreamDeterminism(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := spec.stream(1, smallSizes), spec.stream(1, smallSizes), spec.stream(2, smallSizes)
		if a.hash(500) != b.hash(500) {
			t.Errorf("%s: the same seed gave two different streams", spec.name)
		}
		if a.hash(500) == c.hash(500) {
			t.Errorf("%s: two seeds gave the same stream", spec.name)
		}
	}
}

// TestOpenPhaseTimesFromDueTime stalls the server once. Only one request
// is in the server while it stalls, but every request that fell due
// meanwhile must report the wait: a generator that timed from the send
// would show one slow request and hide the rest.
func TestOpenPhaseTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"boolean":true}`)
	}))
	defer srv.Close()
	cl := newHTTPClient(srv.URL)
	defer cl.close()
	src := &source{stream: &stream{seed: 1, pool: []string{"ASK {}"}, cdf: []float64{1}}}
	res := openPhase(cl, src, newChecker(), 1, 100, time.Second)
	if res.failed != 0 || len(res.samples) < 90 {
		t.Fatalf("%d samples, %d failed: %v", len(res.samples), res.failed, res.firstErr)
	}
	waited := 0
	for _, s := range res.samples {
		if s > stall/3 {
			waited++
		}
	}
	// At 100 requests/s, 300 ms of stall makes about 30 requests fall due;
	// those due in its first 200 ms waited more than 100 ms.
	if waited < 10 {
		t.Errorf("%d requests report the stall, want at least 10: latency is not measured from the due time", waited)
	}
	if res.backlogMax < 10 {
		t.Errorf("backlog_max %d during a 300 ms stall at 100 requests/s", res.backlogMax)
	}
}
