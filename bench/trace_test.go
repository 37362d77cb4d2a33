package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"applab/internal/endpoint"
	"applab/internal/rescache"
	"applab/internal/sparql"
)

// optionalInterfaces is every interface a consumer of sparql.Source
// discovers by type assertion. A new one belongs in this table, and the
// traced wrappers must then forward it.
var optionalInterfaces = map[string]reflect.Type{
	"sparql.ErrorSource":        reflect.TypeOf((*sparql.ErrorSource)(nil)).Elem(),
	"sparql.ContextSource":      reflect.TypeOf((*sparql.ContextSource)(nil)).Elem(),
	"sparql.StatsSource":        reflect.TypeOf((*sparql.StatsSource)(nil)).Elem(),
	"sparql.SpatialSource":      reflect.TypeOf((*sparql.SpatialSource)(nil)).Elem(),
	"sparql.ExchangeSource":     reflect.TypeOf((*sparql.ExchangeSource)(nil)).Elem(),
	"rescache.Epocher":          reflect.TypeOf((*rescache.Epocher)(nil)).Elem(),
	"rescache.EvalEpocher":      reflect.TypeOf((*rescache.EvalEpocher)(nil)).Elem(),
	"rescache.Fingerprinter":    reflect.TypeOf((*rescache.Fingerprinter)(nil)).Elem(),
	"endpoint.Refresher":        reflect.TypeOf((*endpoint.Refresher)(nil)).Elem(),
	"endpoint.PartialEvaluator": reflect.TypeOf((*endpoint.PartialEvaluator)(nil)).Elem(),
}

// setupSmall builds one workload's stack on tiny data.
func setupSmall(t *testing.T, spec workloadSpec) *run {
	t.Helper()
	r := &run{cfg: smallConfig(t, spec, 3), chk: newChecker()}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.teardown)
	return r
}

// TestTracedSourcesForward: a wrapper has exactly its source's optional
// interfaces, so wrapping cannot change the plan. The one exception is
// PartialEvaluator, which the pipeline replaces by hand (pipeline.eval).
func TestTracedSourcesForward(t *testing.T) {
	for _, spec := range []string{"mat-browse", "cluster-scatter", "otf-opendap"} {
		w, _ := findWorkload(spec)
		r := setupSmall(t, w)
		wrapped, err := traceSource(r.st.src, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for name, iface := range optionalInterfaces {
			inner, outer := reflect.TypeOf(r.st.src).Implements(iface), reflect.TypeOf(wrapped).Implements(iface)
			if name == "endpoint.PartialEvaluator" {
				if outer {
					t.Errorf("%T implements %s: the handler would bypass the wrapper", wrapped, name)
				}
				continue
			}
			if inner != outer {
				t.Errorf("%T implements %s: %v, but its wrapper %T: %v", r.st.src, name, inner, wrapped, outer)
			}
		}
	}
}

// planCounters are the series that show which plan ran.
var planCounters = []string{"sparql_join_strategy_total", "spatial_join_total", "sparql_exchange_scans_total"}

// TestPipelineMatchesHandler: on all five stacks the traced pipeline
// answers every request with the handler's bytes, and evaluating through
// the wrappers moves the plan counters exactly as the handler does.
func TestPipelineMatchesHandler(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			r := setupSmall(t, spec)
			st := r.st
			tr := newTracer()
			traced := &pipeline{opts: st.opts, t: tr}
			if st.kind == clusterStack {
				coord, err := st.coordinator(&tracedTransport{in: st.tr, t: tr})
				if err != nil {
					t.Fatal(err)
				}
				traced.src = tracedCoordinator{coord, tr}
				traced.partial = st.reg.Counter("cluster_partial_total")
			} else {
				src, err := traceSource(st.src, tr)
				if err != nil {
					t.Fatal(err)
				}
				traced.src = src
			}
			var buf bytes.Buffer
			for i := 0; i < 40; i++ {
				q := r.stream.at(i).query
				// A cached answer skips evaluation: empty the cache so both
				// sides evaluate and the counters can be compared.
				st.opts.Cache.Purge()
				before := st.reg.Snapshot()
				if err := r.cl.get(q, &buf); err != nil {
					t.Fatal(err)
				}
				mid := st.reg.Snapshot()
				st.opts.Cache.Purge()
				a, err := traced.serve(context.Background(), i, q)
				if err != nil {
					t.Fatal(err)
				}
				after := st.reg.Snapshot()
				if !bytes.Equal(a.body, buf.Bytes()) {
					t.Fatalf("request %d: pipeline body differs from handler body\n%s\n%s\n%s", i, q, a.body, buf.Bytes())
				}
				for series := range after.Counters {
					for _, family := range planCounters {
						if strings.HasPrefix(series, family) {
							h, p := counterDelta(before, mid, series), counterDelta(mid, after, series)
							if h != p {
								t.Errorf("request %d: %s moved by %v under the handler, %v under the traced pipeline", i, series, h, p)
							}
						}
					}
				}
			}
			if len(tr.spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}
