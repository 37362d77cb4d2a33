package obda

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/sparql"
)

const adaptiveQuery = `
SELECT ?s ?lai WHERE { ?s lai:lai ?lai }`

func canonRows(res *sparql.Results) []string {
	var rows []string
	for i := range res.Bindings {
		b := res.Binding(i)
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		row := ""
		for _, k := range keys {
			row += k + "=" + b[k].Key() + ";"
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	return rows
}

func newAdaptive(t *testing.T, promoteAfter int, revalidate time.Duration) (*AdaptiveGraph, *OpendapAdapter, *opendap.Server, func()) {
	t.Helper()
	db, adapter, srv, closeFn := laiServer(t, 0)
	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	ag := NewAdaptiveGraph(NewVirtualGraph(db, ms), adapter, promoteAfter, revalidate)
	return ag, adapter, srv, closeFn
}

func TestAdaptivePromotionCollapsesUpstreamCalls(t *testing.T) {
	ag, adapter, srv, closeFn := newAdaptive(t, 2, time.Hour)
	defer closeFn()
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	ag.SetClock(func() time.Time { return clock })

	res1, err := ag.Query(adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Promoted() {
		t.Fatalf("promoted after one use")
	}
	if _, err := ag.Query(adaptiveQuery); err != nil { // 2nd use: triggers promotion
		t.Fatal(err)
	}
	ag.Quiesce()
	if !ag.Promoted() {
		t.Fatalf("not promoted after threshold")
	}

	// Steady state: queries run locally with zero upstream calls, even
	// after the window cache would have expired.
	calls := adapter.PhysicalCalls()
	clock = clock.Add(30 * time.Minute) // well past the 10-minute window
	for i := 0; i < 5; i++ {
		res, err := ag.Query(adaptiveQuery)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(canonRows(res)) != fmt.Sprint(canonRows(res1)) {
			t.Fatalf("local answer differs from virtual answer")
		}
	}
	// The engine scans the graph itself (as a served stack does) by
	// reference, from the local copy.
	var _ sparql.RefSource = ag
	res, err := sparql.Eval(ag, adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(canonRows(res)) != fmt.Sprint(canonRows(res1)) {
		t.Fatalf("engine answer over the promoted graph differs from the virtual answer")
	}
	if got := adapter.PhysicalCalls(); got != calls {
		t.Fatalf("promoted serving hit upstream: %d -> %d", calls, got)
	}
	_ = srv
}

func TestAdaptiveDemotionOnUpstreamChange(t *testing.T) {
	ag, adapter, srv, closeFn := newAdaptive(t, 1, time.Minute)
	defer closeFn()
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	ag.SetClock(func() time.Time { return clock })

	if _, err := ag.Query(adaptiveQuery); err != nil {
		t.Fatal(err)
	}
	ag.Quiesce()
	if !ag.Promoted() {
		t.Fatalf("not promoted")
	}
	epochPromoted := ag.DataEpoch()

	// Upstream content changes; within the revalidation window nothing
	// notices.
	publishLai(t, srv, 9.0)
	if !ag.Promoted() {
		t.Fatalf("demoted before revalidation was due")
	}

	// Past the revalidation window (and past the mapping's 10-minute
	// window cache, so the virtual path really refetches): the stamp
	// differs, the region is demoted, and the next query goes back to
	// the virtual path.
	clock = clock.Add(12 * time.Minute)
	if ag.Promoted() {
		t.Fatalf("still promoted after upstream drift")
	}
	if ag.DataEpoch() == epochPromoted {
		t.Fatalf("demotion did not move the epoch")
	}
	calls := adapter.PhysicalCalls()
	res, err := ag.Query(adaptiveQuery) // virtual again: refetches
	if err != nil {
		t.Fatal(err)
	}
	if adapter.PhysicalCalls() == calls {
		t.Fatalf("demoted query did not refetch upstream")
	}
	// The fresh answer reflects the new upstream content (all cells 9.0).
	for i := range res.Bindings {
		b := res.Binding(i)
		if f, ok := b["lai"].Float(); !ok || f != 9.0 {
			t.Fatalf("post-demotion answer is stale: %v", b["lai"])
		}
	}

	// Usage re-accumulates and the region re-promotes with fresh data.
	ag.Quiesce() // the query above was use #1 with PromoteAfter=1
	if !ag.Promoted() {
		t.Fatalf("re-promotion failed")
	}
	local, err := ag.Query(adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local.Bindings {
		b := local.Binding(i)
		if f, _ := b["lai"].Float(); f != 9.0 {
			t.Fatalf("re-promoted copy is stale: %v", b["lai"])
		}
	}
}

func TestAdaptiveStampErrorKeepsServingLocal(t *testing.T) {
	ag, adapter, _, closeFn := newAdaptive(t, 1, time.Minute)
	defer closeFn()
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	ag.SetClock(func() time.Time { return clock })
	stampErr := error(nil)
	ag.StampFn = func(region string) (string, error) {
		if stampErr != nil {
			return "", stampErr
		}
		return "v1", nil
	}

	if _, err := ag.Query(adaptiveQuery); err != nil {
		t.Fatal(err)
	}
	ag.Quiesce()
	if !ag.Promoted() {
		t.Fatalf("not promoted")
	}

	// Upstream unreachable at revalidation time: keep serving the local
	// copy (stale-while-error), zero upstream calls.
	stampErr = errors.New("upstream down")
	clock = clock.Add(2 * time.Minute)
	calls := adapter.PhysicalCalls()
	if !ag.Promoted() {
		t.Fatalf("demoted on stamp error")
	}
	if _, err := ag.Query(adaptiveQuery); err != nil {
		t.Fatal(err)
	}
	if adapter.PhysicalCalls() != calls {
		t.Fatalf("stamp-error serving hit upstream")
	}
}

func TestAdaptiveEpochMovesOnPromotion(t *testing.T) {
	ag, _, _, closeFn := newAdaptive(t, 1, 0)
	defer closeFn()
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	ag.SetClock(func() time.Time { return clock })

	before := ag.DataEpoch()
	if _, err := ag.Query(adaptiveQuery); err != nil {
		t.Fatal(err)
	}
	ag.Quiesce()
	after := ag.DataEpoch()
	if after == before {
		t.Fatalf("promotion did not move the epoch")
	}
	if ag.Fingerprint() == "" {
		t.Fatalf("empty fingerprint")
	}
}

func TestUpstreamStampDetectsChange(t *testing.T) {
	_, adapter, srv, closeFn := newAdaptive(t, 2, 0)
	defer closeFn()
	s1, err := adapter.UpstreamStamp("lai/LAI?w=10")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := adapter.UpstreamStamp("lai/LAI?w=10")
	if err != nil || s1 != s2 {
		t.Fatalf("stamp not stable: %s %s %v", s1, s2, err)
	}
	publishLai(t, srv, 7.5)
	s3, err := adapter.UpstreamStamp("lai/LAI?w=10")
	if err != nil || s3 == s1 {
		t.Fatalf("stamp missed upstream change")
	}
	if _, err := adapter.UpstreamStamp("nonsense"); err == nil {
		t.Fatalf("bad region accepted")
	}
}

// publishLai republishes the lai dataset with every cell set to v.
func publishLai(t *testing.T, srv *opendap.Server, v float64) {
	t.Helper()
	d := netcdf.NewDataset("lai")
	d.AddDim("time", 2)
	d.AddDim("lat", 3)
	d.AddDim("lon", 3)
	add := func(vr *netcdf.Variable) {
		if err := d.AddVar(vr); err != nil {
			t.Fatal(err)
		}
	}
	add(&netcdf.Variable{Name: "time", Dims: []string{"time"}, Data: []float64{0, 10},
		Attrs: map[string]string{"units": "days since 2018-06-01"}})
	add(&netcdf.Variable{Name: "lat", Dims: []string{"lat"}, Data: []float64{48.85, 48.86, 48.87}})
	add(&netcdf.Variable{Name: "lon", Dims: []string{"lon"}, Data: []float64{2.25, 2.26, 2.27}})
	vals := make([]float64, 18)
	for i := range vals {
		vals[i] = v
	}
	add(&netcdf.Variable{Name: "LAI", Dims: []string{"time", "lat", "lon"}, Data: vals})
	srv.Publish(d)
}
