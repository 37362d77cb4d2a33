package opendap

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"applab/internal/netcdf"
)

// ctx is the caller's context of the package's tests: none is cancelled.
var ctx = context.Background()

func testDataset(t testing.TB) *netcdf.Dataset {
	t.Helper()
	d := netcdf.NewDataset("lai")
	d.Attrs["title"] = "Leaf Area Index"
	d.AddDim("time", 4)
	d.AddDim("lat", 10)
	d.AddDim("lon", 10)
	add := func(v *netcdf.Variable) {
		if err := d.AddVar(v); err != nil {
			t.Fatal(err)
		}
	}
	tv := make([]float64, 4)
	for i := range tv {
		tv[i] = float64(i * 10)
	}
	add(&netcdf.Variable{Name: "time", Dims: []string{"time"}, Data: tv,
		Attrs: map[string]string{"units": "days since 2018-01-01"}})
	grid := make([]float64, 4*10*10)
	for i := range grid {
		grid[i] = float64(i)
	}
	add(&netcdf.Variable{Name: "LAI", Dims: []string{"time", "lat", "lon"}, Data: grid,
		Attrs: map[string]string{"units": "m2/m2"}})
	return d
}

func newTestServer(t testing.TB) (*Server, *Client, func()) {
	t.Helper()
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	return srv, NewClient(ts.URL), ts.Close
}

func TestParseConstraint(t *testing.T) {
	cases := []struct {
		in      string
		varName string
		nRanges int
		wantErr bool
	}{
		{"LAI", "LAI", 0, false},
		{"LAI[0:3]", "LAI", 1, false},
		{"LAI[0:2:8][1:5][3]", "LAI", 3, false},
		{"", "", 0, true},
		{"[0:3]", "", 0, true},
		{"LAI[0:3", "", 0, true},
		{"LAI[a:b]", "", 0, true},
		{"LAI[3:1]", "", 0, true},   // stop < start
		{"LAI[0:0:5]", "", 0, true}, // zero stride
		{"LAI[1:2:3:4]", "", 0, true},
	}
	for _, c := range cases {
		got, err := ParseConstraint(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got.Var != c.varName || len(got.Ranges) != c.nRanges {
			t.Errorf("%q parsed as %+v", c.in, got)
		}
		// String round trip
		if got2, err := ParseConstraint(got.String()); err != nil || got2.String() != got.String() {
			t.Errorf("%q: unstable String round trip (%q)", c.in, got.String())
		}
	}
}

func TestDDSAndDASAndNcML(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()

	dds, err := client.DDS(ctx, "lai")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dds, "Float64 LAI[time = 4][lat = 10][lon = 10];") {
		t.Errorf("DDS:\n%s", dds)
	}
	das, err := client.DAS(ctx, "lai")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(das, `String units "m2/m2";`) || !strings.Contains(das, "NC_GLOBAL") {
		t.Errorf("DAS:\n%s", das)
	}
	ncml, err := client.NcML(ctx, "lai")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`<dimension name="time" length="4" />`,
		`<variable name="LAI" shape="time lat lon"`, `<attribute name="title" value="Leaf Area Index" />`} {
		if !strings.Contains(ncml, want) {
			t.Errorf("NcML missing %q:\n%s", want, ncml)
		}
	}
}

func TestCatalogAndErrors(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()
	names, err := client.Catalog(ctx)
	if err != nil || len(names) != 1 || names[0] != "lai" {
		t.Fatalf("catalog = %v, %v", names, err)
	}
	if _, err := client.DDS(ctx, "nope"); err == nil {
		t.Error("missing dataset must 404")
	}
	if _, err := client.Fetch(ctx, "lai", Constraint{Var: "missing"}); err == nil {
		t.Error("missing variable must error")
	}
	if _, err := client.Fetch(ctx, "lai", Constraint{Var: "LAI",
		Ranges: []netcdf.Range{{Start: 0, Stride: 1, Stop: 99}}}); err == nil {
		t.Error("rank mismatch must error")
	}
}

func TestFetchSubset(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()
	ds, err := client.Fetch(ctx, "lai", Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 1, Stride: 1, Stop: 2},
		{Start: 0, Stride: 1, Stop: 4},
		{Start: 5, Stride: 1, Stop: 9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ds.Var("LAI")
	if !ok {
		t.Fatal("no LAI in response")
	}
	shape := v.Shape(ds)
	if shape[0] != 2 || shape[1] != 5 || shape[2] != 5 {
		t.Fatalf("shape = %v", shape)
	}
	// value at (1,0,5) in original = 1*100 + 0*10 + 5 = 105
	got, _ := v.At(ds, 0, 0, 0)
	if got != 105 {
		t.Errorf("value = %v, want 105", got)
	}
	// whole-array fetch
	full, err := client.Fetch(ctx, "lai", Constraint{Var: "LAI"})
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := full.Var("LAI")
	if len(fv.Data) != 400 {
		t.Errorf("full fetch = %d values", len(fv.Data))
	}
}

// TestLatencyEndsWithTheRequest: the server's simulated latency waits on
// the request's context, so a request its client abandoned releases the
// handler at once and closing the server does not wait out the latency.
func TestLatencyEndsWithTheRequest(t *testing.T) {
	srv, client, closeFn := newTestServer(t)
	srv.Latency = 2 * time.Second
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := client.Fetch(cctx, "lai", Constraint{Var: "LAI"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fetch under a 50ms deadline: %v, want context.DeadlineExceeded", err)
	}
	start := time.Now()
	closeFn()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("closing the server took %v: the abandoned handler slept out its latency", d)
	}
}

func TestTileCacheViewport(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()
	tiles := NewTileCache(client, 4)
	tiles.SetShape("lai", "LAI", []int{4, 10, 10})

	// First viewport: time 0, lat/lon [0..5]
	req1 := Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 0, Stride: 1, Stop: 0}, {Start: 0, Stride: 1, Stop: 5}, {Start: 0, Stride: 1, Stop: 5}}}
	ds1, err := tiles.Fetch(ctx, "lai", req1)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := ds1.Var("LAI")
	if len(v1.Data) != 36 {
		t.Fatalf("viewport 1 = %d values", len(v1.Data))
	}
	// Verify values against direct fetch.
	direct, _ := client.Fetch(ctx, "lai", req1)
	dv, _ := direct.Var("LAI")
	for i := range dv.Data {
		if dv.Data[i] != v1.Data[i] {
			t.Fatalf("tile value[%d] = %v, direct = %v", i, v1.Data[i], dv.Data[i])
		}
	}
	miss1 := tiles.Stats().Misses

	// Pan slightly: lat/lon [2..7] — mostly the same tiles.
	req2 := Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 0, Stride: 1, Stop: 0}, {Start: 2, Stride: 1, Stop: 7}, {Start: 2, Stride: 1, Stop: 7}}}
	ds2, err := tiles.Fetch(ctx, "lai", req2)
	if err != nil {
		t.Fatal(err)
	}
	direct2, _ := client.Fetch(ctx, "lai", req2)
	dv2, _ := direct2.Var("LAI")
	v2, _ := ds2.Var("LAI")
	for i := range dv2.Data {
		if dv2.Data[i] != v2.Data[i] {
			t.Fatalf("pan value[%d] = %v, direct = %v", i, v2.Data[i], dv2.Data[i])
		}
	}
	st := tiles.Stats()
	if st.Hits == 0 {
		t.Error("pan must hit cached tiles")
	}
	if st.Misses <= miss1-1 {
		t.Errorf("stats = %+v", st)
	}

	// Edge tile: request touching the array boundary.
	req3 := Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 3, Stride: 1, Stop: 3}, {Start: 8, Stride: 1, Stop: 9}, {Start: 8, Stride: 1, Stop: 9}}}
	ds3, err := tiles.Fetch(ctx, "lai", req3)
	if err != nil {
		t.Fatal(err)
	}
	direct3, _ := client.Fetch(ctx, "lai", req3)
	dv3, _ := direct3.Var("LAI")
	v3, _ := ds3.Var("LAI")
	for i := range dv3.Data {
		if dv3.Data[i] != v3.Data[i] {
			t.Fatalf("edge value[%d] = %v, direct = %v", i, v3.Data[i], dv3.Data[i])
		}
	}
}

func TestExactCacheOnlyHitsIdentical(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()
	exact := NewExactCache(client)
	r1 := Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 0, Stride: 1, Stop: 0}, {Start: 0, Stride: 1, Stop: 5}, {Start: 0, Stride: 1, Stop: 5}}}
	r2 := Constraint{Var: "LAI", Ranges: []netcdf.Range{
		{Start: 0, Stride: 1, Stop: 0}, {Start: 1, Stride: 1, Stop: 6}, {Start: 1, Stride: 1, Stop: 6}}}
	exact.Fetch(ctx, "lai", r1)
	exact.Fetch(ctx, "lai", r1)
	exact.Fetch(ctx, "lai", r2) // overlaps heavily, still a miss
	st := exact.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHitRatio(t *testing.T) {
	if (CacheStats{}).HitRatio() != 0 {
		t.Error("empty stats ratio must be 0")
	}
	if r := (CacheStats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Errorf("ratio = %v", r)
	}
}
