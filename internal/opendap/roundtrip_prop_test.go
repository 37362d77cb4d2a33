package opendap

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/netcdf"
)

// randomDataset builds a small dataset with 1–3 dimensions of size 1–6
// and one data variable, fully determined by rng.
func randomDataset(t *testing.T, rng *rand.Rand, name string) *netcdf.Dataset {
	t.Helper()
	d := netcdf.NewDataset(name)
	nDims := 1 + rng.Intn(3)
	dims := make([]string, nDims)
	total := 1
	for i := range dims {
		dims[i] = fmt.Sprintf("d%d", i)
		size := 1 + rng.Intn(6)
		d.AddDim(dims[i], size)
		total *= size
	}
	data := make([]float64, total)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	if err := d.AddVar(&netcdf.Variable{Name: "V", Dims: dims, Data: data,
		Attrs: map[string]string{"units": "1"}}); err != nil {
		t.Fatal(err)
	}
	return d
}

// randomConstraint picks a valid stride-1 hyperslab of V within the
// dataset's shape.
func randomConstraint(rng *rand.Rand, d *netcdf.Dataset) Constraint {
	v, _ := d.Var("V")
	c := Constraint{Var: "V"}
	for _, size := range v.Shape(d) {
		start := rng.Intn(size)
		stop := start + rng.Intn(size-start)
		c.Ranges = append(c.Ranges, netcdf.Range{Start: start, Stride: 1, Stop: stop})
	}
	return c
}

// sameValues fails unless the fetched dataset's V equals the
// constraint applied locally to ds.
func sameValues(t *testing.T, label string, got, ds *netcdf.Dataset, constraint Constraint) {
	t.Helper()
	want, err := constraint.Apply(ds)
	if err != nil {
		t.Fatalf("%s: local apply: %v", label, err)
	}
	gv, ok := got.Var("V")
	wv, ok2 := want.Var("V")
	if !ok || !ok2 {
		t.Fatalf("%s: variable V missing from result", label)
	}
	if len(gv.Data) != len(wv.Data) {
		t.Fatalf("%s constraint %s: fetched %d values, want %d",
			label, constraint, len(gv.Data), len(wv.Data))
	}
	for i := range gv.Data {
		if gv.Data[i] != wv.Data[i] {
			t.Fatalf("%s constraint %s: value %d = %v, want %v",
				label, constraint, i, gv.Data[i], wv.Data[i])
		}
	}
}

// TestFetchRoundTripProperty checks the end-to-end property: for random
// datasets and random hyperslabs, values fetched over the DAP wire equal
// the constraint applied locally — including when a single transient
// connection fault is injected and absorbed by one retry. A second,
// conditional fetch with the first answer's validator, under its own
// injected fault, reports the answer unchanged, or, when the product was
// republished with other values, returns the new subset and validator.
func TestFetchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20190326))
	for iter := 0; iter < 40; iter++ {
		name := fmt.Sprintf("prod%d", iter)
		ds := randomDataset(t, rng, name)
		srv := NewServer()
		srv.Publish(ds)

		injectFault := iter%2 == 1
		var script *faults.Script
		if injectFault {
			script = faults.FailN(1, faults.Step{Kind: faults.ConnError})
		} else {
			script = faults.Seq()
		}
		ts := httptest.NewServer(srv)
		c := NewClient(ts.URL)
		c.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}
		c.MaxRetries = 1
		c.Sleep = func(time.Duration) {}

		constraint := randomConstraint(rng, ds)
		got, etag, err := c.FetchIfChanged(context.Background(), name, constraint, "")
		if err != nil {
			t.Fatalf("iter %d (fault=%v) constraint %s: %v", iter, injectFault, constraint, err)
		}
		label := fmt.Sprintf("iter %d", iter)
		sameValues(t, label, got, ds, constraint)
		if injectFault && script.Remaining() != 0 {
			t.Fatalf("iter %d: injected fault was not consumed", iter)
		}

		// Revalidate: every third product has changed meanwhile.
		changed := iter%3 == 0
		if changed {
			next := netcdf.NewDataset(name)
			for _, dim := range ds.Dims {
				next.AddDim(dim.Name, dim.Size)
			}
			v, _ := ds.Var("V")
			data := make([]float64, len(v.Data))
			for i, x := range v.Data {
				data[i] = x + 1
			}
			if err := next.AddVar(&netcdf.Variable{Name: "V", Dims: v.Dims, Data: data, Attrs: v.Attrs}); err != nil {
				t.Fatal(err)
			}
			ds = next
			srv.Publish(ds)
		}
		faultKinds := []faults.Step{{Kind: faults.ConnError}, {Kind: faults.Status, Code: 503}, {Kind: faults.Truncate, KeepBytes: 5}}
		script = faults.FailN(iter%2, faultKinds[iter%len(faultKinds)])
		c.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}
		again, etag2, err := c.FetchIfChanged(context.Background(), name, constraint, etag)
		if err != nil {
			t.Fatalf("%s revalidation (changed=%v): %v", label, changed, err)
		}
		if script.Remaining() != 0 {
			t.Fatalf("%s revalidation: injected fault was not consumed", label)
		}
		switch {
		case !changed && (again != nil || etag2 != etag):
			t.Fatalf("%s: unchanged product refetched (dataset %v, validator %q -> %q)", label, again != nil, etag, etag2)
		case changed && (again == nil || etag2 == etag || etag2 == ""):
			t.Fatalf("%s: changed product not refetched (dataset %v, validator %q -> %q)", label, again != nil, etag, etag2)
		case changed:
			sameValues(t, label+" after republish", again, ds, constraint)
		}
		ts.Close()
	}
}
