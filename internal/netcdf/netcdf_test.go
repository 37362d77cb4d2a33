package netcdf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// laiDataset builds a small CF-style LAI grid: time x lat x lon.
func laiDataset(t testing.TB, nt, nlat, nlon int) *Dataset {
	t.Helper()
	d := NewDataset("lai")
	d.Attrs["title"] = "Leaf Area Index"
	d.Attrs["Conventions"] = "CF-1.6"
	d.AddDim("time", nt)
	d.AddDim("lat", nlat)
	d.AddDim("lon", nlon)

	tvals := make([]float64, nt)
	for i := range tvals {
		tvals[i] = float64(i * 10)
	}
	mustAdd(t, d, &Variable{Name: "time", Dims: []string{"time"}, Data: tvals,
		Attrs: map[string]string{"units": "days since 2018-01-01"}})

	lats := make([]float64, nlat)
	for i := range lats {
		lats[i] = 48 + 0.01*float64(i)
	}
	mustAdd(t, d, &Variable{Name: "lat", Dims: []string{"lat"}, Data: lats,
		Attrs: map[string]string{"units": "degrees_north"}})

	lons := make([]float64, nlon)
	for i := range lons {
		lons[i] = 2 + 0.01*float64(i)
	}
	mustAdd(t, d, &Variable{Name: "lon", Dims: []string{"lon"}, Data: lons,
		Attrs: map[string]string{"units": "degrees_east"}})

	data := make([]float64, nt*nlat*nlon)
	for i := range data {
		data[i] = float64(i % 11)
	}
	mustAdd(t, d, &Variable{Name: "LAI", Dims: []string{"time", "lat", "lon"}, Data: data,
		Attrs: map[string]string{"units": "m2/m2", "long_name": "leaf area index"}})
	return d
}

func mustAdd(t testing.TB, d *Dataset, v *Variable) {
	t.Helper()
	if err := d.AddVar(v); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetShapeAndAt(t *testing.T) {
	d := laiDataset(t, 3, 4, 5)
	v, ok := d.Var("LAI")
	if !ok {
		t.Fatal("no LAI var")
	}
	shape := v.Shape(d)
	if shape[0] != 3 || shape[1] != 4 || shape[2] != 5 {
		t.Fatalf("shape = %v", shape)
	}
	// row-major: index (t,y,x) = t*20 + y*5 + x
	got, err := v.At(d, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := float64((1*20 + 2*5 + 3) % 11)
	if got != want {
		t.Errorf("At = %v, want %v", got, want)
	}
	if _, err := v.At(d, 5, 0, 0); err == nil {
		t.Error("out-of-range index must error")
	}
	if _, err := v.At(d, 1, 2); err == nil {
		t.Error("wrong rank must error")
	}
}

func TestAddVarValidation(t *testing.T) {
	d := NewDataset("x")
	d.AddDim("a", 3)
	if err := d.AddVar(&Variable{Name: "v", Dims: []string{"nope"}, Data: []float64{1}}); err == nil {
		t.Error("unknown dimension must error")
	}
	if err := d.AddVar(&Variable{Name: "v", Dims: []string{"a"}, Data: []float64{1, 2}}); err == nil {
		t.Error("shape mismatch must error")
	}
	if err := d.AddVar(&Variable{Name: "v", Dims: []string{"a"}, Data: []float64{1, 2, 3}}); err != nil {
		t.Errorf("valid var rejected: %v", err)
	}
}

func TestSubset(t *testing.T) {
	d := laiDataset(t, 4, 6, 8)
	sub, err := d.Subset("LAI", []Range{
		{Start: 1, Stride: 1, Stop: 2}, // 2 times
		{Start: 0, Stride: 2, Stop: 4}, // lats 0,2,4
		{Start: 3, Stride: 1, Stop: 5}, // lons 3,4,5
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sub.Var("LAI")
	shape := v.Shape(sub)
	if shape[0] != 2 || shape[1] != 3 || shape[2] != 3 {
		t.Fatalf("subset shape = %v", shape)
	}
	// Spot check values against the original.
	orig, _ := d.Var("LAI")
	for ti, origT := range []int{1, 2} {
		for yi, origY := range []int{0, 2, 4} {
			for xi, origX := range []int{3, 4, 5} {
				want, _ := orig.At(d, origT, origY, origX)
				got, _ := v.At(sub, ti, yi, xi)
				if got != want {
					t.Fatalf("subset[%d,%d,%d] = %v, want %v", ti, yi, xi, got, want)
				}
			}
		}
	}
	// Coordinate variables must be subset too.
	lat, ok := sub.Var("lat")
	if !ok || len(lat.Data) != 3 {
		t.Fatalf("lat coord = %+v", lat)
	}
	if lat.Data[1] != 48.02 {
		t.Errorf("lat[1] = %v", lat.Data[1])
	}
	// errors
	if _, err := d.Subset("nope", nil); err == nil {
		t.Error("unknown variable must error")
	}
	if _, err := d.Subset("LAI", []Range{FullRange(4)}); err == nil {
		t.Error("wrong rank must error")
	}
	if _, err := d.Subset("LAI", []Range{{0, 1, 10}, FullRange(6), FullRange(8)}); err == nil {
		t.Error("out-of-range must error")
	}
}

func TestTimeValues(t *testing.T) {
	d := laiDataset(t, 3, 2, 2)
	times, err := d.TimeValues()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2018, 1, 11, 0, 0, 0, 0, time.UTC)
	if !times[1].Equal(want) {
		t.Errorf("times[1] = %v, want %v", times[1], want)
	}
}

func TestParseCFTimeUnits(t *testing.T) {
	base, step, err := ParseCFTimeUnits("hours since 2018-06-01T00:00:00Z")
	if err != nil || step != time.Hour || base.Month() != 6 {
		t.Errorf("hours: %v %v %v", base, step, err)
	}
	if _, _, err := ParseCFTimeUnits("fortnights since 2018-01-01"); err == nil {
		t.Error("unknown unit must error")
	}
	if _, _, err := ParseCFTimeUnits("days after 2018-01-01"); err == nil {
		t.Error("missing 'since' must error")
	}
	if _, _, err := ParseCFTimeUnits("days since someday"); err == nil {
		t.Error("bad origin must error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d := laiDataset(t, 3, 4, 5)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != d.Name {
		t.Errorf("name = %q", back.Name)
	}
	if back.Attrs["title"] != "Leaf Area Index" {
		t.Errorf("attrs = %v", back.Attrs)
	}
	if len(back.Dims) != 3 || len(back.Vars) != 4 {
		t.Fatalf("dims=%d vars=%d", len(back.Dims), len(back.Vars))
	}
	ov, _ := d.Var("LAI")
	bv, _ := back.Var("LAI")
	for i := range ov.Data {
		if ov.Data[i] != bv.Data[i] {
			t.Fatalf("data[%d] = %v vs %v", i, bv.Data[i], ov.Data[i])
		}
	}
	if bv.Attrs["units"] != "m2/m2" {
		t.Errorf("var attrs = %v", bv.Attrs)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := Read(bytes.NewReader([]byte("AN"))); err == nil {
		t.Error("short input must error")
	}
	// Truncated valid prefix
	d := laiDataset(t, 2, 2, 2)
	var buf bytes.Buffer
	Write(&buf, d)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream must error")
	}
}

// Property: round trip preserves every value including NaN and infinities.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			vals = []float64{0}
		}
		d := NewDataset("p")
		d.AddDim("n", len(vals))
		if err := d.AddVar(&Variable{Name: "v", Dims: []string{"n"}, Data: vals}); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		bv, _ := back.Var("v")
		for i := range vals {
			a, b := vals[i], bv.Data[i]
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The encoding is a wire and file format: Write must keep producing
// these bytes. The small dataset covers sorted attributes, a negative
// zero, an infinity and a NaN; the larger one's values span many
// scratch-array chunks and are pinned by digest.
func TestWriteGolden(t *testing.T) {
	d := NewDataset("ba300")
	d.Attrs["title"] = "Burnt Area"
	d.Attrs["Conventions"] = "CF-1.6"
	d.AddDim("time", 2)
	d.AddDim("lat", 3)
	mustAdd(t, d, &Variable{Name: "time", Dims: []string{"time"}, Data: []float64{0, 10},
		Attrs: map[string]string{"units": "days since 2018-06-01"}})
	mustAdd(t, d, &Variable{Name: "BA", Dims: []string{"time", "lat"},
		Data: []float64{0.5, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-300, -7}})
	const golden = "414e4331000000056261333030000000020000000b436f6e76656e74696f6e73" +
		"0000000643462d312e36000000057469746c650000000a4275726e7420417265" +
		"61000000020000000474696d6500000002000000036c61740000000300000002" +
		"0000000474696d65000000010000000474696d650000000100000005756e6974" +
		"7300000015646179732073696e636520323031382d30362d3031000000000000" +
		"000200000000000000004024000000000000000000024241000000020000000474" +
		"696d65000000036c61740000000000000000000000063fe00000000000008000" +
		"0000000000007ff00000000000007ff800000000000101a56e1fc2f8f359c01c" +
		"000000000000"
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, golden)
	}

	buf.Reset()
	if err := Write(&buf, laiDataset(t, 5, 17, 13)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if n, got := buf.Len(), hex.EncodeToString(sum[:]); n != 9502 ||
		got != "185ba5fd1e65c71f0aaa8b9125f59173080456856b02f8bb0d446cfbf9dc71c3" {
		t.Fatalf("encoding of a 1,105-value grid changed: %d bytes, sha256 %s", n, got)
	}
}

// Write allocates per call and per attribute map, never per value: a
// grid of 10,880 values costs what one of 36 does.
func TestWriteAllocations(t *testing.T) {
	small, large := laiDataset(t, 1, 6, 6), laiDataset(t, 10, 32, 34)
	allocs := func(d *Dataset) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := Write(io.Discard, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	s, l := allocs(small), allocs(large)
	t.Logf("Write: %.0f allocs (36 values), %.0f allocs (10,880 values)", s, l)
	if l != s || l > 8 {
		t.Fatalf("Write allocates %.0f times for 10,880 values, %.0f for 36; want equal and <= 8", l, s)
	}
}
