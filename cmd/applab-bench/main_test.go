package main

import (
	"strings"
	"testing"
	"time"

	"applab/internal/obda"
)

func TestScaleConfig(t *testing.T) {
	quick := scaleConfig(true)
	full := scaleConfig(false)
	if quick.e2Scale >= full.e2Scale {
		t.Error("quick scale must be smaller")
	}
	if quick.repeats < 1 || full.repeats < 1 {
		t.Error("repeats must be positive")
	}
	if len(full.e4Rows) == 0 || len(full.e5Obs) == 0 || len(full.e7Sizes) == 0 {
		t.Error("full config has empty sweeps")
	}
}

func TestMappingWithWindowParses(t *testing.T) {
	for _, w := range []int{0, 1, 10, 30} {
		doc := mappingWithWindow(w)
		ms, err := obda.ParseMappings(doc)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if len(ms) != 1 || !strings.Contains(ms[0].Source, "WHERE LAI > 0") {
			t.Errorf("window %d: mapping = %+v", w, ms[0])
		}
	}
}

func TestMedian(t *testing.T) {
	calls := 0
	d, err := median(5, func() error {
		calls++
		time.Sleep(time.Microsecond)
		return nil
	})
	if err != nil || calls != 5 || d <= 0 {
		t.Errorf("median = %v, %v (%d calls)", d, err, calls)
	}
	// repeats < 1 clamps to 1
	calls = 0
	median(0, func() error { calls++; return nil })
	if calls != 1 {
		t.Errorf("clamped repeats ran %d times", calls)
	}
}

func TestViewportTraceStaysInBounds(t *testing.T) {
	for _, tl := range viewportTrace(100, 20, 50) {
		if tl[0] < 0 || tl[0] > 80 || tl[1] < 0 || tl[1] > 80 {
			t.Fatalf("trace point %v out of bounds", tl)
		}
	}
}
