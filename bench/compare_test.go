package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes an -out file of mat-browse runs with the given
// setup_s values, and qps as much faster as set-up is slower; every other
// metric is 1.
func writeRuns(t *testing.T, rate float64, failed int, setup ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.json")
	for _, v := range setup {
		rep := &report{Workload: "mat-browse", RateRPS: rate, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metric{}, Timing: map[string]metric{}}
		for _, d := range endToEnd {
			rep.EndToEnd[d.name] = metric{Value: 1, Unit: d.unit}
		}
		for _, d := range timing {
			rep.Timing[d.name] = metric{Value: 1, Unit: d.unit}
		}
		rep.EndToEnd["setup_s"] = metric{Value: v, Unit: "s"}
		rep.Timing["qps"] = metric{Value: 1e4 / v, Unit: "1/s"}
		if err := appendReport(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name        string
		base, other string
		wantErr     string // "" for a passing comparison
		wantRow     string // the verdict of the setup_s row, and of the ungated qps row
	}{
		{"same", writeRuns(t, 140, 0, steady...), writeRuns(t, 140, 0, steady...), "", "ok"},
		{"faster", writeRuns(t, 140, 0, steady...), writeRuns(t, 140, 0, 60, 61, 59), "", "ok"},
		{"slower", writeRuns(t, 140, 0, steady...), writeRuns(t, 140, 0, 150, 151, 149), "mat-browse/setup_s", "worse"},
		{"noisy base", writeRuns(t, 140, 0, 60, 80, 100, 120, 140), writeRuns(t, 140, 0, 150, 151, 149), "", "unresolved"},
		{"more failures", writeRuns(t, 140, 0, steady...), writeRuns(t, 140, 1, steady...), "failed share", "ok"},
		{"other rate", writeRuns(t, 140, 0, steady...), writeRuns(t, 100, 0, steady...), "different rates", ""},
	} {
		var out strings.Builder
		err := compareFiles(&out, c.base, c.other)
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
		if c.wantRow == "" {
			continue
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " setup_s ") && !strings.HasSuffix(line, " "+c.wantRow) {
				t.Errorf("%s: row %q, want verdict %s", c.name, line, c.wantRow)
			}
			// A slower qps is reported and never fails the comparison.
			if strings.Contains(line, " qps ") && !strings.HasSuffix(line, " "+c.wantRow+" (not gated)") {
				t.Errorf("%s: row %q, want verdict %s (not gated)", c.name, line, c.wantRow)
			}
		}
	}
}
