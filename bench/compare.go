package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles prints one row per workload and metric: both medians, the
// ratio with its base, the bound, and a verdict. The end-to-end metrics
// come first; the timing metrics follow, judged the same way against the
// issue's bound and marked "not gated". It returns an error (the command
// exits non-zero) when an end-to-end metric is worse by more than its
// bound, when a workload's failed share rose, or when the two files were
// not measured by the same benchmark.
//
//	ok          the second file's median is no worse than the first's by more than the bound
//	worse       it is
//	unresolved  the first file's own runs spread wider than the bound, so the
//	            comparison cannot tell a change from noise
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base: %s   against: %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-18s %5s %12s %12s %9s %7s %7s  %s\n",
		"workload", "metric", "runs", "base", "against", "ratio", "spread", "bound", "verdict")
	var bad []string
	for _, spec := range workloads {
		ra, rb := runsOf(a, spec.name), runsOf(b, spec.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if ra[0].RateRPS != rb[0].RateRPS || ra[0].WriteTPS != rb[0].WriteTPS || ra[0].Seconds != rb[0].Seconds {
			// The rates are constants of the benchmark: two files that
			// differ in them were measured by two different benchmarks.
			return fmt.Errorf("%s: the files were measured at different rates or run lengths (%g/%g/%g vs %g/%g/%g): measure the base again with the benchmark that measured the other",
				spec.name, ra[0].RateRPS, ra[0].WriteTPS, ra[0].Seconds, rb[0].RateRPS, rb[0].WriteTPS, rb[0].Seconds)
		}
		for _, table := range []struct {
			defs  []metricDef
			gated bool
			of    func(*report) map[string]metric
		}{
			{endToEnd, true, func(r *report) map[string]metric { return r.EndToEnd }},
			{timing, false, func(r *report) map[string]metric { return r.Timing }},
		} {
			for _, def := range table.defs {
				va, vb := valuesOf(ra, table.of, def.name), valuesOf(rb, table.of, def.name)
				ma, mb := percentile(va, 0.5), percentile(vb, 0.5)
				worsening := (mb - ma) / ma
				if def.better == "higher" {
					worsening = -worsening
				}
				spread := spreadOf(va)
				verdict := "ok"
				switch {
				case spread > def.bound:
					verdict = "unresolved"
				case worsening > def.bound:
					verdict = "worse"
					if table.gated {
						bad = append(bad, spec.name+"/"+def.name)
					}
				}
				if !table.gated {
					verdict += " (not gated)"
				}
				fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %12.4f %12.4f %9.4f %6.1f%% %6.1f%%  %s\n",
					spec.name, def.name, len(va), len(vb), ma, mb, mb/ma, 100*spread, 100*def.bound, verdict)
			}
		}
		fa, fb := failedShare(ra), failedShare(rb)
		fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %12.6f %12.6f\n", spec.name, "failed share", len(ra), len(rb), fa, fb)
		if fb > fa {
			bad = append(bad, spec.name+"/failed share")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse than the base: %v", bad)
	}
	return nil
}

func runsOf(f *reportFile, workload string) []*report {
	var out []*report
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []*report, table func(*report) map[string]metric, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, table(r)[name].Value)
	}
	sort.Float64s(out)
	return out
}

// spreadOf is the distance between the first and third quartile as a
// share of the median; with fewer than four values, the whole range.
func spreadOf(sorted []float64) float64 {
	med := percentile(sorted, 0.5)
	if len(sorted) < 2 || med == 0 {
		return 0
	}
	if len(sorted) < 4 {
		return (sorted[len(sorted)-1] - sorted[0]) / med
	}
	return (percentile(sorted, 0.75) - percentile(sorted, 0.25)) / med
}

func failedShare(runs []*report) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}
