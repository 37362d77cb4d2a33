// Command bench is the repository's end-to-end serving benchmark: five
// workloads over the three Figure-1 stacks, driven over HTTP from a
// fixed-seed generator, every answer checked, every metric printed by
// name with its unit. BENCHMARK.json at the repository root names the
// command that runs it; README.md in this directory explains the
// workloads, the metrics and how to compare two sets of runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// workRoot holds a run's disk store: the directory run.sh builds into,
// relative to the root of the checkout the command is run from.
const workRoot = ".bench_build"

func mainErr(args []string) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fl.String("workload", "", "workload to run: mat-browse, mat-analytic, mat-ingest, cluster-scatter, otf-opendap, or all")
		seed     = fl.Int64("seed", 1, "seed of the data and request generators")
		seconds  = fl.Float64("seconds", 16, "measured time: half closed phase, half open phase")
		trace    = fl.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		out      = fl.String("out", "", "append the full report of each workload run to this JSON file")
		traceOut = fl.String("trace-out", "", "write the traced pass's spans to this JSON file")
		compare  = fl.Bool("compare", false, "compare two -out files given as arguments, instead of running")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fl.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(os.Stdout, fl.Arg(0), fl.Arg(1))
	}
	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{spec}
	}
	var last *report
	for _, spec := range specs {
		dir := filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
		rep, err := runWorkload(defaultConfig(spec, *seed, *seconds, *trace == 1, dir))
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		printReport(rep)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				return err
			}
		}
		if *traceOut != "" && rep.spans != nil {
			data, err := json.Marshal(rep.spans)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				return err
			}
		}
		last = rep
	}
	return printResult(last, *trace == 1)
}

// printReport lists every metric by name with its unit, for people.
func printReport(rep *report) {
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, %d answers re-derived by the oracle\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.Checked)
	fmt.Printf("  machine: nproc %d GOMAXPROCS %d %s ref_loop %.1f ms; store policy: %s\n",
		rep.Machine.NProc, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, rep.Machine.RefLoopMS, rep.Policy)
	fmt.Printf("  open phase at %g requests/s", rep.RateRPS)
	if rep.WriteTPS > 0 {
		fmt.Printf(", writer at %g triples/s", rep.WriteTPS)
	}
	fmt.Printf("; %d open-phase samples are beyond p99_ms\n", rep.P99Beyond)
	for _, e := range rep.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	tables := []map[string]metric{rep.EndToEnd, rep.PerLayer}
	if rep.PerLayer == nil {
		tables[1] = rep.Timing
	}
	for _, table := range tables {
		names := make([]string, 0, len(table))
		for name := range table {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-34s %14.4f %s\n", name, table[name].Value, table[name].Unit)
		}
	}
}

// printResult writes the driver's line: the last line of standard
// output, with exactly these keys.
func printResult(rep *report, traced bool) error {
	metrics := rep.EndToEnd
	if traced {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// reportFile is what -out accumulates: every run of every workload.
type reportFile struct {
	Runs []*report `json:"runs"`
}

func readReports(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendReport(path string, rep *report) error {
	f, err := readReports(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &reportFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rep)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
