// Command applab-bench regenerates every experiment of EXPERIMENTS.md:
// the quantitative claims of the paper (E1-E7) and the figure-level
// artefacts (F1-F4).
//
// Usage:
//
//	applab-bench -exp all
//	applab-bench -exp e1,e3
//	applab-bench -exp f4 -out paris.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func() error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("applab-bench: ")
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids (e1..e7, f1..f4) or 'all'")
		outPath = flag.String("out", "paris.svg", "output path for F4's SVG")
		quick   = flag.Bool("quick", false, "smaller scales for a fast smoke run")
	)
	flag.Parse()

	cfg := scaleConfig(*quick)
	experiments := []experiment{
		{"e1", "materialized vs on-the-fly query execution (§5: 'two orders of magnitude')", func() error { return runE1(cfg) }},
		{"e2", "Geographica micro suite: Ontop-spatial vs Strabon (§5, [4])", func() error { return runE2(cfg) }},
		{"e3", "OPeNDAP adapter cache window w (Listing 2)", func() error { return runE3(cfg) }},
		{"e4", "GeoTriples sequential vs parallel mapping processor ([22])", func() error { return runE4(cfg) }},
		{"e5", "Strabon indexed spatio-temporal queries vs naive scan ([6,15])", func() error { return runE5(cfg) }},
		{"e6", "index-aligned tile cache vs exact-request cache (mobile viewport, §5)", func() error { return runE6(cfg) }},
		{"e7", "interlinking: cell-index blocking + multi-core vs naive ([25])", func() error { return runE7(cfg) }},
		{"f1", "Figure 1: both workflows wired end-to-end", runF1},
		{"f2", "Figure 2: the LAI ontology (Turtle)", runF2},
		{"f3", "Figure 3: the GADM ontology (Turtle)", runF3},
		{"f4", "Figure 4: the greenness of Paris (SVG)", func() error { return runF4(*outPath) }},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]

	ran := 0
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.id), e.desc)
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		log.Printf("no experiment matched %q", *expFlag)
		os.Exit(2)
	}
}

// scales bundles per-experiment sizes.
type scales struct {
	e1Grid    int // lat/lon cells per side
	e1Times   int
	e2Scale   int // features per dataset
	e4Rows    []int
	e5Obs     []int
	e6Grid    int
	e6Steps   int
	e7Sizes   []int
	repeats   int
	latencyMS int
}

func scaleConfig(quick bool) scales {
	if quick {
		return scales{e1Grid: 8, e1Times: 4, e2Scale: 40,
			e4Rows: []int{500, 2000}, e5Obs: []int{500, 2000},
			e6Grid: 64, e6Steps: 15, e7Sizes: []int{200, 800},
			repeats: 3, latencyMS: 30}
	}
	return scales{e1Grid: 15, e1Times: 4, e2Scale: 120,
		e4Rows: []int{1000, 10000, 50000}, e5Obs: []int{1000, 5000, 20000},
		e6Grid: 200, e6Steps: 50, e7Sizes: []int{500, 2000, 5000},
		repeats: 5, latencyMS: 150}
}
