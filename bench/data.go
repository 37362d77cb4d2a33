package main

import (
	"fmt"
	"time"

	"applab/internal/drs"
	"applab/internal/geographica"
	"applab/internal/netcdf"
	"applab/internal/rdf"
	"applab/internal/workload"
)

// sizes fixes how much data a stack holds. The full sizes are what the
// rates in workloads.go were calibrated against; the small ones keep
// `go test` in seconds.
type sizes struct {
	features int // per vector dataset (the Geographica scale)
	laiLat   int
	laiLon   int
	laiTimes int
	persons  int // Engine_* person graph subjects, 5 triples each
	cities   int // distinct ex:city values: persons/cities rows per BGP join

	clusterPersons int
	clusterCities  int

	otfLat, otfLon, otfTimes int // per OPeNDAP demo grid
}

var fullSizes = sizes{
	features: 1000, laiLat: 24, laiLon: 30, laiTimes: 24,
	persons: 17600, cities: 128,
	clusterPersons: 6000, clusterCities: 100,
	otfLat: 5, otfLon: 6, otfTimes: 3,
}

var smallSizes = sizes{
	features: 60, laiLat: 6, laiLon: 6, laiTimes: 3,
	persons: 200, cities: 8,
	clusterPersons: 150, clusterCities: 10,
	otfLat: 4, otfLon: 4, otfTimes: 2,
}

// Vocabulary of the Engine_* person graph (cmd/applab-bench/enginebench.go).
const nsEx = "http://ex.org/"

// vectorSet names one Geographica dataset the way geographica.datasetNS
// does (that table is unexported, so it is mirrored here).
type vectorSet struct {
	name, ns, classProp string
}

var vectorSets = []vectorSet{
	{"osm", rdf.NSOSM, rdf.NSOSM + "poiType"},
	{"clc", rdf.NSCLC, rdf.NSCLC + "hasCorineValue"},
	{"ua", rdf.NSUA, rdf.NSUA + "hasClass"},
	{"gadm", rdf.NSGADM, rdf.NSGADM + "hasType"},
}

// laiStart is the time origin of every LAI grid; step laiStep apart.
var laiStart = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

const laiStep = 10 * 24 * time.Hour

// dataset is everything a seed determines about the materialized data.
type dataset struct {
	seed int64
	sz   sizes
	geo  *geographica.Workload
	lai  *netcdf.Dataset
}

func newDataset(seed int64, sz sizes) *dataset {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times, opts.Seed = sz.laiLat, sz.laiLon, sz.laiTimes, seed+7
	return &dataset{
		seed: seed, sz: sz,
		geo: geographica.NewWorkload(sz.features, seed),
		lai: workload.LAIGrid(opts),
	}
}

func (d *dataset) features(name string) []workload.Feature {
	switch name {
	case "osm":
		return d.geo.Parks
	case "clc":
		return d.geo.Corine
	case "ua":
		return d.geo.Urban
	}
	return d.geo.Gadm
}

// materializedTriples is the disk store's content: the four Geographica
// vector datasets, the LAI observations and the person graph.
func (d *dataset) materializedTriples() ([]rdf.Triple, error) {
	var out []rdf.Triple
	for _, vs := range vectorSets {
		out = append(out, workload.FeaturesToRDF(vs.ns, vs.classProp, d.features(vs.name))...)
	}
	obs, err := workload.LAIGridToRDF(d.lai, "LAI")
	if err != nil {
		return nil, err
	}
	out = append(out, obs...)
	return append(out, personTriples(d.sz.persons, d.sz.cities)...), nil
}

// personTriples mirrors engineBenchGraph with a configurable number of
// cities, so a city-bound join returns persons/cities rows.
func personTriples(n, cities int) []rdf.Triple {
	person := rdf.NewIRI(nsEx + "Person")
	a := rdf.NewIRI(rdf.RDFType)
	name, age := rdf.NewIRI(nsEx+"name"), rdf.NewIRI(nsEx+"age")
	city, knows := rdf.NewIRI(nsEx+"city"), rdf.NewIRI(nsEx+"knows")
	out := make([]rdf.Triple, 0, 5*n)
	for i := 0; i < n; i++ {
		s := personIRI(i)
		out = append(out,
			rdf.NewTriple(s, a, person),
			rdf.NewTriple(s, name, rdf.NewLiteral(fmt.Sprintf("n%d", i))),
			rdf.NewTriple(s, age, rdf.NewInteger(int64(20+i%50))),
			rdf.NewTriple(s, city, rdf.NewLiteral(cityName(i%cities))),
			rdf.NewTriple(s, knows, personIRI((i+1)%n)),
		)
	}
	return out
}

func personIRI(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sp%d", nsEx, i)) }

func cityName(i int) string { return fmt.Sprintf("City%d", i) }

// ingestBatch is one mat-ingest write: a new LAI time step's worth of
// observations, dated after every time step a query can name, so read
// answers stay identical to the oracle's. The first triple is the
// batch's marker for the read-your-writes probe.
func ingestBatch(batch, size int) []rdf.Triple {
	at := laiStart.Add(time.Duration(1000+batch) * laiStep)
	typeIRI, obsClass := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.NSLAI+"Observation")
	laiProp, hasTime := rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewIRI(rdf.NSTime+"hasTime")
	hasGeometry, asWKT := rdf.NewIRI(rdf.NSGeo+"hasGeometry"), rdf.NewIRI(rdf.NSGeo+"asWKT")
	out := make([]rdf.Triple, 0, size)
	for i := 0; len(out) < size; i++ {
		id := fmt.Sprintf("%sobs/ingest/%d/%d", rdf.NSLAI, batch, i)
		subj, gnode := rdf.NewIRI(id), rdf.NewIRI(id+"/geom")
		x := workload.ParisExtent.MinX + float64(i%64)*0.003
		y := workload.ParisExtent.MinY + float64(i/64)*0.003
		out = append(out,
			rdf.NewTriple(subj, typeIRI, obsClass),
			rdf.NewTriple(subj, laiProp, rdf.NewDouble(float64(1+(batch+i)%9))),
			rdf.NewTriple(subj, hasTime, rdf.NewDateTime(at)),
			rdf.NewTriple(subj, hasGeometry, gnode),
			rdf.NewTriple(gnode, asWKT, rdf.NewWKT(fmt.Sprintf("POINT (%g %g)", x, y))),
		)
	}
	return out[:size]
}

// otfGrid is one published OPeNDAP dataset of the on-the-fly stack.
type otfGrid struct {
	name, varName string
	subjectPrefix string // under lai:, keeps the three datasets' subjects apart
	predicate     string // lai:<predicate> carries the value
	windowMinutes float64
}

// The cmd/opendapd -demo datasets. The window is the opendap virtual
// table's cache argument: lai and ndvi keep Listing 2's ten minutes,
// ba300 has none, so every evaluation rebuilds the snapshot from two
// cached grids and one fetched one. opendap.window_hit_ratio is then 2/3
// whatever the machine's speed, and opendap and netcdf do work on every
// request.
var otfGrids = []otfGrid{
	{"lai", "LAI", "", "lai", 10},
	{"ndvi", "NDVI", "ndvi/", "ndvi", 10},
	{"ba300", "BA", "ba300/", "ba", 0},
}

func (g otfGrid) dataset(seed int64, sz sizes, i int) *netcdf.Dataset {
	opts := workload.DefaultLAIOptions()
	opts.Name, opts.VarName, opts.Seed = g.name, g.varName, seed+42+int64(i)
	opts.NLat, opts.NLon, opts.Times = sz.otfLat, sz.otfLon, sz.otfTimes
	return drs.AutoAugment(workload.LAIGrid(opts))
}

// otfMappings is Listing 2 once per demo dataset.
func otfMappings() string {
	doc := ""
	for _, g := range otfGrids {
		doc += fmt.Sprintf(`
mappingId	opendap_%[1]s
target		lai:%[2]s{id} rdf:type lai:Observation .
			lai:%[2]s{id} lai:%[3]s {%[4]s}^^xsd:float ;
			time:hasTime {ts}^^xsd:dateTime .
			lai:%[2]s{id} geo:hasGeometry _:g .
			_:g geo:asWKT {loc}^^geo:wktLiteral .
source		SELECT id, %[4]s , ts, loc
			FROM (ordered opendap
			url:https://analytics.ramani.ujuizi.com/thredds/dodsC/%[1]s/%[4]s/, %[5]g)
			WHERE %[4]s > 0
`, g.name, g.subjectPrefix, g.predicate, g.varName, g.windowMinutes)
	}
	return doc
}
