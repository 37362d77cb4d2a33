package main

// workloadSpec is one named traffic mix over one of the three stacks.
// README.md has a paragraph on each.
type workloadSpec struct {
	name, why string
	kind      stackKind
	ingest    bool // a writer runs beside the reads (mat-ingest)

	// rateRPS is the open phase's offered read rate and writeTPS the
	// writer's paced rate in both phases, in triples per second. Both are
	// absolute constants: rateRPS was set once to a quarter to 30% of the
	// closed-phase qps measured on the commit that added the benchmark,
	// writeTPS to what flushes the memtable once per phase. README.md
	// says why, and when to re-measure them.
	rateRPS  float64
	writeTPS float64

	// traceRequests is how many requests the traced pass replays, three
	// times over: fewer where a request costs ten times more.
	traceRequests int

	stream func(seed int64, sz sizes) *stream
}

const (
	browsePool, browseZipf = 2048, 1.1
	otfPool, otfZipf       = 512, 0.9
)

var workloads = []workloadSpec{
	{
		name: "mat-browse", kind: matStack, rateRPS: 180, traceRequests: 250,
		why: "repeated map viewports, Zipf over a pool 8x the result cache: cache, parse and encode do the work, joins and scans little",
		stream: func(seed int64, sz sizes) *stream {
			return pooledStream(seed, browsePool, browseZipf, browseQuery(sz))
		},
	},
	{
		name: "mat-analytic", kind: matStack, rateRPS: 120, traceRequests: 250,
		why: "every request distinct, so the cache never hits: planner, joins, segment scans and the spatial join carry the time",
		stream: func(seed int64, sz sizes) *stream {
			return &stream{seed: seed, distinct: analyticQuery(sz)}
		},
	},
	{
		name: "mat-ingest", kind: matStack, ingest: true, rateRPS: 40, writeTPS: 1024, traceRequests: 80,
		why: "the browse mix on one connection beside one paced writer: every batch advances the epoch and fsyncs under the write lock, the memtable flushes, so read and write costs trade visibly",
		stream: func(seed int64, sz sizes) *stream {
			return pooledStream(seed, browsePool, browseZipf, browseQuery(sz))
		},
	},
	{
		name: "cluster-scatter", kind: clusterStack, rateRPS: 150, traceRequests: 250,
		why: "coordinator and three RF=2 shard nodes over loopback TCP: routed lookups and fan-out joins exercise wire, pool and merge, idle elsewhere",
		stream: func(seed int64, sz sizes) *stream {
			return &stream{seed: seed, distinct: scatterQuery(sz)}
		},
	},
	{
		name: "otf-opendap", kind: otfStack, rateRPS: 55, traceRequests: 250,
		why: "the on-the-fly workflow: Listing 3 through virtual graph, MadIS and OPeNDAP; two grids come from the window cache, one is fetched, and the shipped result cache never validates",
		stream: func(seed int64, sz sizes) *stream {
			return pooledStream(seed, otfPool, otfZipf, otfQuery(sz))
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
