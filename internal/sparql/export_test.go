package sparql

import (
	"context"
	"runtime"
	"testing"
)

// The BGP join variants (engine_variants_test.go) and the Geographica
// spatial-join oracle (spatial_oracle_test.go) live in package
// sparql_test because they run the engine under packages that import
// it; the variants share the person graph and the join query with
// BenchmarkEngine_*.
var (
	EquivGraph     = equivGraph
	BenchSubjects  = benchSubjects
	BenchJoinQuery = benchJoinQuery
	RowsKey        = rowsKey
)

// EvalOneWorker is EvalContext on a single worker, the way
// BenchmarkEngine_BGPJoinCompiled evaluates.
func (q *Query) EvalOneWorker(ctx context.Context, src Source) (*Results, error) {
	return q.evalCtx(ctx, src, 1, parallelThreshold)
}

// eval is evalCtx without a context, on an explicit worker count and
// parallel threshold.
func (q *Query) eval(src Source, workers, threshold int) (*Results, error) {
	return q.evalCtx(context.Background(), src, workers, threshold)
}

// Spatial-join strategies for Force.
const (
	SpatialAuto  = spatialAuto
	SpatialOff   = spatialOff
	SpatialINL   = spatialINL
	SpatialCells = spatialCells
	SpatialStore = spatialStore
)

// Force makes every evaluation in the process run on workers workers
// (<= 0: GOMAXPROCS), fan out from threshold rows (<= 0: the default)
// and use the given spatial-join strategy, until tb ends. Tests that
// force must not run in parallel with each other.
func Force(tb testing.TB, workers, threshold int, spatial string) {
	tb.Helper()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if threshold <= 0 {
		threshold = parallelThreshold
	}
	forced.Store(&forcedEval{workers: workers, threshold: threshold, spatial: spatial})
	tb.Cleanup(func() { forced.Store(nil) })
}
