package sparql

import "context"

// The BGP join variants (engine_variants_test.go) live in package
// sparql_test because they wrap the engine in packages that import it;
// they share the person graph and the join query with BenchmarkEngine_*.
var (
	EquivGraph     = equivGraph
	BenchSubjects  = benchSubjects
	BenchJoinQuery = benchJoinQuery
)

// EvalOneWorker is EvalContext on a single worker, the way
// BenchmarkEngine_BGPJoinCompiled evaluates.
func (q *Query) EvalOneWorker(ctx context.Context, src Source) (*Results, error) {
	return q.evalCtx(ctx, src, 1, ParallelThreshold())
}
