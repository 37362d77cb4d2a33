package sparql

import (
	"math/rand"
	"sort"
	"testing"

	"applab/internal/rdf"
)

// comparatorSort is ORDER BY as it ran before keys were evaluated up
// front: every key evaluated inside the comparator.
func comparatorSort(order []compiledOrder, rows []row) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range order {
			vi, ei := k.expr(rows[i])
			vj, ej := k.expr(rows[j])
			var c int
			switch {
			case ei != nil && ej != nil:
			case ei != nil:
				c = -1
			case ej != nil:
				c = 1
			default:
				var err error
				if c, err = compareTerms(vi, vj); err != nil {
					c = vi.Compare(vj)
				}
			}
			if c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
}

// TestOrderByEvaluatesKeysOnce: tail.sort evaluates each key once per
// row and orders rows exactly as the comparator path did, across ties,
// unbound keys, mixed term types, ASC and DESC.
func TestOrderByEvaluatesKeysOnce(t *testing.T) {
	pool := []rdf.Term{
		rdf.NewInteger(3), rdf.NewInteger(-1), rdf.NewDouble(2.5), rdf.NewDouble(3),
		rdf.NewLiteral("b"), rdf.NewLiteral("a"), rdf.NewLangLiteral("a", "en"),
		rdf.NewTypedLiteral("2019-01-01", rdf.NSXSD+"date"),
		rdf.NewIRI("http://ex.org/x"), rdf.NewIRI("http://ex.org/a"), rdf.NewBlank("b0"),
	}
	vt := newVarTable()
	a, b, id := vt.slot("a"), vt.slot("b"), vt.slot("id")
	rnd := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		rows := make([]row, 1+rnd.Intn(120))
		for i := range rows {
			r := make(row, vt.size())
			for _, s := range []int{a, b} {
				// Few distinct values, so ties are common; one in six unbound.
				if v := rnd.Intn(len(pool) + 2); v < len(pool) {
					r[s] = &pool[v]
				}
			}
			n := rdf.NewInteger(int64(i))
			r[id] = &n
			rows[i] = r
		}
		evals := 0
		counted := func(e compiledExpr) compiledExpr {
			return func(r row) (rdf.Term, error) {
				evals++
				return e(r)
			}
		}
		var order []compiledOrder
		for _, k := range []struct {
			e    Expr
			desc bool
		}{{VarExpr{Name: "a"}, rnd.Intn(2) == 0}, {CallExpr{IRI: "STR", Args: []Expr{VarExpr{Name: "b"}}}, rnd.Intn(2) == 0}} {
			order = append(order, compiledOrder{expr: counted(compileExpr(k.e, vt)), desc: k.desc})
		}
		want := append([]row(nil), rows...)
		comparatorSort(order, want)
		evals = 0
		(&tail{order: order}).sort(rows)
		if evals != len(rows)*len(order) {
			t.Fatalf("round %d: %d key evaluations for %d rows x %d keys", round, evals, len(rows), len(order))
		}
		for i := range rows {
			if rows[i][id] != want[i][id] {
				t.Fatalf("round %d: row %d is %s, the comparator path put %s there", round, i, rows[i][id].Value, want[i][id].Value)
			}
		}
	}
}
