package seer

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/query"
)

func fixture(t testing.TB, res int) (*posp.Diagram, [][]cost.Cost) {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("seerq", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		MustBuild()
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		t.Fatal(err)
	}
	coster := cost.NewCoster(q, cost.Postgres())
	opt := optimizer.New(coster)
	d := posp.Generate(opt, space, 0)
	return d, posp.CostMatrix(d, coster, 0)
}

func TestReduceSafety(t *testing.T) {
	d, m := fixture(t, 8)
	rep, err := Reduce(d, m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(rep, m); err != nil {
		t.Fatal(err)
	}
	if rep.Cardinality() == 0 || rep.Cardinality() > d.NumPlans() {
		t.Fatalf("cardinality = %d of %d", rep.Cardinality(), d.NumPlans())
	}
	// Replacement closure: every mapped plan is retained.
	retained := map[int]bool{}
	for _, pid := range rep.Retained {
		retained[pid] = true
	}
	for pid := range rep.Map {
		if !retained[rep.Map[pid]] {
			t.Fatalf("plan %d maps to non-retained %d", pid, rep.Map[pid])
		}
	}
	// Retained plans map to themselves.
	for _, pid := range rep.Retained {
		if rep.Map[pid] != pid {
			t.Fatalf("retained plan %d mapped away", pid)
		}
	}
}

// TestMaxHarmAtMostLambda verifies the paper's SEER guarantee: replacing
// the native choice never hurts by more than λ at any (qe, qa) pair, so
// SEER's MaxHarm against the native worst case is ≤ λ.
func TestMaxHarmAtMostLambda(t *testing.T) {
	d, m := fixture(t, 8)
	const lambda = 0.2
	rep, err := Reduce(d, m, lambda)
	if err != nil {
		t.Fatal(err)
	}
	nat := metrics.NativeAssignment(d)
	seerAssign := metrics.ReplacedAssignment(nat, rep.Map)
	n := d.Space().NumPoints()
	for qe := 0; qe < n; qe++ {
		for qa := 0; qa < n; qa++ {
			native := m[nat[qe]][qa]
			replaced := m[seerAssign[qe]][qa]
			if replaced > native*(1+lambda)*(1+1e-9) {
				t.Fatalf("qe=%d qa=%d: SEER %g > (1+λ)·native %g", qe, qa, replaced, native)
			}
		}
	}
}

func TestReduceShrinksWhenSafe(t *testing.T) {
	d, m := fixture(t, 12)
	loose, err := Reduce(d, m, 10.0) // absurdly permissive: heavy merging
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Reduce(d, m, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Cardinality() > tight.Cardinality() {
		t.Fatalf("looser lambda retained more plans (%d > %d)", loose.Cardinality(), tight.Cardinality())
	}
}

func TestReduceErrors(t *testing.T) {
	d, m := fixture(t, 6)
	if _, err := Reduce(d, m, -0.1); err == nil {
		t.Error("negative lambda should fail")
	}
	sparse := posp.NewDiagram(d.Space())
	if _, err := Reduce(sparse, m, 0.2); err == nil {
		t.Error("sparse diagram should fail")
	}
}

func TestReduceDeterministic(t *testing.T) {
	d, m := fixture(t, 10)
	a, err := Reduce(d, m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reduce(d, m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Retained) != len(b.Retained) {
		t.Fatal("nondeterministic")
	}
	for i := range a.Map {
		if a.Map[i] != b.Map[i] {
			t.Fatal("nondeterministic replacement map")
		}
	}
}

func TestVerifyCatchesUnsafeReplacement(t *testing.T) {
	rep := Replacement{Lambda: 0.2, Map: []int{1, 1}, Retained: []int{1}}
	m := [][]cost.Cost{{100, 100}, {200, 100}} // plan 1 is 2x plan 0 at loc 0
	if err := Verify(rep, m); err == nil {
		t.Fatal("Verify missed an unsafe replacement")
	}
}
