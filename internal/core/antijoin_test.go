package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/contour"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/posp"
	"repro/internal/query"
)

// antiQuery: orders with no matching high-price part order line — the §2
// existential case. The ESS dimension is the NOT EXISTS pass fraction
// (axis-flipped), alongside an ordinary join dimension.
func antiQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.02)
	return query.NewBuilder("antiq", cat).
		Relation("orders").Relation("lineitem").Relation("part").
		JoinPred("orders", "o_orderkey", "lineitem", "l_orderkey", query.PKFKSel(cat, "orders"), true).
		AntiJoinPred("lineitem", "l_partkey", "part", "p_partkey", 0.3, true).
		MustBuild()
}

func TestAntiJoinQueryBuilds(t *testing.T) {
	q := antiQuery(t)
	if q.Dims() != 2 {
		t.Fatalf("dims = %d", q.Dims())
	}
	p := q.Predicate(1)
	if p.Kind != query.AntiJoin || p.DefaultSel != 0.3 {
		t.Fatalf("anti predicate = %+v", p)
	}
	if got := query.MaxLegalSel(q.Catalog, p); got != 1.0 {
		t.Fatalf("anti max legal sel = %g", got)
	}
}

func TestAntiJoinBuilderValidation(t *testing.T) {
	cat := catalog.TPCHLike(0.02)
	// Inner relation reused by another predicate must be rejected.
	_, err := query.NewBuilder("bad", cat).
		Relation("orders").Relation("lineitem").Relation("part").
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		JoinPred("orders", "o_orderkey", "lineitem", "l_orderkey", query.PKFKSel(cat, "orders"), false).
		AntiJoinPred("lineitem", "l_suppkey", "part", "p_size", 0.5, true).
		Build()
	if err == nil {
		t.Fatal("anti-join inner reuse accepted")
	}
	// Bad pass fraction.
	_, err = query.NewBuilder("bad2", cat).
		Relation("lineitem").Relation("part").
		AntiJoinPred("lineitem", "l_partkey", "part", "p_partkey", 0, true).
		Build()
	if err == nil {
		t.Fatal("zero pass fraction accepted")
	}
}

// TestAntiJoinPCM: with the pass-fraction parameterisation, the optimal
// cost surface stays monotone — the whole point of the axis flip.
func TestAntiJoinPCM(t *testing.T) {
	q := antiQuery(t)
	space, err := ess.NewSpace(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	d := posp.Generate(opt, space, 0)
	if err := contour.CheckPCM(d); err != nil {
		t.Fatal(err)
	}
	// The optimizer actually uses the anti-join operator.
	found := false
	for _, p := range d.Plans() {
		p.Walk(func(n *plan.Node) {
			if n.Op == plan.OpAntiJoin {
				found = true
			}
		})
	}
	if !found {
		t.Fatal("no plan uses the anti-join operator")
	}
}

// TestAntiJoinBouquetBound: Theorem 3 holds over the existential dimension.
func TestAntiJoinBouquetBound(t *testing.T) {
	q := antiQuery(t)
	space, err := ess.NewSpace(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	bound := b.BoundMSO()
	for f := 0; f < space.NumPoints(); f++ {
		e := b.RunBasic(space.PointAt(f))
		if !e.Completed || e.SubOpt() > bound.F()*(1+1e-9) {
			t.Fatalf("anti bouquet at %d: subopt %g bound %g", f, e.SubOpt(), bound)
		}
		eo := b.RunOptimized(space.PointAt(f))
		if !eo.Completed {
			t.Fatalf("optimized anti bouquet failed at %d", f)
		}
	}
}

// concrete anti-join fixture: small tables with a measurable pass fraction.
func antiConcrete(t testing.TB) (*query.Query, *data.Database, *exec.Engine) {
	t.Helper()
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "orders", Card: 2000, TupleWidth: 24,
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 2000},
			{Name: "o_cust", Type: catalog.TypeInt, DistinctCount: 400},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "blocked", Card: 300, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "b_cust", Type: catalog.TypeInt, DistinctCount: 400},
		},
	})
	cat.IndexAllColumns()
	db := data.Generate(cat, nil, nil, 57)
	q := query.NewBuilder("antic", cat).
		Relation("orders").Relation("blocked").
		AntiJoinPred("orders", "o_cust", "blocked", "b_cust", 0.5, true).
		MustBuild()
	eng, err := exec.NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return q, db, eng
}

func TestAntiJoinExecutionCorrect(t *testing.T) {
	_, db, eng := antiConcrete(t)
	// Brute force: orders whose o_cust appears in no blocked row.
	blocked := map[int32]bool{}
	for _, v := range db.Table("blocked").Column("b_cust") {
		blocked[v] = true
	}
	var want int64
	for _, v := range db.Table("orders").Column("o_cust") {
		if !blocked[v] {
			want++
		}
	}
	p := plan.NewAntiJoin(plan.NewSeqScan("orders", nil), "blocked", "b_cust", 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.MustRun(p, exec.Options{})
	if !res.Completed || res.RowsOut != want {
		t.Fatalf("anti join rows = %d, want %d", res.RowsOut, want)
	}
	// PassBy equals the surviving count — the learning signal.
	if res.Stats[p].PassBy[0] != want {
		t.Fatalf("PassBy = %d, want %d", res.Stats[p].PassBy[0], want)
	}
}

func TestAntiJoinLearningLowerBound(t *testing.T) {
	_, db, eng := antiConcrete(t)
	p := plan.NewAntiJoin(plan.NewSeqScan("orders", nil), "blocked", "b_cust", 0)
	full := eng.MustRun(p, exec.Options{})
	truePass := float64(full.RowsOut) / float64(db.Table("orders").NumRows())
	for _, frac := range []float64{0.2, 0.5, 0.9} {
		res := eng.MustRun(p, exec.Options{Budget: full.CostUsed.Scale(cost.Ratio(frac))})
		implied := float64(res.Stats[p].PassBy[0]) / float64(db.Table("orders").NumRows())
		if implied > truePass*(1+1e-9) {
			t.Fatalf("frac %g: implied pass %g exceeds true %g", frac, implied, truePass)
		}
	}
}

func TestAntiJoinConcreteBouquet(t *testing.T) {
	q, db, eng := antiConcrete(t)
	space, err := ess.NewSpaceWithDims(q, []ess.Dim{{PredID: 0, Lo: 0.01, Hi: 1.0, Res: 16}})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	out := runOn(t, b, Run{Engine: eng})
	if !out.Completed {
		t.Fatal("concrete anti bouquet failed")
	}
	// Result matches an unbudgeted direct execution.
	direct := eng.MustRun(b.Diagram.Plan(out.Steps[len(out.Steps)-1].PlanID), exec.Options{})
	if direct.RowsOut != out.ResultRows {
		t.Fatalf("rows %d vs direct %d", out.ResultRows, direct.RowsOut)
	}
	oo := runOn(t, b, Run{Optimized: true, Engine: eng})
	if !oo.Completed || oo.ResultRows != out.ResultRows {
		t.Fatalf("optimized concrete anti: completed=%v rows=%d want %d", oo.Completed, oo.ResultRows, out.ResultRows)
	}
	_ = db
}
