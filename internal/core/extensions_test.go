package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

// seeded start (§8) --------------------------------------------------------

func seededBasic(t *testing.T, b *Bouquet, qa, seed ess.Point) Execution {
	t.Helper()
	return runOn(t, b, Run{QA: qa, Seed: seed})
}

func seededOptimized(t *testing.T, b *Bouquet, qa, seed ess.Point) Execution {
	t.Helper()
	return runOn(t, b, Run{Optimized: true, QA: qa, Seed: seed})
}

func TestSeededBasicSkipsLowContours(t *testing.T) {
	b, _ := compileFor(t, query1D(t), 60, CompileOptions{Lambda: 0.2})
	space := b.Space
	qa := ess.Point{space.Dim(0).Hi * 0.3}
	seed := ess.Point{qa[0] * 0.5} // valid underestimate

	plain := b.RunBasic(qa)
	seeded := seededBasic(t, b, qa, seed)
	if !seeded.Completed {
		t.Fatal("seeded run did not complete")
	}
	if seeded.TotalCost > plain.TotalCost {
		t.Fatalf("seeded cost %g worse than unseeded %g", seeded.TotalCost, plain.TotalCost)
	}
	if seeded.NumExecs() > plain.NumExecs() {
		t.Fatalf("seeded used more executions (%d > %d)", seeded.NumExecs(), plain.NumExecs())
	}
	// With a seed at the origin the runs are identical.
	origin := seededBasic(t, b, qa, space.Origin())
	if origin.TotalCost != plain.TotalCost || origin.NumExecs() != plain.NumExecs() {
		t.Fatal("origin seed should match unseeded run")
	}
}

func TestSeededRunsPreserveGuarantee(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	bound := b.BoundMSO()
	for f := 0; f < space.NumPoints(); f += 3 {
		qa := space.PointAt(f)
		seed := ess.Point{qa[0] * 0.4, qa[1] * 0.7}
		e := seededBasic(t, b, qa, seed)
		if !e.Completed || e.SubOpt() > bound.F()*(1+1e-9) {
			t.Fatalf("seeded basic at %d: completed=%v subopt=%g bound=%g", f, e.Completed, e.SubOpt(), bound)
		}
		eo := seededOptimized(t, b, qa, seed)
		if !eo.Completed {
			t.Fatalf("seeded optimized at %d failed", f)
		}
	}
}

func TestSeededOptimizedCheaperOnAverage(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	var plain, seeded cost.Cost
	for f := 0; f < space.NumPoints(); f++ {
		qa := space.PointAt(f)
		seed := ess.Point{qa[0] * 0.9, qa[1] * 0.9}
		plain += b.RunOptimized(qa).TotalCost
		seeded += seededOptimized(t, b, qa, seed).TotalCost
	}
	if seeded > plain {
		t.Fatalf("tight seeds did not help: %g vs %g", seeded, plain)
	}
}

// negated predicates (§2 axis flip) ----------------------------------------

// negatedFixture: a query whose error dimension is a "col ≥ c" predicate,
// parameterised by passing fraction (the paper's 1−s flip), exercised both
// abstractly and on real rows.
func negatedFixture(t testing.TB) (*Bouquet, *exec.Engine, *data.Database, *query.Query) {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("negq", cat).
		Relation("part").Relation("lineitem").
		NegatedSelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		MustBuild()
	space, err := ess.NewSpace(q, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	db := data.Generate(cat, []string{"part", "lineitem"}, nil, 31)
	// "col ≥ c" passing 10% is "col < c" passing 90%, the way the server
	// binds a negated predicate.
	bound, _ := db.SelectionBound("part", "p_retailprice", 1-0.1)
	eng, err := exec.NewEngine(q, db, cost.Postgres(), map[int]int64{0: bound})
	if err != nil {
		t.Fatal(err)
	}
	return b, eng, db, q
}

func TestNegatedPredicateBouquetBound(t *testing.T) {
	b, _, _, _ := negatedFixture(t)
	space := b.Space
	bound := b.BoundMSO()
	for f := 0; f < space.NumPoints(); f++ {
		e := b.RunBasic(space.PointAt(f))
		if !e.Completed || e.SubOpt() > bound.F()*(1+1e-9) {
			t.Fatalf("negated-dim bouquet at %d: subopt %g bound %g", f, e.SubOpt(), bound)
		}
	}
}

func TestNegatedPredicateExecutionCorrect(t *testing.T) {
	b, eng, db, q := negatedFixture(t)
	// Ground truth via brute force.
	part, li := db.Table("part"), db.Table("lineitem")
	bound, below := db.SelectionBound("part", "p_retailprice", 1-0.1)
	realized := 1 - below
	var want int64
	for i := 0; i < li.NumRows(); i++ {
		p := li.Value(i, "l_partkey")
		if p >= 0 && part.Value(int(p), "p_retailprice") >= bound {
			want++
		}
	}
	for _, pid := range b.PlanIDs {
		res := eng.MustRun(b.Diagram.Plan(pid), exec.Options{})
		if !res.Completed || res.RowsOut != want {
			t.Fatalf("plan %d: rows %d, want %d", pid, res.RowsOut, want)
		}
	}
	// The realized passing fraction is near the target and positive.
	if realized <= 0 || realized > 0.2 {
		t.Fatalf("realized negated selectivity %g", realized)
	}
	_ = q
}

func TestNegatedConcreteBouquetDiscovers(t *testing.T) {
	b, eng, db, _ := negatedFixture(t)
	out := runOn(t, b, Run{Engine: eng})
	if !out.Completed {
		t.Fatal("concrete run over negated predicate failed")
	}
	// Row count cross-check against the engine's own unbudgeted run of
	// the final plan.
	last := out.Steps[len(out.Steps)-1]
	direct := eng.MustRun(b.Diagram.Plan(last.PlanID), exec.Options{})
	if direct.RowsOut != out.ResultRows {
		t.Fatalf("rows %d vs direct %d", out.ResultRows, direct.RowsOut)
	}
	_ = db
}

func TestNegatedIndexScanUsesSuffix(t *testing.T) {
	// An index scan driven by a negated predicate must return exactly
	// the qualifying suffix.
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("negidx", cat).
		Relation("part").
		NegatedSelectionPred("part", "p_retailprice", 0.25, true).
		MustBuild()
	db := data.Generate(cat, []string{"part"}, nil, 41)
	bound, _ := db.SelectionBound("part", "p_retailprice", 1-0.25)
	eng, err := exec.NewEngine(q, db, cost.Postgres(), map[int]int64{0: bound})
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.NewIndexScan("part", "p_retailprice", []int{0})
	idx := eng.MustRun(scan, exec.Options{})
	part := db.Table("part")
	want := int64(part.NumRows()) - part.CountLess("p_retailprice", bound)
	if idx.RowsOut != want {
		t.Fatalf("index scan rows %d, want %d", idx.RowsOut, want)
	}
	// And it matches a sequential scan of the same predicate.
	seq := eng.MustRun(plan.NewSeqScan("part", []int{0}), exec.Options{})
	if seq.RowsOut != idx.RowsOut {
		t.Fatalf("seq %d != idx %d on negated predicate", seq.RowsOut, idx.RowsOut)
	}
}
