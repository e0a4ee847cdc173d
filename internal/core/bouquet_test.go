package core

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/query"
)

// fixtures ----------------------------------------------------------------

func query1D(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.1)
	return query.NewBuilder("core1d", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		MustBuild()
}

func query2D(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.1)
	return query.NewBuilder("core2d", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		MustBuild()
}

func query3D(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.1)
	return query.NewBuilder("core3d", cat).
		Relation("part").Relation("lineitem").Relation("orders").Relation("customer").
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), true).
		JoinPred("orders", "o_custkey", "customer", "c_custkey", query.PKFKSel(cat, "customer"), true).
		MustBuild()
}

func compileFor(t testing.TB, q *query.Query, res int, opts CompileOptions) (*Bouquet, *optimizer.Optimizer) {
	t.Helper()
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, opt
}

// compile-time tests -------------------------------------------------------

func TestCompileStructure(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	if len(b.Contours) != b.Ladder.NumSteps() {
		t.Fatalf("%d contours for %d steps", len(b.Contours), b.Ladder.NumSteps())
	}
	for i, c := range b.Contours {
		if c.K != i+1 {
			t.Fatalf("contour %d has K=%d", i, c.K)
		}
		if math.Abs((c.Budget - c.RawBudget.Scale(1.2)).F()) > 1e-9*c.Budget.F() {
			t.Fatalf("IC%d budget %g not inflated from %g", c.K, c.Budget, c.RawBudget)
		}
		if len(c.Flats) > 0 && c.Density() == 0 {
			t.Fatalf("IC%d has locations but no plans", c.K)
		}
		if len(c.PlanAt) != len(c.Flats) {
			t.Fatalf("IC%d assigns %d of its %d locations", c.K, len(c.PlanAt), len(c.Flats))
		}
		for _, pid := range c.PlanAt {
			found := false
			for _, id := range c.PlanIDs {
				if id == pid {
					found = true
				}
			}
			if !found {
				t.Fatalf("IC%d assignment to non-contour plan %d", c.K, pid)
			}
		}
	}
	// Bouquet = union of contour plan sets.
	union := map[int]bool{}
	for _, c := range b.Contours {
		for _, pid := range c.PlanIDs {
			union[pid] = true
		}
	}
	if len(union) != b.Cardinality() {
		t.Fatalf("bouquet cardinality %d != union size %d", b.Cardinality(), len(union))
	}
}

func TestCompileOptionsValidation(t *testing.T) {
	q := query1D(t)
	space, err := ess.NewSpace(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	if _, err := Compile(opt, space, CompileOptions{Ratio: 0.5}); err == nil {
		t.Fatal("ratio ≤ 1 should fail")
	}
}

// TestDenseCompileRefusesALongLadderFirst: a ratio whose ladder the
// contour package refuses is refused by a dense compile after the two
// corner optimizations, not after optimizing the whole grid, with the
// error the ladder built from a generated diagram gives.
func TestDenseCompileRefusesALongLadderFirst(t *testing.T) {
	q := query2D(t)
	space, err := ess.NewSpace(q, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	ratio := cost.Ratio(math.Nextafter(1, 2))
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2, Ratio: ratio})
	if err == nil || b != nil {
		t.Fatalf("dense compile at ratio %v returned (%v, %v), want a refusal", ratio, b, err)
	}
	if calls := opt.Calls(); calls > 2 {
		t.Fatalf("refused dense compile made %d optimizer calls, want at most 2 of %d", calls, space.NumPoints())
	}
	d := posp.Generate(opt, space, 1)
	if _, want := Compile(opt, space, CompileOptions{Lambda: 0.2, Ratio: ratio, Diagram: d}); want == nil || err.Error() != want.Error() {
		t.Fatalf("refused dense compile says %q, the generated diagram's ladder %v", err, want)
	}
}

func TestAnorexicReducesDensity(t *testing.T) {
	q := query3D(t)
	space, err := ess.NewSpace(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	diagram := posp.Generate(opt, space, 0)
	posp20, err := Compile(opt, space, CompileOptions{Lambda: -1, Diagram: diagram})
	if err != nil {
		t.Fatal(err)
	}
	anx, err := Compile(opt, space, CompileOptions{Lambda: 0.2, Diagram: diagram})
	if err != nil {
		t.Fatal(err)
	}
	if anx.MaxDensity() > posp20.MaxDensity() {
		t.Fatalf("anorexic ρ %d > POSP ρ %d", anx.MaxDensity(), posp20.MaxDensity())
	}
	if anx.Cardinality() > posp20.Cardinality() {
		t.Fatalf("anorexic |B| %d > POSP |B| %d", anx.Cardinality(), posp20.Cardinality())
	}
	// The paper's Table 1 trade: 4(1+λ)ρ_anx should beat 4ρ_posp when
	// the reduction bites; at minimum the Eq. 8 bound must not blow up.
	if anx.BoundMSO() > posp20.BoundMSO()*1.2+1e-9 {
		t.Fatalf("anorexic bound %g worse than POSP bound %g beyond the λ factor",
			anx.BoundMSO(), posp20.BoundMSO())
	}
}

func TestBoundsRelation(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 10, CompileOptions{Lambda: 0.2})
	if b.BoundMSO() > b.TheoreticalMSO()*(1+1e-9) {
		t.Fatalf("Eq.8 bound %g exceeds closed form %g", b.BoundMSO(), b.TheoreticalMSO())
	}
	want := float64(b.MaxDensity()) * 4 * 1.2
	if math.Abs(b.TheoreticalMSO().F()-want) > 1e-9*want {
		t.Fatalf("TheoreticalMSO = %g, want 4(1+λ)ρ = %g", b.TheoreticalMSO(), want)
	}
}

// Lemma 1 ------------------------------------------------------------------

// TestLemma1 verifies the paper's Lemma 1 in 1-D: if q_a lies in
// (q_{k-1}, q_k], the plan associated with IC_k completes it within IC_k's
// budget, and the bouquet's final (completing) execution happens exactly at
// step k.
func TestLemma1(t *testing.T) {
	b, _ := compileFor(t, query1D(t), 60, CompileOptions{Lambda: -1})
	space := b.Space
	for f := 0; f < space.NumPoints(); f++ {
		qa := space.PointAt(f)
		optCost := b.Diagram.Cost(f)
		wantK := b.Ladder.StepFor(optCost)
		e := b.RunBasic(qa)
		if !e.Completed {
			t.Fatalf("location %d: did not complete", f)
		}
		last := e.Steps[len(e.Steps)-1]
		if !last.Completed {
			t.Fatalf("location %d: final step not a completion", f)
		}
		if last.Contour != wantK {
			t.Fatalf("location %d (opt cost %g): completed at IC%d, Lemma 1 predicts IC%d",
				f, optCost, last.Contour, wantK)
		}
	}
}

// Theorem 1 / Theorem 3 ----------------------------------------------------

// TestTheorem1BoundOneD: 1-D MSO ≤ r²/(r−1) for several ratios.
func TestTheorem1BoundOneD(t *testing.T) {
	q := query1D(t)
	space, err := ess.NewSpace(q, []int{50})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	diagram := posp.Generate(opt, space, 0)
	for _, r := range []float64{1.5, 2, 2.5, 3, 4} {
		b, err := Compile(opt, space, CompileOptions{Ratio: cost.Ratio(r), Lambda: -1, Diagram: diagram})
		if err != nil {
			t.Fatal(err)
		}
		bound := r * r / (r - 1)
		for f := 0; f < space.NumPoints(); f++ {
			e := b.RunBasic(space.PointAt(f))
			if e.SubOpt() > bound*(1+1e-9) {
				t.Fatalf("r=%g: SubOpt %g at %d exceeds r²/(r−1)=%g", r, e.SubOpt(), f, bound)
			}
		}
	}
}

// TestTheorem3BoundMultiD: multi-D MSO ≤ 4(1+λ)ρ for the basic driver.
func TestTheorem3BoundMultiD(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *query.Query
		res  int
	}{
		{"2D", query2D(t), 14},
		{"3D", query3D(t), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space, err := ess.NewSpace(tc.q, []int{tc.res})
			if err != nil {
				t.Fatal(err)
			}
			opt := optimizer.New(cost.NewCoster(tc.q, cost.Postgres()))
			b, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			eq8 := b.BoundMSO()
			closed := b.TheoreticalMSO()
			for f := 0; f < space.NumPoints(); f++ {
				e := b.RunBasic(space.PointAt(f))
				if e.SubOpt() > eq8.F()*(1+1e-9) {
					t.Fatalf("SubOpt %g at %d exceeds Eq.8 bound %g", e.SubOpt(), f, eq8)
				}
				if e.SubOpt() > closed.F()*(1+1e-9) {
					t.Fatalf("SubOpt %g at %d exceeds 4(1+λ)ρ = %g", e.SubOpt(), f, closed)
				}
			}
		})
	}
}

// run-time behaviour -------------------------------------------------------

func TestRepeatability(t *testing.T) {
	// The execution sequence for a query instance is identical across
	// invocations — the paper's stability claim.
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	qa := ess.Point{0.03, 2e-5}
	for _, runner := range []func(ess.Point) Execution{b.RunBasic, b.RunOptimized} {
		a, c := runner(qa), runner(qa)
		if len(a.Steps) != len(c.Steps) || a.TotalCost != c.TotalCost {
			t.Fatal("executions differ across invocations")
		}
		for i := range a.Steps {
			if a.Steps[i] != c.Steps[i] {
				t.Fatalf("step %d differs: %+v vs %+v", i, a.Steps[i], c.Steps[i])
			}
		}
	}
}

// TestConcurrentOptimizedRunsShareTheMemo: optimized runs from several
// goroutines on one bouquet, which share its contour-nearest memo, give
// the very steps a lone serial sweep gives on a bouquet of its own.
func TestConcurrentOptimizedRunsShareTheMemo(t *testing.T) {
	serial, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	shared, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	n := serial.Space.NumPoints()
	want := make([]Execution, n)
	for f := range want {
		want[f] = serial.RunOptimized(serial.Space.PointAt(f))
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				f := (i + w*n/workers) % n
				got := shared.RunOptimized(shared.Space.PointAt(f))
				if !slices.Equal(got.Steps, want[f].Steps) {
					t.Errorf("location %d: steps %v under concurrent runs, %v alone", f, got, want[f])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestBasicStepsAreWellFormed(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	for f := 0; f < space.NumPoints(); f += 7 {
		e := b.RunBasic(space.PointAt(f))
		var total cost.Cost
		for i, s := range e.Steps {
			if s.Spent > s.Budget.Scale(1+1e-9) {
				t.Fatalf("step %d spent %g over budget %g", i, s.Spent, s.Budget)
			}
			if s.Completed != (i == len(e.Steps)-1) {
				t.Fatalf("completion flag misplaced at step %d", i)
			}
			if i > 0 && s.Contour < e.Steps[i-1].Contour {
				t.Fatalf("contours regress at step %d", i)
			}
			total += s.Spent
		}
		if math.Abs((total - e.TotalCost).F()) > 1e-9*total.F() {
			t.Fatalf("TotalCost %g != Σ steps %g", e.TotalCost, total)
		}
	}
}

func TestOptimizedNeverExceedsTwiceBasicWorstCase(t *testing.T) {
	// The optimized driver is heuristic; its per-contour overspend is
	// bounded by one extra execution per plan, i.e. ≤ 2x the basic
	// driver's guarantee.
	b, _ := compileFor(t, query3D(t), 8, CompileOptions{Lambda: 0.2})
	bound := 2 * b.BoundMSO()
	space := b.Space
	for f := 0; f < space.NumPoints(); f++ {
		e := b.RunOptimized(space.PointAt(f))
		if !e.Completed {
			t.Fatalf("optimized did not complete at %d", f)
		}
		if e.SubOpt() > bound.F()*(1+1e-9) {
			t.Fatalf("optimized SubOpt %g at %d exceeds 2x bound %g", e.SubOpt(), f, bound)
		}
	}
}

func TestOptimizedBeatsBasicOn1D(t *testing.T) {
	// Figure 4's claim: the optimized profile dominates on average.
	b, _ := compileFor(t, query1D(t), 60, CompileOptions{Lambda: 0.2})
	space := b.Space
	var sumB, sumO float64
	for f := 0; f < space.NumPoints(); f++ {
		sumB += b.RunBasic(space.PointAt(f)).SubOpt()
		sumO += b.RunOptimized(space.PointAt(f)).SubOpt()
	}
	if sumO >= sumB {
		t.Fatalf("optimized ASO %g not better than basic %g on 1-D", sumO, sumB)
	}
}

func TestOffGridAndBeyondTerminus(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 10, CompileOptions{Lambda: 0.2})
	// Off-grid interior point.
	mid := ess.Point{
		math.Sqrt(b.Space.Dim(0).Lo*b.Space.Dim(0).Hi) * 1.01,
		math.Sqrt(b.Space.Dim(1).Lo*b.Space.Dim(1).Hi) * 1.01,
	}
	if e := b.RunBasic(mid); !e.Completed || e.SubOpt() < 1-1e-9 {
		t.Fatalf("off-grid run: completed=%v subopt=%g", e.Completed, e.SubOpt())
	}
	if e := b.RunOptimized(mid); !e.Completed {
		t.Fatal("optimized off-grid run failed")
	}
	// q_a slightly beyond the terminus: the defensive tail must finish.
	beyond := b.Space.Terminus()
	beyond[0] = math.Min(beyond[0]*1.5, 1.0)
	if e := b.RunBasic(beyond); !e.Completed {
		t.Fatal("beyond-terminus basic run failed")
	}
	if e := b.RunOptimized(beyond); !e.Completed {
		t.Fatal("beyond-terminus optimized run failed")
	}
}

func TestExecutionString(t *testing.T) {
	b, _ := compileFor(t, query1D(t), 20, CompileOptions{Lambda: 0.2})
	e := b.RunBasic(ess.Point{0.02})
	s := e.String()
	if s == "" || e.NumExecs() == 0 {
		t.Fatal("empty execution rendering")
	}
}

func BenchmarkCompile2D(b *testing.B) {
	q := query2D(b)
	space, err := ess.NewSpace(q, []int{12})
	if err != nil {
		b.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	d := posp.Generate(opt, space, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(opt, space, CompileOptions{Lambda: 0.2, Diagram: d}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBasic2D(b *testing.B) {
	bq, _ := compileFor(b, query2D(b), 12, CompileOptions{Lambda: 0.2})
	qa := bq.Space.Terminus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq.RunBasic(qa)
	}
}

func BenchmarkRunOptimized2D(b *testing.B) {
	bq, _ := compileFor(b, query2D(b), 12, CompileOptions{Lambda: 0.2})
	qa := bq.Space.Terminus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq.RunOptimized(qa)
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	bq, opt := compileFor(b, query2D(b), 12, CompileOptions{Lambda: 0.2})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := bq.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf, opt.Coster()); err != nil {
			b.Fatal(err)
		}
	}
}
