package contour

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/query"
)

func fixture2D(t testing.TB, res int) (*optimizer.Optimizer, *ess.Space, *posp.Diagram) {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("ctq", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		MustBuild()
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	return opt, space, posp.Generate(opt, space, 0)
}

func TestNewLadderBoundaries(t *testing.T) {
	l, err := NewLadder(10, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	steps := l.Steps
	// Paper boundary conditions: a/r < Cmin ≤ IC1, IC_{m-1} < Cmax ≤ IC_m.
	if !(steps[0].F()/l.R.F() < 10 && 10 <= steps[0]) {
		t.Errorf("first step %g violates a/r < Cmin ≤ IC1", steps[0])
	}
	m := len(steps)
	if !(steps[m-2] < 1000 && 1000 <= steps[m-1]) {
		t.Errorf("last steps %g, %g violate IC_{m-1} < Cmax ≤ IC_m", steps[m-2], steps[m-1])
	}
	for i := 1; i < m; i++ {
		if math.Abs(steps[i].Over(steps[i-1]).F()-2) > 1e-12 {
			t.Errorf("non-geometric ladder at %d", i)
		}
	}
}

func TestNewLadderErrors(t *testing.T) {
	if _, err := NewLadder(0, 10, 2); err == nil {
		t.Error("cmin = 0 should fail")
	}
	if _, err := NewLadder(10, 5, 2); err == nil {
		t.Error("cmax < cmin should fail")
	}
	if _, err := NewLadder(1, 10, 1); err == nil {
		t.Error("r = 1 should fail")
	}
	// A ratio a hair above 1 passes the r > 1 check but would append
	// ~10^16 steps; an infinite range never ends. Both fail up front.
	if _, err := NewLadder(1, 1e6, cost.Ratio(math.Nextafter(1, 2))); err == nil {
		t.Error("r = 1 + 2^-52 should fail")
	}
	if _, err := NewLadder(1, cost.Cost(math.Inf(1)), 2); err == nil {
		t.Error("cmax = +Inf should fail")
	}
}

func TestLadderDegenerate(t *testing.T) {
	// Cmin == Cmax: a single step.
	l, err := NewLadder(5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumSteps() != 1 || l.Steps[0] != 5 {
		t.Fatalf("degenerate ladder = %v", l.Steps)
	}
}

func TestLadderStepCountProperty(t *testing.T) {
	// m ≈ ceil(log_r(Cmax/Cmin)) + 1 within one step.
	f := func(cminSeed, ratioSeed, spanSeed float64) bool {
		cmin := 1 + math.Mod(math.Abs(cminSeed), 1000)
		r := 1.5 + math.Mod(math.Abs(ratioSeed), 3)
		span := 1 + math.Mod(math.Abs(spanSeed), 1e6)
		cmax := cmin * span
		l, err := NewLadder(cost.Cost(cmin), cost.Cost(cmax), cost.Ratio(r))
		if err != nil {
			return false
		}
		want := math.Ceil(math.Log(span)/math.Log(r)) + 1
		return math.Abs(float64(l.NumSteps())-want) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStepFor(t *testing.T) {
	l, _ := NewLadder(10, 100, 2) // steps 10 20 40 80 160
	cases := map[float64]int{5: 1, 10: 1, 11: 2, 40: 3, 100: 5, 200: 6}
	for c, want := range cases {
		if got := l.StepFor(cost.Cost(c)); got != want {
			t.Errorf("StepFor(%g) = %d, want %d", c, got, want)
		}
	}
}

// TestStepForAllocFree pins StepFor's allocation-freedom: the closure
// handed to sort.Search must stay on the stack.
func TestStepForAllocFree(t *testing.T) {
	l, err := NewLadder(10, 1e6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { l.StepFor(12345) }); got > 0 {
		t.Errorf("StepFor allocates %.0f/call, want 0", got)
	}
}

func TestStepForBoundaries(t *testing.T) {
	l, _ := NewLadder(10, 100, 2) // steps 10 20 40 80 160
	// Below the first step: costs under IC1 still land on step 1.
	if got := l.StepFor(0.5); got != 1 {
		t.Errorf("below first step: StepFor(0.5) = %d, want 1", got)
	}
	// Exactly on each step budget: must map to that step, not the next.
	for i, s := range l.Steps {
		if got := l.StepFor(s); got != i+1 {
			t.Errorf("on step: StepFor(%g) = %d, want %d", s, got, i+1)
		}
	}
	// Just above a step budget: must advance to the next step.
	if got := l.StepFor(l.Steps[2] * 1.0000001); got != 4 {
		t.Errorf("just above step 3: got %d, want 4", got)
	}
	// Above the last step: m+1 signals out-of-ladder.
	last := l.Steps[len(l.Steps)-1]
	if got := l.StepFor(last * 2); got != len(l.Steps)+1 {
		t.Errorf("above last step: got %d, want %d", got, len(l.Steps)+1)
	}
	// Single-step ladder degenerate case.
	one, err := NewLadder(7, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.StepFor(7); got != 1 {
		t.Errorf("single-step ladder on step: got %d, want 1", got)
	}
	if got := one.StepFor(7.1); got != 2 {
		t.Errorf("single-step ladder above: got %d, want 2", got)
	}
}

func TestLadderForSpace(t *testing.T) {
	opt, space, d := fixture2D(t, 8)
	l, err := LadderForSpace(opt, space, 2)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := d.CostBounds()
	if math.Abs((l.Steps[0] - cmin).F()) > 1e-9*cmin.F() {
		t.Errorf("ladder base %g != Cmin %g", l.Steps[0], cmin)
	}
	if l.Steps[len(l.Steps)-1] < cmax {
		t.Errorf("ladder top %g below Cmax %g", l.Steps[len(l.Steps)-1], cmax)
	}
}

func TestIdentifyRequiresDenseDiagram(t *testing.T) {
	opt, space, _ := fixture2D(t, 8)
	sparse := posp.NewDiagram(space)
	flats := []int{0, 1}
	for i, res := range posp.OptimizeAll(opt, space, flats, 0) {
		sparse.Set(flats[i], res.Plan, res.Cost)
	}
	l, _ := NewLadder(1, 10, 2)
	if _, err := Identify(sparse, l); err == nil {
		t.Fatal("Identify on sparse diagram should fail")
	}
}

// dominatedBy reports whether p ≤ q component-wise (p is inside q's third
// quadrant, or equal). Under PCM, cost at p ≤ cost at q for every plan.
func dominatedBy(p, q ess.Point) bool {
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// TestContourCoverageProperty verifies the load-bearing guarantee of the
// bouquet construction: every grid location within a step's budget is
// dominated by some contour location, whose optimal plan therefore
// completes within the budget anywhere inside the region (PCM).
func TestContourCoverageProperty(t *testing.T) {
	opt, space, d := fixture2D(t, 10)
	cmin, cmax := d.CostBounds()
	l, err := NewLadder(cmin, cmax, 2)
	if err != nil {
		t.Fatal(err)
	}
	contours, err := Identify(d, l)
	if err != nil {
		t.Fatal(err)
	}
	coster := opt.Coster()
	for _, c := range contours {
		for flat := 0; flat < space.NumPoints(); flat++ {
			if d.Cost(flat) > c.Budget {
				continue
			}
			p := space.PointAt(flat)
			covered := false
			for i, cf := range c.Flats {
				if !dominatedBy(p, space.PointAt(cf)) {
					continue
				}
				// The covering contour point's plan must
				// complete within the budget at flat.
				pl := d.Plan(c.PlanAt[i])
				if coster.Cost(pl, space.Sels(p)) <= c.Budget*(1+1e-9) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("IC%d: location %d (cost %g ≤ budget %g) not covered",
					c.K, flat, d.Cost(flat), c.Budget)
			}
		}
	}
}

func TestContourFlatsAreMaximal(t *testing.T) {
	_, space, d := fixture2D(t, 10)
	cmin, cmax := d.CostBounds()
	l, _ := NewLadder(cmin, cmax, 2)
	contours, err := Identify(d, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contours {
		for _, f := range c.Flats {
			if d.Cost(f) > c.Budget {
				t.Fatalf("IC%d: contour point %d above budget", c.K, f)
			}
			p := space.PointAt(f)
			// No other in-budget grid point strictly dominates it.
			for flat := 0; flat < space.NumPoints(); flat++ {
				if flat == f || d.Cost(flat) > c.Budget {
					continue
				}
				if dominatedBy(p, space.PointAt(flat)) {
					t.Fatalf("IC%d: contour point %d dominated by in-budget %d", c.K, f, flat)
				}
			}
		}
	}
}

func TestMaxDensity(t *testing.T) {
	contours := []Contour{
		{PlanIDs: []int{1}},
		{PlanIDs: []int{1, 2, 3}},
		{PlanIDs: []int{2, 4}},
	}
	if got := MaxDensity(contours); got != 3 {
		t.Fatalf("MaxDensity = %d", got)
	}
}

func TestPICOneDimensionalOnly(t *testing.T) {
	_, _, d := fixture2D(t, 6)
	if _, err := PIC(d); err == nil {
		t.Fatal("PIC of a 2-D diagram should fail")
	}
}

func TestPICMonotone(t *testing.T) {
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("pic1d", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		MustBuild()
	space, err := ess.NewSpace(q, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	d := posp.Generate(opt, space, 0)
	pic, err := PIC(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pic); i++ {
		if pic[i] < pic[i-1]*(1-1e-12) {
			t.Fatalf("PIC decreases at %d: %g -> %g", i, pic[i-1], pic[i])
		}
	}
}

func TestCheckPCMDetectsViolation(t *testing.T) {
	_, space, d := fixture2D(t, 6)
	if err := CheckPCM(d); err != nil {
		t.Fatalf("genuine diagram flagged: %v", err)
	}
	// Corrupt one cell upward-then-downward.
	bad := posp.NewDiagram(space)
	for f := 0; f < space.NumPoints(); f++ {
		bad.Set(f, d.Plan(d.PlanID(f)), d.Cost(f))
	}
	// Overwrite the origin with a huge cost: its successors now violate.
	bad.Set(0, d.Plan(d.PlanID(0)), 1e18)
	if err := CheckPCM(bad); err == nil {
		t.Fatal("CheckPCM missed an injected violation")
	}
}

func TestFocusedCoversContoursWithFewerCalls(t *testing.T) {
	opt, space, dense := fixture2D(t, 12)
	cmin, cmax := dense.CostBounds()
	l, _ := NewLadder(cmin, cmax, 2)
	contours, err := Identify(dense, l)
	if err != nil {
		t.Fatal(err)
	}

	sparse, stats := Focused(opt, space, l)
	if stats.OptimizerCalls >= stats.GridPoints {
		t.Errorf("focused generation used %d calls for %d points — no savings",
			stats.OptimizerCalls, stats.GridPoints)
	}
	if stats.SavingsFactor() <= 1 {
		t.Errorf("savings factor %v", stats.SavingsFactor())
	}
	for _, c := range contours {
		for _, f := range c.Flats {
			if !sparse.Covered(f) {
				t.Fatalf("IC%d contour location %d not covered by focused band", c.K, f)
			}
			if math.Abs((sparse.Cost(f) - dense.Cost(f)).F()) > 1e-9*dense.Cost(f).F() {
				t.Fatalf("focused cost differs at %d", f)
			}
		}
	}
}

func TestFocusedSavingsFactorEmpty(t *testing.T) {
	s := FocusStats{OptimizerCalls: 0, GridPoints: 10}
	if !math.IsInf(s.SavingsFactor(), 1) {
		t.Fatal("zero calls should yield +Inf savings")
	}
}

func BenchmarkIdentify(b *testing.B) {
	_, _, d := fixture2D(b, 16)
	cmin, cmax := d.CostBounds()
	l, err := NewLadder(cmin, cmax, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Identify(d, l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFocusedGeneration(b *testing.B) {
	opt, space, d := fixture2D(b, 16)
	cmin, cmax := d.CostBounds()
	l, _ := NewLadder(cmin, cmax, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Focused(opt, space, l)
	}
}
