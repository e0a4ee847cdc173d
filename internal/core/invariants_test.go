package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/ess"
)

// TestFirstQuadrantInvariant verifies §5.2's central soundness property on
// the abstract optimized driver: the learned running location never
// overtakes the actual location on any dimension, at any intermediate
// state. The check reuses simulateSpill directly on random subtrees,
// budgets and locations.
func TestFirstQuadrantInvariant(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	rng := rand.New(rand.NewSource(21))

	for trial := 0; trial < 300; trial++ {
		qa := ess.Point{
			randIn(rng, space.Dim(0)),
			randIn(rng, space.Dim(1)),
		}
		tr := b.truthAt(qa)
		st := &runState{qrun: space.Origin().Clone(), learned: make([]bool, 2)}

		// Random bouquet plan, random learnable dim, random budget.
		pid := b.PlanIDs[rng.Intn(len(b.PlanIDs))]
		p := b.Diagram.Plan(pid)
		learnID, _ := b.learnablePred(p, st)
		if learnID < 0 {
			continue
		}
		dim := b.Query.DimOf(learnID)
		sub := spillNode(p, learnID)
		budget := tr.opt.Scale(cost.Ratio(0.1 + 3*rng.Float64()))

		_, bound, _ := b.simulateSpill(sub, dim, tr, budget, b.execCost(sub, tr.sels))
		st.qrun[dim] = math.Max(st.qrun[dim], bound)
		for d := range st.qrun {
			if st.qrun[d] > qa[d]*(1+1e-9) {
				t.Fatalf("trial %d: q_run[%d]=%g exceeds q_a[%d]=%g",
					trial, d, st.qrun[d], d, qa[d])
			}
		}
	}
}

func randIn(rng *rand.Rand, d ess.Dim) float64 {
	u := rng.Float64()
	return d.Lo * math.Exp(u*math.Log(d.Hi/d.Lo))
}

// TestSpillMonotoneInBudget: a bigger budget never learns a smaller
// frontier (testing/quick over budget pairs).
func TestSpillMonotoneInBudget(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	qa := ess.Point{space.Dim(0).Hi * 0.7, space.Dim(1).Hi * 0.6}
	tr := b.truthAt(qa)
	pid := b.PlanIDs[len(b.PlanIDs)-1]
	p := b.Diagram.Plan(pid)
	st0 := &runState{qrun: space.Origin().Clone(), learned: make([]bool, 2)}
	learnID, _ := b.learnablePred(p, st0)
	if learnID < 0 {
		t.Skip("no learnable pred on chosen plan")
	}
	dim := b.Query.DimOf(learnID)
	sub := spillNode(p, learnID)

	frontier := func(budget cost.Cost) float64 {
		_, bound, _ := b.simulateSpill(sub, dim, tr, budget, b.execCost(sub, tr.sels))
		return bound
	}
	f := func(aSeed, bSeed float64) bool {
		ba := tr.opt.Scale(cost.Ratio(0.01 + math.Mod(math.Abs(aSeed), 5)))
		bb := tr.opt.Scale(cost.Ratio(0.01 + math.Mod(math.Abs(bSeed), 5)))
		if ba > bb {
			ba, bb = bb, ba
		}
		return frontier(ba) <= frontier(bb)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestModelingErrorBound: under δ-bounded cost-model errors, the measured
// MSO stays within (1+δ)² of the perfect-model Eq. 8 bound (§3.4).
func TestModelingErrorBound(t *testing.T) {
	const delta = 0.4
	b, _ := compileFor(t, query2D(t), 10, CompileOptions{Lambda: 0.2})
	space := b.Space
	guarantee := b.BoundMSO() * (1 + delta) * (1 + delta)
	for seed := uint64(1); seed <= 5; seed++ {
		b.SetActualCoster(b.Coster.WithPerturbation(delta, seed))
		worst := 0.0
		for f := 0; f < space.NumPoints(); f++ {
			e := b.RunBasic(space.PointAt(f))
			if !e.Completed {
				t.Fatalf("seed %d: no completion at %d", seed, f)
			}
			if s := e.SubOpt(); s > worst {
				worst = s
			}
		}
		b.SetActualCoster(nil)
		if worst > guarantee.F()*(1+1e-9) {
			t.Fatalf("seed %d: perturbed MSO %g exceeds (1+δ)² bound %g", seed, worst, guarantee)
		}
	}
}

func TestModelingErrorOptimizedCompletes(t *testing.T) {
	const delta = 0.4
	b, _ := compileFor(t, query2D(t), 10, CompileOptions{Lambda: 0.2})
	b.SetActualCoster(b.Coster.WithPerturbation(delta, 9))
	defer b.SetActualCoster(nil)
	space := b.Space
	for f := 0; f < space.NumPoints(); f += 3 {
		e := b.RunOptimized(space.PointAt(f))
		if !e.Completed {
			t.Fatalf("optimized run failed under perturbation at %d", f)
		}
		if e.SubOpt() < 1-delta {
			t.Fatalf("sub-optimality %g below the actual-model floor", e.SubOpt())
		}
	}
}

// TestBouquetCoversEveryPlanExactlyOncePerStep: within one basic run, no
// (contour, plan) pair is executed twice — executions are never wasted.
func TestNoDuplicateExecutionsBasic(t *testing.T) {
	b, _ := compileFor(t, query3D(t), 8, CompileOptions{Lambda: 0.2})
	space := b.Space
	for f := 0; f < space.NumPoints(); f += 5 {
		e := b.RunBasic(space.PointAt(f))
		seen := map[[2]int]bool{}
		for _, s := range e.Steps {
			key := [2]int{s.Contour, s.PlanID}
			if seen[key] {
				t.Fatalf("location %d: plan %d executed twice on IC%d", f, s.PlanID, s.Contour)
			}
			seen[key] = true
		}
	}
}

// TestOptimizedExecutionBudgetAccounting: every optimized step respects its
// budget and contours never regress.
func TestOptimizedStepAccounting(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	for f := 0; f < space.NumPoints(); f += 3 {
		e := b.RunOptimized(space.PointAt(f))
		var total cost.Cost
		for i, s := range e.Steps {
			if s.Spent > s.Budget*(1+1e-9) {
				t.Fatalf("step %d spent %g over budget %g", i, s.Spent, s.Budget)
			}
			if i > 0 && s.Contour < e.Steps[i-1].Contour {
				t.Fatalf("contour regressed at step %d", i)
			}
			total += s.Spent
		}
		if math.Abs((total - e.TotalCost).F()) > 1e-9*math.Max(total.F(), 1) {
			t.Fatalf("TotalCost %g != Σ %g", e.TotalCost, total)
		}
	}
}

// TestSubOptAtLeastOne: no strategy beats the oracle.
func TestSubOptAtLeastOne(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	space := b.Space
	for f := 0; f < space.NumPoints(); f++ {
		if so := b.RunBasic(space.PointAt(f)).SubOpt(); so < 1-1e-9 {
			t.Fatalf("basic SubOpt %g < 1 at %d", so, f)
		}
		if so := b.RunOptimized(space.PointAt(f)).SubOpt(); so < 1-1e-9 {
			t.Fatalf("optimized SubOpt %g < 1 at %d", so, f)
		}
	}
}

// TestPOSPConfigurationBudgetsUninflated: with Lambda < 0, budgets equal
// the raw isocost steps.
func TestPOSPConfigurationBudgets(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 8, CompileOptions{Lambda: -1})
	for _, c := range b.Contours {
		if c.Budget != c.RawBudget {
			t.Fatalf("IC%d inflated without anorexic reduction", c.K)
		}
	}
}

// TestAxisPlansReturnsContourPlans: every AxisPlans candidate is a plan of
// the current contour with a learnable predicate.
func TestAxisPlansReturnsContourPlans(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	st := &runState{qrun: b.Space.Origin().Clone(), learned: make([]bool, 2)}
	for _, c := range b.Contours {
		if len(c.Flats) == 0 {
			continue
		}
		for _, cand := range b.axisPlans(st, c) {
			found := false
			for _, pid := range c.PlanIDs {
				if pid == cand.planID {
					found = true
				}
			}
			if !found {
				t.Fatalf("IC%d: candidate plan %d not on contour", c.K, cand.planID)
			}
			if cand.learnID < 0 || b.Query.DimOf(cand.learnID) < 0 {
				t.Fatalf("IC%d: candidate without learnable error pred", c.K)
			}
		}
	}
}

// TestPickCandidateHeuristic: the cheapest equivalence group wins, and
// within it the deepest error node.
func TestPickCandidateHeuristic(t *testing.T) {
	cands := []axisCandidate{
		{dim: 0, planID: 1, cost: 100, depth: 1},
		{dim: 1, planID: 2, cost: 110, depth: 3}, // within 20% of 100, deeper
		{dim: 1, planID: 3, cost: 200, depth: 9}, // outside the group
	}
	got := pickCandidate(cands)
	if got.planID != 2 {
		t.Fatalf("picked plan %d, want 2 (deepest in cheapest group)", got.planID)
	}
	// Ties on depth break by plan ID.
	cands = []axisCandidate{
		{dim: 0, planID: 5, cost: 100, depth: 2},
		{dim: 1, planID: 4, cost: 105, depth: 2},
	}
	if got := pickCandidate(cands); got.planID != 4 {
		t.Fatalf("tie-break picked %d, want 4", got.planID)
	}
}

func TestCostersSeparateRoles(t *testing.T) {
	// With an actual coster installed, decisions still use estimates but
	// outcomes use actuals: execCost must differ from Coster.Cost.
	b, _ := compileFor(t, query1D(t), 10, CompileOptions{Lambda: 0.2})
	b.SetActualCoster(b.Coster.WithPerturbation(0.4, 2))
	defer b.SetActualCoster(nil)
	p := b.Diagram.Plan(b.PlanIDs[0])
	sels := cost.Selectivities(b.Space.Sels(b.Space.Terminus()))
	if b.execCost(p, sels) == b.Coster.Cost(p, sels) {
		t.Fatal("execCost identical to estimate under perturbation")
	}
}
