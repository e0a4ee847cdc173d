package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// concreteFixture compiles HQ8a's bouquet and builds the engine its runs
// execute on, over the data seed plants.
func concreteFixture(t testing.TB, seed int64) (*workload.RuntimeWorkload, *Bouquet, *exec.Engine, *optimizer.Optimizer) {
	t.Helper()
	rw, err := workload.HQ8a(seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(rw.Query, rw.Model))
	b, err := Compile(opt, rw.Space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		t.Fatal(err)
	}
	return rw, b, eng, opt
}

// runOn runs r on b with a background context; it fails t on an error.
func runOn(t testing.TB, b *Bouquet, r Run) Execution {
	t.Helper()
	e, err := b.Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// repeatable returns s without what may differ between two equivalent
// runs: the wall clock and the reuse cache's figures.
func repeatable(s Step) Step {
	s.Wall, s.ReuseHits, s.Salvaged = 0, 0, 0
	return s
}

func oracleRows(t testing.TB, rw *workload.RuntimeWorkload, eng *exec.Engine, opt *optimizer.Optimizer) (int64, cost.Cost) {
	t.Helper()
	res := opt.Optimize(rw.Space.Sels(rw.Actual))
	run := eng.MustRun(res.Plan, exec.Options{})
	if !run.Completed {
		t.Fatal("oracle run failed")
	}
	return run.RowsOut, run.CostUsed
}

func TestConcreteBasicCorrectAndBounded(t *testing.T) {
	rw, b, eng, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, eng, opt)

	out := runOn(t, b, Run{Engine: eng})
	if !out.Completed {
		t.Fatal("basic bouquet did not complete")
	}
	if out.ResultRows != wantRows {
		t.Fatalf("rows = %d, oracle %d", out.ResultRows, wantRows)
	}
	subopt := out.TotalCost.Over(oracleCost).F()
	// The engine charges realized cardinalities, so allow modest slack
	// over the analytic Eq. 8 bound.
	if bound := b.BoundMSO().F() * 1.5; subopt > bound {
		t.Fatalf("concrete sub-optimality %g exceeds slack bound %g", subopt, bound)
	}
	if subopt < 1 {
		t.Fatalf("sub-optimality %g < 1 — oracle not optimal?", subopt)
	}
}

func TestConcreteOptimizedCorrect(t *testing.T) {
	rw, b, eng, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, eng, opt)

	out := runOn(t, b, Run{Optimized: true, Engine: eng})
	if !out.Completed {
		t.Fatal("optimized bouquet did not complete")
	}
	if out.ResultRows != wantRows {
		t.Fatalf("rows = %d, oracle %d", out.ResultRows, wantRows)
	}
	if subopt := out.TotalCost.Over(oracleCost); subopt > b.BoundMSO()*3 {
		t.Fatalf("optimized concrete sub-optimality %g unreasonable", subopt)
	}
}

func TestConcreteLearnsActualSelectivities(t *testing.T) {
	rw, b, eng, _ := concreteFixture(t, 42)
	out := runOn(t, b, Run{Optimized: true, Engine: eng})
	if out.Learned == nil {
		t.Fatal("no learned state returned")
	}
	for d, learned := range out.Learned {
		actual := rw.Actual[d]
		if learned <= 0 {
			continue // dimension never learned (completed earlier)
		}
		// Discovered values track reality within the estimate noise
		// of error-free inputs (§5.2's |S|e·|L'|e division).
		if learned > actual*1.05 || learned < actual*0.2 {
			t.Errorf("dim %d: learned %g, actual %g", d, learned, actual)
		}
	}
}

func TestConcreteRepeatability(t *testing.T) {
	_, bq, eng, _ := concreteFixture(t, 42)
	a := runOn(t, bq, Run{Engine: eng})
	b := runOn(t, bq, Run{Engine: eng})
	if a.NumExecs() != b.NumExecs() || a.TotalCost != b.TotalCost || a.ResultRows != b.ResultRows {
		t.Fatal("concrete basic runs differ across invocations")
	}
	for i := range a.Steps {
		if repeatable(a.Steps[i]) != repeatable(b.Steps[i]) {
			t.Fatalf("step %d differs", i)
		}
	}
	ao := runOn(t, bq, Run{Optimized: true, Engine: eng})
	bo := runOn(t, bq, Run{Optimized: true, Engine: eng})
	if ao.NumExecs() != bo.NumExecs() || ao.TotalCost != bo.TotalCost {
		t.Fatal("concrete optimized runs differ across invocations")
	}
}

func TestConcreteBeatsNativeWorstCase(t *testing.T) {
	// The headline run-time claim (Table 3): the bouquet's actual cost
	// beats the native optimizer's at its erroneous estimate.
	rw, b, eng, opt := concreteFixture(t, 42)
	natPlan := opt.Optimize(rw.Space.Sels(rw.Estimate()))
	nat := eng.MustRun(natPlan.Plan, exec.Options{})
	if !nat.Completed {
		t.Fatal("native run failed")
	}
	basic := runOn(t, b, Run{Engine: eng})
	if basic.TotalCost >= nat.CostUsed {
		t.Fatalf("bouquet (%g) did not beat the native choice (%g)", basic.TotalCost, nat.CostUsed)
	}
}

func TestConcreteAcrossSeeds(t *testing.T) {
	// Different data instantiations (different realized q_a) must all
	// complete with matching result cardinalities.
	for _, seed := range []int64{1, 7, 99} {
		rw, b, eng, opt := concreteFixture(t, seed)
		wantRows, _ := oracleRows(t, rw, eng, opt)
		if out := runOn(t, b, Run{Engine: eng}); !out.Completed || out.ResultRows != wantRows {
			t.Errorf("seed %d basic: completed=%v rows=%d want %d", seed, out.Completed, out.ResultRows, wantRows)
		}
		if out := runOn(t, b, Run{Optimized: true, Engine: eng}); !out.Completed || out.ResultRows != wantRows {
			t.Errorf("seed %d optimized: completed=%v rows=%d want %d", seed, out.Completed, out.ResultRows, wantRows)
		}
	}
}

func TestConcreteStepBudgets(t *testing.T) {
	_, b, eng, _ := concreteFixture(t, 42)
	for _, out := range []Execution{runOn(t, b, Run{Engine: eng}), runOn(t, b, Run{Optimized: true, Engine: eng})} {
		var total cost.Cost
		for i, s := range out.Steps {
			// The engine may overshoot by one charge quantum.
			if !math.IsInf(s.Budget.F(), 1) && s.Spent > s.Budget+10 {
				t.Fatalf("step %d spent %g over budget %g", i, s.Spent, s.Budget)
			}
			total += s.Spent
		}
		if math.Abs((total - out.TotalCost).F()) > 1e-9*total.F() {
			t.Fatalf("TotalCost %g != Σ %g", out.TotalCost, total)
		}
		if out.Explain() == "" {
			t.Fatal("empty Explain")
		}
	}
}

// TestConcrete3D extends the Table-3 validation to three error-prone join
// dimensions discovered simultaneously on real rows.
func TestConcrete3D(t *testing.T) {
	rw, err := workload.HQ5a(42)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(rw.Query, rw.Model))
	b, err := Compile(opt, rw.Space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, oracleCost := oracleRows(t, rw, eng, opt)

	basic := runOn(t, b, Run{Engine: eng})
	if !basic.Completed || basic.ResultRows != wantRows {
		t.Fatalf("3-D basic: completed=%v rows=%d want %d", basic.Completed, basic.ResultRows, wantRows)
	}
	if subopt := basic.TotalCost.Over(oracleCost); subopt > b.BoundMSO()*1.5 {
		t.Fatalf("3-D basic sub-optimality %g beyond slack bound", subopt)
	}

	optim := runOn(t, b, Run{Optimized: true, Engine: eng})
	if !optim.Completed || optim.ResultRows != wantRows {
		t.Fatalf("3-D optimized: completed=%v rows=%d want %d", optim.Completed, optim.ResultRows, wantRows)
	}
	// Learned values never overtake reality beyond estimate noise.
	for d, learned := range optim.Learned {
		if learned > rw.Actual[d]*1.05 {
			t.Errorf("dim %d learned %g, actual %g", d, learned, rw.Actual[d])
		}
	}
}

// TestConcreteParallelismMatchesVolcano drives the whole bouquet
// protocol through the vectorized morsel-parallel engine. Completed
// (non-aborted) executions carry identical tuple counters on both
// engines, so the discovered selectivities and the final result are
// pinned. An aborted step is charged its budget here and its crossing
// charge on Volcano, and learns from its last committed epoch rather than
// its last tuple, so against Volcano the total is only bound-checked
// (TestConcreteWorkerCountInvariance pins it exactly across worker counts).
func TestConcreteParallelismMatchesVolcano(t *testing.T) {
	rw, b, eng, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, eng, opt)
	for _, workers := range []int{1, 8} {
		basic := runOn(t, b, Run{Engine: eng, Parallelism: workers})
		if !basic.Completed || basic.ResultRows != wantRows {
			t.Fatalf("w%d basic: completed=%v rows=%d want %d", workers, basic.Completed, basic.ResultRows, wantRows)
		}
		if subopt := basic.TotalCost.Over(oracleCost).F(); subopt > b.BoundMSO().F()*1.5 {
			t.Fatalf("w%d basic sub-optimality %g beyond slack bound", workers, subopt)
		}
		optim := runOn(t, b, Run{Optimized: true, Engine: eng, Parallelism: workers})
		if !optim.Completed || optim.ResultRows != wantRows {
			t.Fatalf("w%d optimized: completed=%v rows=%d want %d", workers, optim.Completed, optim.ResultRows, wantRows)
		}
		for d, learned := range optim.Learned {
			if learned > rw.Actual[d]*1.05 {
				t.Errorf("w%d dim %d learned %g, actual %g", workers, d, learned, rw.Actual[d])
			}
		}
	}
}

// TestDistributionShiftRobustness checks the paper's §8 claim that the
// bouquet "is inherently robust to changes in data distribution, since
// these changes only shift the location of q_a in the existing ESS": one
// compiled bouquet serves uniform, re-seeded, and differently planted
// databases without recompilation, always matching the oracle's rows.
func TestDistributionShiftRobustness(t *testing.T) {
	// Compile once against the first instance.
	rw0, bouquet, eng0, opt := concreteFixture(t, 42)
	wantRows0, _ := oracleRows(t, rw0, eng0, opt)
	if out := runOn(t, bouquet, Run{Engine: eng0}); out.ResultRows != wantRows0 {
		t.Fatalf("baseline rows %d, want %d", out.ResultRows, wantRows0)
	}

	// Same bouquet, different data distributions (different seeds plant
	// different realized q_a).
	for _, seed := range []int64{11, 23} {
		rw, err := workload.HQ8a(seed)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
		if err != nil {
			t.Fatal(err)
		}
		// Reuse the original compiled bouquet — only the engine (data)
		// changes. The queries are structurally identical, so plan
		// trees remain executable; the realized q_a moved.
		out := runOn(t, bouquet, Run{Engine: eng})
		if !out.Completed {
			t.Fatalf("seed %d: bouquet did not complete after distribution shift", seed)
		}
		oracle := opt.Optimize(rw.Space.Sels(rw.Actual))
		direct := eng.MustRun(oracle.Plan, exec.Options{})
		if out.ResultRows != direct.RowsOut {
			t.Fatalf("seed %d: rows %d, oracle %d", seed, out.ResultRows, direct.RowsOut)
		}
	}
}
