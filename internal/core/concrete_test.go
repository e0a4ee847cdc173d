package core

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

func concreteFixture(t testing.TB, seed int64) (*workload.RuntimeWorkload, *ConcreteRunner, *optimizer.Optimizer) {
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
	return rw, &ConcreteRunner{B: b, Engine: eng}, opt
}

func oracleRows(t testing.TB, rw *workload.RuntimeWorkload, r *ConcreteRunner, opt *optimizer.Optimizer) (int64, cost.Cost) {
	t.Helper()
	res := opt.Optimize(rw.Space.Sels(rw.Actual))
	run := r.Engine.MustRun(res.Plan, exec.Options{})
	if !run.Completed {
		t.Fatal("oracle run failed")
	}
	return run.RowsOut, run.CostUsed
}

func TestConcreteBasicCorrectAndBounded(t *testing.T) {
	rw, r, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, r, opt)

	out := r.RunBasic()
	if !out.Completed {
		t.Fatal("basic bouquet did not complete")
	}
	if out.ResultRows != wantRows {
		t.Fatalf("rows = %d, oracle %d", out.ResultRows, wantRows)
	}
	subopt := out.TotalCost.Over(oracleCost).F()
	// The engine charges realized cardinalities, so allow modest slack
	// over the analytic Eq. 8 bound.
	if bound := r.B.BoundMSO().F() * 1.5; subopt > bound {
		t.Fatalf("concrete sub-optimality %g exceeds slack bound %g", subopt, bound)
	}
	if subopt < 1 {
		t.Fatalf("sub-optimality %g < 1 — oracle not optimal?", subopt)
	}
}

func TestConcreteOptimizedCorrect(t *testing.T) {
	rw, r, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, r, opt)

	out := r.RunOptimized()
	if !out.Completed {
		t.Fatal("optimized bouquet did not complete")
	}
	if out.ResultRows != wantRows {
		t.Fatalf("rows = %d, oracle %d", out.ResultRows, wantRows)
	}
	if subopt := out.TotalCost.Over(oracleCost); subopt > r.B.BoundMSO()*3 {
		t.Fatalf("optimized concrete sub-optimality %g unreasonable", subopt)
	}
}

func TestConcreteLearnsActualSelectivities(t *testing.T) {
	rw, r, _ := concreteFixture(t, 42)
	out := r.RunOptimized()
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
	_, r, _ := concreteFixture(t, 42)
	a := r.RunBasic()
	b := r.RunBasic()
	if a.NumExecs() != b.NumExecs() || a.TotalCost != b.TotalCost || a.ResultRows != b.ResultRows {
		t.Fatal("concrete basic runs differ across invocations")
	}
	for i := range a.Steps {
		if a.Steps[i].Step != b.Steps[i].Step || a.Steps[i].Rows != b.Steps[i].Rows {
			t.Fatalf("step %d differs", i)
		}
	}
	ao := r.RunOptimized()
	bo := r.RunOptimized()
	if ao.NumExecs() != bo.NumExecs() || ao.TotalCost != bo.TotalCost {
		t.Fatal("concrete optimized runs differ across invocations")
	}
}

func TestConcreteBeatsNativeWorstCase(t *testing.T) {
	// The headline run-time claim (Table 3): the bouquet's actual cost
	// beats the native optimizer's at its erroneous estimate.
	rw, r, opt := concreteFixture(t, 42)
	natPlan := opt.Optimize(rw.Space.Sels(rw.Estimate()))
	nat := r.Engine.MustRun(natPlan.Plan, exec.Options{})
	if !nat.Completed {
		t.Fatal("native run failed")
	}
	basic := r.RunBasic()
	if basic.TotalCost >= nat.CostUsed {
		t.Fatalf("bouquet (%g) did not beat the native choice (%g)", basic.TotalCost, nat.CostUsed)
	}
}

func TestConcreteAcrossSeeds(t *testing.T) {
	// Different data instantiations (different realized q_a) must all
	// complete with matching result cardinalities.
	for _, seed := range []int64{1, 7, 99} {
		rw, r, opt := concreteFixture(t, seed)
		wantRows, _ := oracleRows(t, rw, r, opt)
		if out := r.RunBasic(); !out.Completed || out.ResultRows != wantRows {
			t.Errorf("seed %d basic: completed=%v rows=%d want %d", seed, out.Completed, out.ResultRows, wantRows)
		}
		if out := r.RunOptimized(); !out.Completed || out.ResultRows != wantRows {
			t.Errorf("seed %d optimized: completed=%v rows=%d want %d", seed, out.Completed, out.ResultRows, wantRows)
		}
	}
}

func TestConcreteStepBudgets(t *testing.T) {
	_, r, _ := concreteFixture(t, 42)
	for _, out := range []ConcreteExecution{r.RunBasic(), r.RunOptimized()} {
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
	r := &ConcreteRunner{B: b, Engine: eng}
	wantRows, oracleCost := oracleRows(t, rw, r, opt)

	basic := r.RunBasic()
	if !basic.Completed || basic.ResultRows != wantRows {
		t.Fatalf("3-D basic: completed=%v rows=%d want %d", basic.Completed, basic.ResultRows, wantRows)
	}
	if subopt := basic.TotalCost.Over(oracleCost); subopt > b.BoundMSO()*1.5 {
		t.Fatalf("3-D basic sub-optimality %g beyond slack bound", subopt)
	}

	optim := r.RunOptimized()
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
	rw, r, opt := concreteFixture(t, 42)
	wantRows, oracleCost := oracleRows(t, rw, r, opt)
	for _, workers := range []int{1, 8} {
		rp := &ConcreteRunner{B: r.B, Engine: r.Engine, Parallelism: workers}
		basic := rp.RunBasic()
		if !basic.Completed || basic.ResultRows != wantRows {
			t.Fatalf("w%d basic: completed=%v rows=%d want %d", workers, basic.Completed, basic.ResultRows, wantRows)
		}
		if subopt := basic.TotalCost.Over(oracleCost).F(); subopt > r.B.BoundMSO().F()*1.5 {
			t.Fatalf("w%d basic sub-optimality %g beyond slack bound", workers, subopt)
		}
		optim := rp.RunOptimized()
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
	rw0, r0, opt := concreteFixture(t, 42)
	bouquet := r0.B
	wantRows0, _ := oracleRows(t, rw0, r0, opt)
	if out := r0.RunBasic(); out.ResultRows != wantRows0 {
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
		r := &ConcreteRunner{B: bouquet, Engine: eng}
		out := r.RunBasic()
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
