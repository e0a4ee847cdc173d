package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// Differential tests for cross-step operator-state reuse: a run with
// Reuse on must be indistinguishable from the same run with Reuse off in
// everything the bouquet protocol observes — step sequence, budgets,
// completion outcomes, per-step rows, learned selectivities, result rows.
// On the vectorized engine, at any worker count, that includes every
// step's charged cost bit for bit (a hit replays the integer counts a
// rebuild would commit); Volcano's hits are one float lump where the
// rebuild adds tuple by tuple, so its costs agree to summation order.

// assertReuseEquivalent compares a Reuse-off run against a Reuse-on run
// of the same configuration; volcano selects that engine's cost contract.
func assertReuseEquivalent(t *testing.T, label string, off, on ConcreteExecution, volcano bool) {
	t.Helper()
	if off.ReuseHits != 0 || off.SalvagedCost != 0 {
		t.Fatalf("%s: reuse-off run reported hits=%d salvaged=%g", label, off.ReuseHits, off.SalvagedCost)
	}
	if len(on.Steps) != len(off.Steps) {
		t.Fatalf("%s: %d steps with reuse, %d without", label, len(on.Steps), len(off.Steps))
	}
	sameCost := func(a, b cost.Cost) bool {
		if !volcano {
			return a == b
		}
		return math.Abs((a - b).F()) <= 1e-9*math.Max(1, math.Abs(a.F()))
	}
	for i := range off.Steps {
		a, b := off.Steps[i], on.Steps[i]
		if a.Contour != b.Contour || a.PlanID != b.PlanID || a.Dim != b.Dim ||
			a.Budget != b.Budget || a.Completed != b.Completed {
			t.Fatalf("%s: step %d diverged: off %+v vs on %+v", label, i, a.Step, b.Step)
		}
		if a.Rows != b.Rows {
			t.Fatalf("%s: step %d rows %d with reuse, %d without", label, i, b.Rows, a.Rows)
		}
		if !sameCost(a.Spent, b.Spent) {
			t.Fatalf("%s: step %d spent %g with reuse, %g without", label, i, b.Spent, a.Spent)
		}
		if b.Salvaged > b.Spent {
			t.Fatalf("%s: step %d salvaged %g exceeds spent %g", label, i, b.Salvaged, b.Spent)
		}
	}
	if on.Completed != off.Completed || on.ResultRows != off.ResultRows {
		t.Fatalf("%s: outcome (completed=%v rows=%d) with reuse, (completed=%v rows=%d) without",
			label, on.Completed, on.ResultRows, off.Completed, off.ResultRows)
	}
	if !sameCost(off.TotalCost, on.TotalCost) {
		t.Fatalf("%s: total cost %g with reuse, %g without", label, on.TotalCost, off.TotalCost)
	}
	if !slices.Equal(on.Learned, off.Learned) {
		t.Fatalf("%s: learned %v with reuse, %v without", label, on.Learned, off.Learned)
	}
}

// runReusePair runs one (algorithm, workers) configuration with reuse
// off and on, asserts equivalence, and returns the reuse run's hit count.
func runReusePair(t *testing.T, label string, b *Bouquet, eng *exec.Engine, optimized bool, workers int) int {
	t.Helper()
	off := ConcreteRunner{B: b, Engine: eng, Parallelism: workers}
	on := ConcreteRunner{B: b, Engine: eng, Parallelism: workers, Reuse: true}
	var offOut, onOut ConcreteExecution
	if optimized {
		offOut, onOut = off.RunOptimized(), on.RunOptimized()
	} else {
		offOut, onOut = off.RunBasic(), on.RunBasic()
	}
	assertReuseEquivalent(t, label, offOut, onOut, workers == 0)
	return onOut.ReuseHits
}

// TestConcreteReuseDifferentialHQ8a runs the Table-3 workload with reuse
// on and off across both algorithms, both engines, and worker counts 1
// and 8, asserting protocol equivalence — and that the reuse runs
// actually salvage state (the whole point).
func TestConcreteReuseDifferentialHQ8a(t *testing.T) {
	_, r, _ := concreteFixture(t, 42)
	hits := 0
	for _, workers := range []int{0, 1, 8} {
		for _, optimized := range []bool{false, true} {
			label := fmt.Sprintf("HQ8a/opt=%v/w%d", optimized, workers)
			hits += runReusePair(t, label, r.B, r.Engine, optimized, workers)
		}
	}
	if hits == 0 {
		t.Fatal("no configuration took a single reuse hit")
	}
}

// TestConcreteReuseDifferentialHQ5a extends the differential to the
// three-dimensional discovery workload.
func TestConcreteReuseDifferentialHQ5a(t *testing.T) {
	rw, err := workload.HQ5a(42)
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
	hits := 0
	for _, workers := range []int{0, 8} {
		for _, optimized := range []bool{false, true} {
			label := fmt.Sprintf("HQ5a/opt=%v/w%d", optimized, workers)
			hits += runReusePair(t, label, b, eng, optimized, workers)
		}
	}
	if hits == 0 {
		t.Fatal("no configuration took a single reuse hit")
	}
}

// TestConcreteReuseDifferentialTenWorkloads is the acceptance-level
// sweep: every Table-2 workload, rebuilt at a small scale factor and
// compiled into a bouquet, must run identically with reuse on and off —
// both algorithms, both engines.
func TestConcreteReuseDifferentialTenWorkloads(t *testing.T) {
	worker := []int{0, 8}
	if testing.Short() {
		worker = worker[:1]
	}
	totalHits := 0
	for _, w := range workload.AllAt(0.004, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			q := w.Query
			db := data.Generate(q.Catalog, q.Relations(), nil, 1234)
			// The ten workloads are join-only, so no selection bindings.
			eng, err := exec.NewEngine(q, db, w.Model, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt := optimizer.New(cost.NewCoster(q, w.Model))
			b, err := Compile(opt, w.Space, CompileOptions{Lambda: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range worker {
				for _, optimized := range []bool{false, true} {
					label := fmt.Sprintf("%s/opt=%v/w%d", w.Name, optimized, workers)
					totalHits += runReusePair(t, label, b, eng, optimized, workers)
				}
			}
		})
	}
	if totalHits == 0 {
		t.Fatal("ten-workload sweep took no reuse hits at all")
	}
}
