package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/workload"
)

// truncatedSpaceFixture builds the HQ8a data and query but compiles the
// bouquet over an ESS whose terminus sits far below the realized join
// selectivities: every contour's budget is then insufficient, so both
// algorithms must fall through to the defensive unbudgeted terminal
// execution beyond the last contour.
func truncatedSpaceFixture(t *testing.T, seed int64) (*Bouquet, *exec.Engine, int64) {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	db := data.Generate(cat, []string{"part", "lineitem", "orders"}, map[string]data.Spec{
		"lineitem": {MatchFrac: map[string]float64{
			"l_partkey":  0.337,
			"l_orderkey": 0.456,
		}},
	}, seed)
	actual := []float64{
		db.JoinSelectivity("part", "p_partkey", "lineitem", "l_partkey"),
		db.JoinSelectivity("lineitem", "l_orderkey", "orders", "o_orderkey"),
	}
	bound, realizedSel := db.SelectionBound("part", "p_retailprice", 0.20)

	q, err := query.NewBuilder("2D_H_Q8a_trunc", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", realizedSel, false).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), true).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Terminus at 20% of the realized selectivity on every dimension:
	// q_a lies well outside the ESS, the situation §4's "beyond the last
	// contour" defence exists for.
	dims := make([]ess.Dim, q.Dims())
	for d, predID := range q.ErrorDims() {
		hi := actual[d] * 0.2
		dims[d] = ess.Dim{PredID: predID, Lo: hi * ess.DefaultLoFraction, Hi: hi, Res: 10}
	}
	space, err := ess.NewSpaceWithDims(q, dims)
	if err != nil {
		t.Fatal(err)
	}
	model := workload.EQ(1).Model
	opt := optimizer.New(cost.NewCoster(q, model))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	bindings := map[int]int64{}
	for _, p := range q.Predicates() {
		if p.Kind == query.Selection {
			bindings[p.ID] = bound
		}
	}
	eng, err := exec.NewEngine(q, db, model, bindings)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: any bouquet plan run unbudgeted yields the result.
	ref := eng.MustRun(b.Diagram.Plan(b.Contours[0].PlanIDs[0]), exec.Options{})
	if !ref.Completed {
		t.Fatal("reference run failed")
	}
	return b, eng, ref.RowsOut
}

// TestConcreteTerminalBeyondESS pins the defensive terminal path: when
// realized selectivities exceed the space's terminus, every budgeted
// step is exhausted without completing and the run finishes on one
// unbudgeted execution beyond the last contour — on both algorithms,
// both engines, with and without reuse.
func TestConcreteTerminalBeyondESS(t *testing.T) {
	b, eng, wantRows := truncatedSpaceFixture(t, 42)
	for _, workers := range []int{0, 8} {
		for _, reuse := range []bool{false, true} {
			for _, optimized := range []bool{false, true} {
				label := fmt.Sprintf("opt=%v/w%d/reuse=%v", optimized, workers, reuse)
				out := runOn(t, b, Run{Optimized: optimized, Engine: eng, Parallelism: workers, Reuse: reuse})
				if !out.Completed {
					t.Fatalf("%s: truncated-space run did not complete", label)
				}
				if out.ResultRows != wantRows {
					t.Fatalf("%s: rows %d, ground truth %d", label, out.ResultRows, wantRows)
				}
				if len(out.Steps) < 2 {
					t.Fatalf("%s: only %d steps — contours were not exhausted first", label, len(out.Steps))
				}
				for i, s := range out.Steps[:len(out.Steps)-1] {
					// A spill step's Completed means exact learning, not
					// query completion; generic steps must all abort.
					if s.Dim < 0 && s.Completed {
						t.Fatalf("%s: pre-terminal step %d completed inside a space that excludes q_a", label, i)
					}
					if math.IsInf(s.Budget.F(), 1) {
						t.Fatalf("%s: pre-terminal step %d ran unbudgeted", label, i)
					}
				}
				last := out.Steps[len(out.Steps)-1]
				if !last.Completed || !math.IsInf(last.Budget.F(), 1) {
					t.Fatalf("%s: terminal step completed=%v budget=%g, want unbudgeted completion",
						label, last.Completed, last.Budget)
				}
				if last.Contour <= len(b.Contours) {
					t.Fatalf("%s: terminal step labelled contour %d, want beyond the %d contours",
						label, last.Contour, len(b.Contours))
				}
				if last.Rows != wantRows {
					t.Fatalf("%s: terminal step rows %d, want %d", label, last.Rows, wantRows)
				}
			}
		}
	}
}

// TestConcreteTerminalReuseDifferential applies the reuse-equivalence
// contract to the terminal path specifically: the beyond-terminus run is
// where a whole run's worth of aborted builds is available to salvage.
func TestConcreteTerminalReuseDifferential(t *testing.T) {
	b, eng, _ := truncatedSpaceFixture(t, 42)
	hits := 0
	for _, workers := range []int{0, 1, 8} {
		for _, optimized := range []bool{false, true} {
			label := fmt.Sprintf("terminal/opt=%v/w%d", optimized, workers)
			hits += runReusePair(t, label, b, eng, optimized, workers)
		}
	}
	if hits == 0 {
		t.Fatal("terminal-path runs took no reuse hits")
	}
}

// TestSimulatedTerminalPick: past the terminus the simulated drivers end on
// the step the engine runs there, picked without ground truth — the last
// contour's first plan under the basic algorithm, one of its plans (the
// cheapest by estimate at q_run) under the optimized one — run unbudgeted.
// The ground-truth pick, the bouquet plan cheapest at q_a, bounds what that
// step is charged from below.
func TestSimulatedTerminalPick(t *testing.T) {
	b, _, _ := truncatedSpaceFixture(t, 42)
	qa := b.Space.Terminus().Clone()
	for d := range qa {
		qa[d] *= 5 // the realized selectivities
	}
	sels := b.Space.Sels(qa)
	truth := cost.Cost(math.Inf(1))
	for _, pid := range b.PlanIDs {
		truth = min(truth, b.execCost(b.Diagram.Plan(pid), sels))
	}
	last := b.Contours[len(b.Contours)-1]
	for name, e := range map[string]Execution{"basic": b.RunBasic(qa), "optimized": b.RunOptimized(qa)} {
		st := e.Steps[len(e.Steps)-1]
		if !e.Completed || !st.Completed || st.Contour != len(b.Contours)+1 || !math.IsInf(st.Budget.F(), 1) || !slices.Contains(last.PlanIDs, st.PlanID) {
			t.Fatalf("%s: completed %v, last step %+v, want an unbudgeted last-contour plan past contour %d", name, e.Completed, st, len(b.Contours))
		}
		if name == "basic" && st.PlanID != last.PlanIDs[0] {
			t.Fatalf("basic terminal ran plan %d, want the last contour's first plan %d", st.PlanID, last.PlanIDs[0])
		}
		if st.Spent < truth {
			t.Fatalf("%s terminal charged %v, below the ground-truth pick's %v", name, st.Spent, truth)
		}
	}
}
