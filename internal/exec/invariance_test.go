package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// outcomeDiff compares everything the bouquet runtime reads off a
// vectorized run — the verdict, the charged cost bit for bit, the driven
// node's rows and every per-node counter — and describes the first
// difference ("" when there is none).
func outcomeDiff(a, b Result) string {
	if a.Completed != b.Completed {
		return fmt.Sprintf("completed %v vs %v", a.Completed, b.Completed)
	}
	if math.Float64bits(a.CostUsed.F()) != math.Float64bits(b.CostUsed.F()) {
		return fmt.Sprintf("cost %v (%#x) vs %v (%#x)", a.CostUsed, math.Float64bits(a.CostUsed.F()), b.CostUsed, math.Float64bits(b.CostUsed.F()))
	}
	if a.RowsOut != b.RowsOut {
		return fmt.Sprintf("rows %d vs %d", a.RowsOut, b.RowsOut)
	}
	if len(a.Stats) != len(b.Stats) {
		return fmt.Sprintf("stats cover %d vs %d nodes", len(a.Stats), len(b.Stats))
	}
	for node, sa := range a.Stats {
		sb := b.Stats[node]
		if sb == nil {
			return fmt.Sprintf("%v node has no counters on one side", node.Op)
		}
		if sa.Out != sb.Out || sa.InTuples != sb.InTuples || sa.Matches != sb.Matches ||
			sa.Done != sb.Done || sa.InputsDone != sb.InputsDone {
			return fmt.Sprintf("%v node: %+v vs %+v", node.Op, *sa, *sb)
		}
		if len(sa.PassBy) != len(sb.PassBy) {
			return fmt.Sprintf("%v node: PassBy %v vs %v", node.Op, sa.PassBy, sb.PassBy)
		}
		for id, n := range sa.PassBy {
			if sb.PassBy[id] != n {
				return fmt.Sprintf("%v node: PassBy %v vs %v", node.Op, sa.PassBy, sb.PassBy)
			}
		}
	}
	return ""
}

// TestWorkerCountInvariance is the counts-then-commit contract as a
// property: what a vectorized run reports is a function of the plan, the
// data and the budget — not of the worker count, the schedule, or whether
// the reuse cache was off, cold or warm. Every run of a case must equal
// the one-worker cache-free run in verdict, CostUsed bits, RowsOut and
// every counter, and an aborted run is charged exactly its budget. The
// WorkMemBytes=1 engine makes every build and sort spill, which covers
// the spilled probe's page-per-spillEvery-inputs class; the 8× fixture's
// scans are long enough for epochs that fork.
func TestWorkerCountInvariance(t *testing.T) {
	reps := 10
	if testing.Short() {
		reps = 2
	}
	fx := newFixture(t)
	tiny := cost.Postgres()
	tiny.P.WorkMemBytes = 1
	spillEng, err := NewEngine(fx.q, fx.db, tiny, fx.bindings)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0}
	all := []string{"hj", "mj", "nl", "nlFold", "agg", "gagg"}
	workerCountInvariance(t, "mem", fx, fx.eng, all, fracs, reps)
	workerCountInvariance(t, "spilling", fx, spillEng, []string{"hj", "mj"}, fracs, reps)
	big := newFixtureScaled(t, 8)
	workerCountInvariance(t, "8x", big, big.eng, []string{"hj", "mj", "nl", "gagg"}, []float64{0.2, 0.6}, 2)
}

func workerCountInvariance(t *testing.T, engName string, fx *fixture, eng *Engine, names []string, fracs []float64, reps int) {
	plans := map[string]*plan.Node{
		"agg":  plan.NewAggregate(fx.plans["hj"]),
		"gagg": plan.NewGroupAggregate(fx.plans["mj"], "orders", "o_id"),
	}
	for name, p := range fx.plans {
		plans[name] = p
	}
	for _, name := range names {
		p := plans[name]
		for _, spill := range []bool{false, true} {
			base := vopts(1)
			base.Spill, base.SpillPred = spill, 1
			full := eng.MustRun(p, base).CostUsed
			budgets := []cost.Cost{0, cost.Cost(math.Nextafter(full.F(), 0))} // 0 = unbudgeted
			for _, f := range fracs {
				budgets = append(budgets, full*cost.Cost(f))
			}
			warm := NewReuseCache()
			eng.MustRun(p, withReuse(base, warm))
			for _, budget := range budgets {
				label := fmt.Sprintf("%s/%s/spill=%v/budget=%g", engName, name, spill, budget.F())
				base.Budget = budget
				want := eng.MustRun(p, base)
				if !want.Completed && want.CostUsed != budget {
					t.Errorf("%s: aborted run charged %v, want exactly the budget", label, want.CostUsed)
				}
				if want.Completed != (budget == 0 || budget >= full) {
					t.Errorf("%s: completed=%v against full cost %v", label, want.Completed, full)
				}
				for rep := 0; rep < reps; rep++ {
					for _, workers := range []int{1, 2, 8, 32} {
						o := base
						o.Parallelism = workers
						for mode, cache := range map[string]*ReuseCache{"off": nil, "cold": NewReuseCache(), "warm": warm} {
							got := eng.MustRun(p, withReuse(o, cache))
							if d := outcomeDiff(want, got); d != "" {
								t.Fatalf("%s: w%d reuse=%s rep %d differs from w1: %s", label, workers, mode, rep, d)
							}
						}
					}
				}
			}
		}
	}
}
