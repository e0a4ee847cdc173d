package exec_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/anorexic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestPrunedRunsMatchFullWidth pins that column pruning changes nothing a
// run reports. A run without Collect carries only the columns its
// operators read — none at all above a join whose rows only feed a count —
// while a run with Collect carries every column; the two must agree on the
// verdict, the bits of CostUsed, RowsOut and every node's counters — so
// the width-dependent charges (hash-join page rows and grace spill,
// merge-join sort spill) must price the unpruned width, which an engine
// with 10 kB of work memory tells apart from the pruned one. Plans: the
// fixture's, aggregates over them, and every plan of the ten Table-2
// bouquets; runs: Volcano and the vectorized engine at one and eight
// workers, unbudgeted and at nine budgets up to one ULP under the full
// cost, plain and spilled, with reuse off, cold and warm (one warm cache
// shared by both widths, so a state cached at one width must never serve
// the other). The fixture's plans run the whole cross product; a bouquet
// plan, and a fixture plan on the spilling engine, runs each budget under
// one (engine, reuse mode) pair, in rotation.
func TestPrunedRunsMatchFullWidth(t *testing.T) {
	eng, spilling, fixture := exec.FixtureForTest(t)
	plans := map[string]*plan.Node{
		"count-over-zero-width-join": plan.NewAggregate(fixture["hj"]),
		"count-over-merge-join":      plan.NewAggregate(fixture["mj"]),
		"count-over-index-nl":        plan.NewAggregate(fixture["nlFold"]),
		"group-count":                plan.NewGroupAggregate(fixture["mj"], "orders", "o_id"),
	}
	for name, p := range fixture {
		plans[name] = p
	}
	for name, p := range plans {
		t.Run("fixture/"+name, func(t *testing.T) { prunedMatchesFull(t, eng, p, true) })
		t.Run("work-mem-spill/"+name, func(t *testing.T) { prunedMatchesFull(t, spilling, p, false) })
	}

	for _, w := range workload.AllAt(0.001, 3) {
		t.Run(w.Name, func(t *testing.T) {
			q := w.Query
			eng, err := exec.NewEngine(q, data.Generate(q.Catalog, q.Relations(), nil, 1234), w.Model, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt := optimizer.New(cost.NewCoster(q, w.Model))
			b, err := core.Compile(opt, w.Space, core.CompileOptions{Lambda: anorexic.DefaultLambda})
			if err != nil {
				t.Fatal(err)
			}
			ids := b.PlanIDs
			if testing.Short() {
				ids = ids[:1]
			}
			for _, id := range ids {
				p := b.Diagram.Plan(id)
				t.Run(fmt.Sprint(id), func(t *testing.T) { prunedMatchesFull(t, eng, p, false) })
			}
		})
	}
}

func prunedMatchesFull(t *testing.T, eng *exec.Engine, p *plan.Node, exhaustive bool) {
	t.Helper()
	spillPred := -1
	p.Walk(func(n *plan.Node) {
		if len(n.Preds) > 0 && n != p {
			spillPred = n.Preds[0]
		}
	})
	cfgs := []string{"volcano", "vec-w1", "vec-w8"}
	configs := map[string]exec.Options{
		"volcano": {},
		"vec-w1":  {Vectorized: true, BatchSize: exec.DefaultBatchSize, Parallelism: 1},
		"vec-w8":  {Vectorized: true, BatchSize: exec.DefaultBatchSize, Parallelism: 8},
	}
	modes := []string{"off", "cold", "warm"}
	collect := func(o exec.Options) exec.Options {
		o.Collect = func([]int64) {}
		return o
	}
	for _, spill := range []bool{false, true} {
		if spill && spillPred < 0 {
			continue
		}
		at := func(cfg string) exec.Options {
			o := configs[cfg]
			o.Spill, o.SpillPred = spill, spillPred
			return o
		}
		full := eng.MustRun(p, at("vec-w1")).CostUsed
		budgets := []cost.Cost{0, cost.Cost(math.Nextafter(full.F(), 0))}
		for _, f := range []float64{0.02, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99} {
			budgets = append(budgets, full*cost.Cost(f))
		}
		warm := exec.NewReuseCache()
		for _, cfg := range cfgs {
			eng.MustRun(p, withCache(at(cfg), warm))
			eng.MustRun(p, withCache(collect(at(cfg)), warm))
		}
		for i, budget := range budgets {
			for ci, cfg := range cfgs {
				for mi, mode := range modes {
					// Short of the cross product, budget i takes one
					// (engine, reuse) pair, and ten budgets cover all nine.
					if !exhaustive && (ci != i%len(cfgs) || mi != i/len(cfgs)%len(modes)) {
						continue
					}
					cache := map[string]*exec.ReuseCache{"off": nil, "cold": exec.NewReuseCache(), "warm": warm}[mode]
					o := at(cfg)
					o.Budget = budget
					pruned := eng.MustRun(p, withCache(o, cache))
					wide := eng.MustRun(p, withCache(collect(o), cache))
					if d := exec.OutcomeDiff(pruned, wide); d != "" {
						t.Fatalf("%s spill=%v budget=%g reuse=%s: pruned differs from full width: %s",
							cfg, spill, budget.F(), mode, d)
					}
				}
			}
		}
	}
}

func withCache(o exec.Options, c *exec.ReuseCache) exec.Options {
	o.Reuse = c
	return o
}
