package core

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/trace"
)

// engineStepper is the engine stepper: executions run on r.Engine over real
// rows, and everything the run learns comes from its tuple counters — no
// ground truth is consulted.
type engineStepper struct {
	b *Bouquet
	r Run
	// cache is the run's operator-state cache, nil when reuse is off.
	cache *exec.ReuseCache
	e     Execution
}

func (s *engineStepper) generic(c Contour, pid int) (Step, error) {
	step, _, err := s.spill(c, pid, -1, -1, nil)
	return step, err
}

// spill executes plan pid under c's budget — spilled at pred to learn dim
// from state st, or the whole plan when pred < 0 — and folds the step into
// the run: the step list, the cost/wall/reuse totals, and the exec trace
// span carrying the engine's per-operator counters in plan walk order.
func (s *engineStepper) spill(c Contour, pid, pred, dim int, st *runState) (Step, float64, error) {
	r, p := s.r, s.b.Diagram.Plan(pid)
	opts := exec.Options{Budget: c.Budget, Spill: pred >= 0, SpillPred: pred, Reuse: s.cache}
	if r.Parallelism != 0 {
		opts.Vectorized, opts.BatchSize, opts.Parallelism = true, exec.DefaultBatchSize, r.Parallelism
	}
	t0 := time.Now()
	res, err := r.Engine.Run(p, opts)
	wall := time.Since(t0)
	if err != nil {
		return Step{}, 0, fmt.Errorf("core: contour %d plan %d: %w", c.K, pid, err)
	}
	completed, bound := res.Completed, 0.0
	if pred >= 0 {
		bound, completed = s.b.learnFromStats(spillNode(p, pred), pred, st, res)
	}
	step := Step{
		Contour: c.K, PlanID: pid, Dim: dim, Budget: c.Budget, Spent: res.CostUsed, Completed: completed,
		Wall: wall, Rows: res.RowsOut, ReuseHits: res.ReuseHits, Salvaged: res.SalvagedCost,
	}
	s.e.Steps = append(s.e.Steps, step)
	s.e.TotalCost += step.Spent
	s.e.Wall += wall
	s.e.ReuseHits += step.ReuseHits
	s.e.SalvagedCost += step.Salvaged
	if r.Trace.Enabled() {
		r.Trace.Record(trace.Span{
			Kind: trace.KindExec, Contour: c.K, PlanID: pid, Dim: dim, Pred: pred,
			Budget: trace.SafeCost(c.Budget.F()), Spent: trace.SafeCost(step.Spent.F()),
			Rows: step.Rows, Completed: completed, WallNanos: wall.Nanoseconds(),
			Batches: res.Batches, Workers: res.Workers,
			ReuseHits: step.ReuseHits, SalvagedCost: trace.SafeCost(step.Salvaged.F()),
			Nodes: res.TraceNodes(p),
		})
	}
	return step, bound, nil
}

// learnFromStats derives the running selectivity lower bound for predID
// from a spilled execution's tuple counters (§5.2):
//
//   - selection predicate at a scan: pass-count / |R| with |R| the exact
//     relation cardinality — a sound lower bound even for partial scans;
//   - join predicate: match-count / (|outer| · |inner|); completed inputs
//     use exact drained counts, incomplete outer cardinalities fall back
//     to the error-free estimate, exactly as the paper divides by |S|e·|L'|e.
//
// exact is true when the spilled subtree ran to completion, in which case
// the bound is the true selectivity.
func (b *Bouquet) learnFromStats(node *plan.Node, predID int, st *runState, res exec.Result) (float64, bool) {
	stats := res.Stats[node]
	if stats == nil {
		return 0, false
	}
	pred := b.Query.Predicate(predID)
	cat := b.Query.Catalog

	if pred.Kind == query.Selection {
		card := float64(cat.MustRelation(pred.Left.Relation).Card)
		return float64(stats.PassBy[predID]) / card, res.Completed
	}

	if pred.Kind == query.AntiJoin {
		// The pass fraction of outer rows surviving the NOT EXISTS.
		outer := b.fullRows(node.Left, st, res)
		if outer <= 0 {
			return 0, false
		}
		return float64(stats.PassBy[predID]) / outer, res.Completed
	}

	// Join predicate: establish the two input cardinalities.
	var outerRows, innerRows float64
	switch node.Op {
	case plan.OpIndexNLJoin:
		innerRows = float64(cat.MustRelation(node.Relation).Card)
		outerRows = b.fullRows(node.Left, st, res)
	case plan.OpHashJoin, plan.OpMergeJoin:
		outerRows = b.fullRows(node.Left, st, res)
		innerRows = b.fullRows(node.Right, st, res)
	default:
		return 0, false
	}
	if outerRows <= 0 || innerRows <= 0 {
		return 0, false
	}
	return float64(stats.Matches) / (outerRows * innerRows), res.Completed
}

// fullRows returns the total output cardinality of a subtree: the exact
// drained count when the subtree completed, otherwise the cost model's
// estimate at q_run (error-free inputs by AxisPlans' deep-node preference).
func (b *Bouquet) fullRows(n *plan.Node, st *runState, res exec.Result) float64 {
	if stats := res.Stats[n]; stats != nil && stats.Done {
		return float64(stats.Out)
	}
	sels := b.Space.Sels(st.qrun)
	return b.Coster.Rows(n, sels).F()
}
