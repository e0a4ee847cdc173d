package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/trace"
)

// ConcreteStep is one real plan execution on the engine.
type ConcreteStep struct {
	Step
	// Wall is the wall-clock duration of the execution.
	Wall time.Duration
	// Rows is the number of rows the driven node produced.
	Rows int64
	// ReuseHits counts operator-state reuse-cache hits this execution
	// took (always 0 when the runner's cache is disabled).
	ReuseHits int
	// Salvaged is the model cost those hits charged without re-executing
	// the work — included in Spent, saved on the wall clock.
	Salvaged cost.Cost
}

// ConcreteExecution is the outcome of a bouquet run on real data.
type ConcreteExecution struct {
	// Steps is the execution sequence.
	Steps []ConcreteStep
	// TotalCost is the summed charged cost, in model units.
	TotalCost cost.Cost
	// Wall is the total wall-clock time.
	Wall time.Duration
	// Completed reports whether the query finished.
	Completed bool
	// ResultRows is the final result cardinality.
	ResultRows int64
	// Learned is the discovered q_run at completion, per ESS dimension.
	Learned []float64
	// ReuseHits and SalvagedCost total the per-step reuse figures: how
	// many operator states were served from the run's cache and how much
	// charged model cost they covered. TotalCost is unaffected — the
	// budget meter charges reused subtrees in full.
	ReuseHits    int
	SalvagedCost cost.Cost
}

// NumExecs returns the number of plan executions.
func (e ConcreteExecution) NumExecs() int { return len(e.Steps) }

// ConcreteRunner drives a compiled bouquet against a real execution engine,
// discovering the actual selectivities through budgeted (and spilled)
// executions — no ground truth is consulted; everything the run-time knows
// comes from the engine's tuple counters.
type ConcreteRunner struct {
	// B is the compiled bouquet.
	B *Bouquet
	// Engine executes plans over the generated tables.
	Engine *exec.Engine
	// Trace, when non-nil, receives structured spans for the run: contour
	// entries, exec spans carrying the engine's real per-operator tuple
	// counters, the driver's spill and budget-abort spans, and
	// discovered-selectivity learn spans. nil disables recording entirely.
	Trace *trace.Recorder
	// Parallelism, when non-zero, runs every execution step on the
	// vectorized morsel-parallel engine with that many workers (batch
	// size exec.DefaultBatchSize); the engine rejects counts outside
	// 1 … exec.MaxParallelism. Zero keeps the tuple-at-a-time Volcano
	// engine. Every non-zero count gives the same run bit for bit — step
	// sequence, per-step Rows and Spent, TotalCost, Learned. Against
	// Volcano only completed steps agree (identical tuple counters): a
	// step the budget cuts short stops at a tuple there and at its last
	// committed epoch here, so its counters, the bound learned from them
	// and its Spent (crossing charge there, Budget here) can differ.
	Parallelism int
	// Reuse, when true, gives each run a fresh operator-state cache so
	// executions salvage completed join builds, sorted merge inputs, and
	// anti-join inner sets from earlier steps of the same run. Step
	// outcomes, charged costs, and learned selectivities are unchanged
	// (a hit charges the reused state's construction in full — bit for
	// bit on the vectorized engine, to float summation order on Volcano);
	// only wall-clock and allocations improve.
	Reuse bool
}

// Run executes the bouquet on the engine: the optimized algorithm (Fig. 13 —
// AxisPlans plan choice, spilled budgeted executions, selectivity learning
// from tuple counters, pincer elimination, early contour change) when
// optimized is set, the basic algorithm (Fig. 7) otherwise. ctx is checked
// between executions, never inside one; if it expires, or the engine rejects
// a step (see exec.Engine.Run), the steps so far come back with the error.
func (r *ConcreteRunner) Run(ctx context.Context, optimized bool) (ConcreteExecution, error) {
	s := &engineStepper{r: r}
	if r.Reuse {
		s.cache = exec.NewReuseCache()
	}
	var done bool
	var err error
	if optimized {
		st := r.B.newRunState(nil)
		done, err = r.B.runOptimized(ctx, s, r.Trace, st)
		s.out.Learned = st.qrun
	} else {
		done, err = r.B.runBasic(ctx, s, r.Trace, nil)
	}
	if done {
		// The finishing step's driven node is the plan root.
		s.out.Completed, s.out.ResultRows = true, s.out.Steps[len(s.out.Steps)-1].Rows
	}
	return s.out, err
}

// RunBasic is Run(context.Background(), false) for callers holding a
// compiled, validated bouquet: it panics on any error the engine reports.
func (r *ConcreteRunner) RunBasic() ConcreteExecution {
	return must(r.Run(context.Background(), false))
}

// RunOptimized is Run(context.Background(), true) for callers holding a
// compiled, validated bouquet: it panics on any error the engine reports.
func (r *ConcreteRunner) RunOptimized() ConcreteExecution {
	return must(r.Run(context.Background(), true))
}

// engineStepper is the engine stepper: executions run on exec.Engine over
// real rows, and everything the run learns comes from its tuple counters.
type engineStepper struct {
	r *ConcreteRunner
	// cache is the run's operator-state cache, nil when reuse is off.
	cache *exec.ReuseCache
	out   ConcreteExecution
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
	r, p := s.r, s.r.B.Diagram.Plan(pid)
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
		bound, completed = r.learnFromStats(spillNode(p, pred), pred, st, res)
	}
	step := ConcreteStep{
		Step: Step{Contour: c.K, PlanID: pid, Dim: dim, Budget: c.Budget, Spent: res.CostUsed, Completed: completed},
		Wall: wall, Rows: res.RowsOut, ReuseHits: res.ReuseHits, Salvaged: res.SalvagedCost,
	}
	s.out.Steps = append(s.out.Steps, step)
	s.out.TotalCost += step.Spent
	s.out.Wall += wall
	s.out.ReuseHits += step.ReuseHits
	s.out.SalvagedCost += step.Salvaged
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
	return step.Step, bound, nil
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
func (r *ConcreteRunner) learnFromStats(node *plan.Node, predID int, st *runState, res exec.Result) (float64, bool) {
	b := r.B
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
		outer := r.fullRows(node.Left, st, res)
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
		outerRows = r.fullRows(node.Left, st, res)
	case plan.OpHashJoin, plan.OpMergeJoin:
		outerRows = r.fullRows(node.Left, st, res)
		innerRows = r.fullRows(node.Right, st, res)
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
func (r *ConcreteRunner) fullRows(n *plan.Node, st *runState, res exec.Result) float64 {
	if stats := res.Stats[n]; stats != nil && stats.Done {
		return float64(stats.Out)
	}
	sels := r.B.Space.Sels(st.qrun)
	return r.B.Coster.Rows(n, sels).F()
}

// Explain renders the execution for reports.
func (e ConcreteExecution) Explain() string {
	s := ""
	for _, st := range e.Steps {
		mark := "partial"
		if st.Completed {
			mark = "done"
		}
		kind := "generic"
		if st.Dim >= 0 {
			kind = fmt.Sprintf("spill(dim %d)", st.Dim)
		}
		s += fmt.Sprintf("IC%-2d plan %-3d %-12s budget %10.4g spent %10.4g rows %8d wall %8s [%s]\n",
			st.Contour, st.PlanID, kind, st.Budget, st.Spent, st.Rows, st.Wall.Round(time.Microsecond), mark)
	}
	s += fmt.Sprintf("total cost %.4g wall %s execs %d rows %d\n", e.TotalCost, e.Wall.Round(time.Millisecond), e.NumExecs(), e.ResultRows)
	return s
}
