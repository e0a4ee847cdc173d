package core

import (
	"time"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/trace"
)

// Span helpers for the run drivers. Every span construction below is guarded
// behind rec.Enabled(), so a nil recorder costs the drivers' hot loops
// nothing — core's alloc parity test pins it.

// modelNodeStats derives per-operator stats for a simulated execution from
// the cost model: each node of the driven subtree carries its realized
// output cardinality and cumulative subtree cost at sels — faithful by
// construction, since the simulation *is* the cost surface. Nodes of full
// outside driven (a spilled execution's starved downstream, §5.3) are
// marked Starved. Nodes appear in full's depth-first walk order. The
// second result is driven's own output cardinality. One walk of full
// prices driven and emits the stats: children are priced before their
// parent, into slots claimed on the way down.
func (b *Bouquet) modelNodeStats(full, driven *plan.Node, sels cost.Selectivities, completed bool) ([]trace.NodeStat, cost.Card) {
	w := nodeStatWalk{coster: b.execCoster(), sels: sels, driven: driven, completed: completed}
	w.out = make([]trace.NodeStat, 0, full.NumNodes())
	w.visit(full, false)
	return w.out, w.rows
}

// nodeStatWalk is modelNodeStats' state: a method on it, not a closure over
// plan.Node.Walk, so that a step's stats allocate their slice and no more.
type nodeStatWalk struct {
	coster    *cost.Coster
	sels      cost.Selectivities
	driven    *plan.Node
	completed bool
	out       []trace.NodeStat
	rows      cost.Card // driven's output cardinality
}

// visit appends n's subtree in pre-order and returns n's summary; live says
// an ancestor of n is the driven node. Outside the driven subtree nothing
// is priced and the summary is zero.
func (w *nodeStatWalk) visit(n *plan.Node, live bool) cost.Summary {
	live = live || n == w.driven
	i := len(w.out)
	w.out = append(w.out, trace.NodeStat{Op: n.Op.String(), Relation: n.Relation, Starved: !live})
	var left, right cost.Summary
	if n.Left != nil {
		left = w.visit(n.Left, live)
	}
	if n.Right != nil {
		right = w.visit(n.Right, live)
	}
	if !live {
		return cost.Summary{}
	}
	sum := w.coster.PriceStep(n, left, right, w.sels)
	w.out[i].Out = int64(sum.Rows.F())
	w.out[i].EstCost = trace.SafeCost(sum.Cost.F())
	w.out[i].Done = w.completed
	if n == w.driven {
		w.rows = sum.Rows
	}
	return sum
}

// recordContour emits the span marking the run entering contour c.
func recordContour(rec *trace.Recorder, c Contour) {
	if !rec.Enabled() {
		return
	}
	rec.Record(trace.Span{
		Kind: trace.KindContour, Contour: c.K, PlanID: -1, Dim: -1, Pred: -1,
		Budget: trace.SafeCost(c.Budget.F()),
	})
}

// recordStep emits the exec span for one abstract step that executed driven:
// the whole plan s.PlanID for a generic step (pred -1), or for a spilled
// step the subtree applying pred — the predicate it learned — with
// everything downstream starved.
func (b *Bouquet) recordStep(rec *trace.Recorder, s Step, driven *plan.Node, pred int, sels cost.Selectivities, start time.Time) {
	if !rec.Enabled() {
		return
	}
	wall := time.Since(start).Nanoseconds() // the step's, not its stats'
	nodes, rows := b.modelNodeStats(b.Diagram.Plan(s.PlanID), driven, sels, s.Completed)
	sp := trace.Span{
		Kind: trace.KindExec, Contour: s.Contour, PlanID: s.PlanID, Dim: s.Dim, Pred: pred,
		Budget: trace.SafeCost(s.Budget.F()), Spent: trace.SafeCost(s.Spent.F()),
		Completed: s.Completed, WallNanos: wall, Nodes: nodes,
	}
	if s.Completed {
		sp.Rows = int64(rows.F())
	}
	rec.Record(sp)
}

// recordSpill emits the span marking the pipeline broken above pred's node
// of plan pid for a spilled step on contour c learning dim (§5.3); the
// driver records it before the step runs.
func recordSpill(rec *trace.Recorder, c Contour, pid, dim, pred int) {
	if !rec.Enabled() {
		return
	}
	rec.Record(trace.Span{
		Kind: trace.KindSpill, Contour: c.K, PlanID: pid, Dim: dim, Pred: pred,
		Budget: trace.SafeCost(c.Budget.F()),
	})
}

// recordAbort emits the budget-abort span for step s, spilled at pred (-1
// for a generic step), when the budget cut it short; the driver records it
// after the step's exec span, which carries the step's rows and counters.
func recordAbort(rec *trace.Recorder, s Step, pred int) {
	if !rec.Enabled() || s.Completed {
		return
	}
	rec.Record(trace.Span{
		Kind: trace.KindBudgetAbort, Contour: s.Contour, PlanID: s.PlanID, Dim: s.Dim, Pred: pred,
		Budget: trace.SafeCost(s.Budget.F()), Spent: trace.SafeCost(s.Spent.F()),
	})
}

// recordLearn emits the discovered-selectivity span: q_run moved along dim
// to sel (exact when the spilled subtree ran to completion, §5.2).
func recordLearn(rec *trace.Recorder, contour, planID, dim, predID int, sel float64, exact bool) {
	if !rec.Enabled() {
		return
	}
	rec.Record(trace.Span{
		Kind: trace.KindLearn, Contour: contour, PlanID: planID, Dim: dim, Pred: predID,
		Sel: sel, Completed: exact,
	})
}

// stepClock returns the step start time for wall measurement, or the zero
// time (no syscall) when tracing is disabled.
func stepClock(rec *trace.Recorder) time.Time {
	if !rec.Enabled() {
		return time.Time{}
	}
	return time.Now()
}
