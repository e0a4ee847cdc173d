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
// everything downstream starved (§5.3). sums are driven's node summaries in
// post-order, as the step priced them (Coster.PriceInto): each live node
// carries its realized output cardinality and cumulative subtree cost —
// faithful by construction, since the simulation *is* the cost surface.
// Nodes appear in the plan's depth-first walk order; the stats allocate
// their slice and no more.
func (b *Bouquet) recordStep(rec *trace.Recorder, s Step, driven *plan.Node, pred int, sums []cost.Summary, start time.Time) {
	if !rec.Enabled() {
		return
	}
	wall := time.Since(start).Nanoseconds() // the step's, not its stats'
	full := b.Diagram.Plan(s.PlanID)
	nodes, _ := appendNodeStats(make([]trace.NodeStat, 0, full.NumNodes()), full, driven, sums, s.Completed, false)
	sp := trace.Span{
		Kind: trace.KindExec, Contour: s.Contour, PlanID: s.PlanID, Dim: s.Dim, Pred: pred,
		Budget: trace.SafeCost(s.Budget.F()), Spent: trace.SafeCost(s.Spent.F()),
		Completed: s.Completed, WallNanos: wall, Nodes: nodes,
	}
	if s.Completed {
		sp.Rows = int64(sums[len(sums)-1].Rows.F())
	}
	rec.Record(sp)
}

// appendNodeStats appends the stats of n's subtree to out in pre-order. The
// live nodes — driven and its descendants, live says an ancestor of n is
// driven — take their stats from sums, driven's post-order summaries,
// consuming them from the front; the others are starved. It returns out and
// the summaries left.
func appendNodeStats(out []trace.NodeStat, n, driven *plan.Node, sums []cost.Summary, done, live bool) ([]trace.NodeStat, []cost.Summary) {
	live = live || n == driven
	i := len(out)
	out = append(out, trace.NodeStat{Op: n.Op.String(), Relation: n.Relation, Starved: !live})
	if n.Left != nil {
		out, sums = appendNodeStats(out, n.Left, driven, sums, done, live)
	}
	if n.Right != nil {
		out, sums = appendNodeStats(out, n.Right, driven, sums, done, live)
	}
	if live {
		out[i].Out = int64(sums[0].Rows.F())
		out[i].EstCost = trace.SafeCost(sums[0].Cost.F())
		out[i].Done = done
		sums = sums[1:]
	}
	return out, sums
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
