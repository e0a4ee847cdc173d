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
// marked Starved. Nodes appear in full's depth-first walk order.
func (b *Bouquet) modelNodeStats(full, driven *plan.Node, sels cost.Selectivities, completed bool) []trace.NodeStat {
	det := b.execCoster().Detail(driven, sels)
	byNode := make(map[*plan.Node]cost.NodeCost, len(det))
	for _, nc := range det {
		byNode[nc.Node] = nc
	}
	out := make([]trace.NodeStat, 0, full.NumNodes())
	full.Walk(func(n *plan.Node) {
		ns := trace.NodeStat{Op: n.Op.String(), Relation: n.Relation}
		if nc, ok := byNode[n]; ok {
			ns.Out = int64(nc.Rows.F())
			ns.EstCost = trace.SafeCost(nc.TotalCost.F())
			ns.Done = completed
		} else {
			ns.Starved = true
		}
		out = append(out, ns)
	})
	return out
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
// everything downstream starved. A jettisoned step adds a budget-abort span.
func (b *Bouquet) recordStep(rec *trace.Recorder, s Step, driven *plan.Node, pred int, sels cost.Selectivities, start time.Time) {
	if !rec.Enabled() {
		return
	}
	sp := trace.Span{
		Kind: trace.KindExec, Contour: s.Contour, PlanID: s.PlanID, Dim: s.Dim, Pred: pred,
		Budget: trace.SafeCost(s.Budget.F()), Spent: trace.SafeCost(s.Spent.F()),
		Completed: s.Completed, WallNanos: time.Since(start).Nanoseconds(),
		Nodes: b.modelNodeStats(b.Diagram.Plan(s.PlanID), driven, sels, s.Completed),
	}
	if s.Completed {
		sp.Rows = int64(b.execCoster().Rows(driven, sels).F())
	}
	rec.Record(sp)
	if !s.Completed {
		rec.Record(trace.Span{
			Kind: trace.KindBudgetAbort, Contour: s.Contour, PlanID: s.PlanID, Dim: s.Dim, Pred: pred,
			Budget: trace.SafeCost(s.Budget.F()), Spent: trace.SafeCost(s.Spent.F()),
		})
	}
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
