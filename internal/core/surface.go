package core

import (
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/trace"
)

// truth captures the simulated ground truth of one query instance: the
// full selectivity assignment at the actual location q_a.
type truth struct {
	qa   ess.Point
	sels cost.Selectivities
	opt  cost.Cost
}

func (b *Bouquet) truthAt(qa ess.Point) truth {
	sels := b.Space.Sels(qa)
	// The oracle cost: optimal plan cost at q_a. The diagram stores it
	// for grid points under the perfect model; for off-grid points or a
	// divergent actual model, the cheapest diagram plan at q_a priced
	// with the actual model is the reference (the POSP covers the
	// space).
	flat := b.Space.NearestFlat(qa)
	opt := b.Diagram.Cost(flat)
	if b.actual != nil || !b.Diagram.Covered(flat) || !onGrid(b.Space, qa, flat) {
		opt = cost.Cost(math.Inf(1))
		for _, p := range b.Diagram.Plans() {
			opt = min(opt, b.execCost(p, sels))
		}
	}
	return truth{qa: qa, sels: sels, opt: opt}
}

func onGrid(s *ess.Space, p ess.Point, flat int) bool {
	g := s.PointAt(flat)
	for d := range p {
		if math.Abs(p[d]-g[d]) > 1e-12*g[d] {
			return false
		}
	}
	return true
}

// surfaceStepper is the cost-surface stepper: an execution costs what the
// (actual) cost model says it costs at q_a, and completes iff that is
// within the budget.
type surfaceStepper struct {
	b   *Bouquet
	t   truth
	rec *trace.Recorder
	// e is the run's record but for its steps, which collect in steps:
	// in stepBuf until a run outgrows it. takeSteps hands them out.
	e       Execution
	steps   []Step
	stepBuf [16]Step
	// sums are the last driven (sub)plan's node summaries at the truth
	// selectivities, in post-order (price); the exec span's node stats
	// read them. They live in buf until a plan outgrows it, and are
	// reused across the run's steps.
	sums []cost.Summary
	buf  [16]cost.Summary
}

func (b *Bouquet) onSurface(qa ess.Point, rec *trace.Recorder) *surfaceStepper {
	t := b.truthAt(qa)
	s := &surfaceStepper{b: b, t: t, rec: rec, e: Execution{OptCost: t.opt}}
	s.steps, s.sums = s.stepBuf[:0], s.buf[:0]
	return s
}

// takeSteps returns the run's steps in one exact-size allocation (nil for
// none), so an Execution a caller keeps holds no spare capacity and no
// reference to the stepper.
func (s *surfaceStepper) takeSteps() []Step {
	if len(s.steps) == 0 {
		return nil
	}
	out := make([]Step, len(s.steps))
	copy(out, s.steps)
	return out
}

// price prices driven once at the truth selectivities, filling s.sums, and
// returns its full cost.
func (s *surfaceStepper) price(driven *plan.Node) cost.Cost {
	s.sums = s.b.execCoster().PriceInto(driven, s.t.sels, s.sums)
	return s.sums[len(s.sums)-1].Cost
}

// record folds one simulated execution of driven — plan st.PlanID, or the
// subtree of it applying pred for a spilled step — into the run; price
// has just priced driven.
func (s *surfaceStepper) record(st *Step, driven *plan.Node, pred int, start time.Time) {
	s.steps = append(s.steps, *st)
	s.e.TotalCost += st.Spent
	s.b.recordStep(s.rec, st, driven, pred, s.sums, start)
}

func (s *surfaceStepper) generic(c Contour, pid int) (Step, error) {
	t0 := stepClock(s.rec)
	p := s.b.Diagram.Plan(pid)
	st := Step{Contour: c.K, PlanID: pid, Dim: -1, Budget: c.Budget, Spent: c.Budget}
	if full := s.price(p); full <= c.Budget {
		st.Spent, st.Completed = full, true
	}
	s.record(&st, p, -1, t0)
	return st, nil
}

func (s *surfaceStepper) spill(c Contour, pid, pred, dim int, _ *runState) (Step, float64, error) {
	t0 := stepClock(s.rec)
	sub := spillNode(s.b.Diagram.Plan(pid), pred)
	spent, bound, exact := s.b.simulateSpill(sub, dim, s.t, c.Budget, s.price(sub))
	st := Step{Contour: c.K, PlanID: pid, Dim: dim, Budget: c.Budget, Spent: spent, Completed: exact}
	s.record(&st, sub, pred, t0)
	return st, bound, nil
}

// simulateSpill models a budgeted spilled execution of the subtree under
// ground truth t, learning dimension dim, given full, the subtree's cost at
// t: if that fits the budget the dimension is learned exactly (= q_a's
// value); otherwise the learned lower bound is the largest selectivity s
// such that the subtree, priced with dim at s, stays within budget.
// Monotonicity of the cost in s makes binary search exact enough; the bound
// never exceeds q_a, so the first-quadrant invariant is preserved.
func (b *Bouquet) simulateSpill(sub *plan.Node, dim int, t truth, budget, full cost.Cost) (spent cost.Cost, bound float64, exact bool) {
	if full <= budget {
		return full, t.qa[dim], true
	}

	// Partial execution: find the selectivity frontier reached. The
	// subtree executes against actual selectivities: all its error
	// predicates are either dim itself or already-learned (== q_a).
	predID := b.Query.ErrorDims()[dim]
	sels := t.sels.Clone()
	lo, hi := 0.0, t.qa[dim]
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		sels[predID] = cost.Sel(mid)
		if b.execCost(sub, sels) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return budget, lo, false
}
