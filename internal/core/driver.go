package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/floats"
	"repro/internal/trace"
)

// Step records one (possibly partial) plan execution of a bouquet run.
type Step struct {
	// Contour is the 1-based isocost step index the execution ran under.
	Contour int
	// PlanID is the diagram ID of the executed plan.
	PlanID int
	// Dim is the ESS dimension a spilled execution was learning, or -1
	// for a generic (full-plan) execution.
	Dim int
	// Budget is the cost limit the execution ran under.
	Budget cost.Cost
	// Spent is the cost charged. For a step the budget cut short that is
	// Budget itself on the cost surface and on the vectorized engine, and
	// Budget plus the crossing tuple's charge on the Volcano engine.
	Spent cost.Cost
	// Completed reports whether the driven (sub)plan ran to completion
	// within the budget.
	Completed bool
}

// Execution is the outcome of one bouquet run at one query location.
type Execution struct {
	// Steps is the full execution sequence, in order.
	Steps []Step
	// TotalCost is the summed cost of all steps (exploration overheads
	// included), i.e. c_b(q_a) of §2.
	TotalCost cost.Cost
	// OptCost is the oracle cost c_oa(q_a), the SubOpt denominator.
	OptCost cost.Cost
	// Completed reports whether the query finished (always true for
	// in-space locations; kept for harness assertions).
	Completed bool
}

// SubOpt returns SubOpt(*, q_a) = TotalCost / OptCost (Eq. 1 adapted to
// the bouquet per §2).
func (e Execution) SubOpt() float64 { return e.TotalCost.Over(e.OptCost).F() }

// NumExecs returns the number of plan executions (partial + final).
func (e Execution) NumExecs() int { return len(e.Steps) }

// String renders a compact trace like "IC3:P2(✓)".
func (e Execution) String() string {
	var sb strings.Builder
	for i, s := range e.Steps {
		if i > 0 {
			sb.WriteString(" → ")
		}
		mark := "…"
		if s.Completed {
			mark = "✓"
		}
		fmt.Fprintf(&sb, "IC%d:P%d(%s)", s.Contour, s.PlanID, mark)
	}
	fmt.Fprintf(&sb, " cost=%.4g subopt=%.2f", e.TotalCost.F(), e.SubOpt())
	return sb.String()
}

// stepper is the substrate a bouquet run executes on. The Fig. 7 / Fig. 13
// policy in this file decides what runs next and records the control spans
// (spill before a spilled step, budget-abort after one that did not
// complete); a stepper only executes: it runs the step, folds it into its
// own execution record, records the step's exec span with its own node
// stats, and returns the step. surfaceStepper prices executions on the
// optimizer's cost surface (the grid metrics, Figs. 14–17), engineStepper
// runs them on exec.Engine over real rows (Table 3); the two numbers thus
// describe one algorithm.
type stepper interface {
	// generic executes plan pid cost-limited under c's budget.
	generic(c Contour, pid int) (Step, error)
	// spill executes, under c's budget, the subtree of plan pid rooted at
	// the node applying pred, to learn dimension dim from state st (§5.3).
	// bound is the selectivity lower bound established: the true value
	// when the step completed.
	spill(c Contour, pid, pred, dim int, st *runState) (step Step, bound float64, err error)
}

// must unwraps a run whose context is never cancelled, so that an error can
// only be a contract violation by the stepper underneath.
func must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

// runBasic is the basic bouquet algorithm (Fig. 7) over s: contour by
// contour, execute each contour plan under the contour budget until one
// completes. A seed known to be a component-wise underestimate of q_a (§8)
// skips the contours below it; nil starts at IC1. It reports whether the
// query finished.
func (b *Bouquet) runBasic(ctx context.Context, s stepper, rec *trace.Recorder, seed ess.Point) (bool, error) {
	start := 0
	if seed != nil {
		floor := b.optCostAtFloor(seed)
		for start < len(b.Contours)-1 && b.Contours[start].RawBudget < floor {
			start++
		}
	}
	for _, c := range b.Contours[start:] {
		recordContour(rec, c)
		for _, pid := range c.PlanIDs {
			// Cooperative cancellation between contour steps, not
			// merely between contours: a dense contour can hold ρ
			// budgeted executions, and a server deadline must not
			// wait out all of them.
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if done, err := b.generic(s, rec, c, pid); done || err != nil {
				return done, err
			}
		}
	}
	return b.terminal(ctx, s, rec, b.Contours[len(b.Contours)-1].PlanIDs[0])
}

// runOptimized is the optimized bouquet algorithm (Fig. 13) over s from run
// state st: q_run tracking, AxisPlans plan selection, spill-driven
// selectivity learning, pincer elimination and early contour change. It
// reports whether the query finished.
func (b *Bouquet) runOptimized(ctx context.Context, s stepper, rec *trace.Recorder, st *runState) (bool, error) {
	for _, c := range b.Contours {
		if done, err := b.runContour(ctx, s, rec, c, st); done || err != nil {
			return done, err
		}
	}
	last := b.Contours[len(b.Contours)-1]
	return b.terminal(ctx, s, rec, b.cheapest(last.PlanIDs, b.Space.Sels(st.qrun)))
}

// terminal finishes the query with one unbudgeted execution of pid beyond
// the last contour: q_a lies past the terminus, or every plan failed under
// a divergent actual model. The choice of pid is the caller's, from what a
// run knows without ground truth: the last contour's first plan under the
// basic algorithm, its cheapest plan by estimate at q_run under the
// optimized one.
func (b *Bouquet) terminal(ctx context.Context, s stepper, rec *trace.Recorder, pid int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.generic(s, rec, Contour{K: len(b.Contours) + 1, Budget: cost.Cost(math.Inf(1))}, pid)
}

// generic executes plan pid on s under c's budget, records the budget-abort
// span if it did not complete, and reports whether it completed, which
// finishes the query.
func (b *Bouquet) generic(s stepper, rec *trace.Recorder, c Contour, pid int) (bool, error) {
	step, err := s.generic(c, pid)
	if err != nil {
		return false, err
	}
	recordAbort(rec, step, -1)
	return step.Completed, nil
}

// runContour processes one contour of the optimized algorithm and reports
// whether the query completed. ctx is consulted before every execution
// decision, so cancellation aborts between contour steps rather than only
// between contours. Per contour, each plan is executed at most twice (once
// spilled, once generically); plans are eliminated without execution when
// their abstract cost at q_run already exceeds the budget — the
// first-quadrant invariant q_run ≤ q_a plus PCM certifies they cannot
// complete at q_a either (§5.1's pincer elimination). The contour is left
// when either q_run provably crossed it, or every plan has been eliminated
// or has failed.
func (b *Bouquet) runContour(ctx context.Context, s stepper, rec *trace.Recorder, c Contour, st *runState) (done bool, err error) {
	recordContour(rec, c)
	remaining := slices.Clone(c.PlanIDs)
	drop := func(pid int) { remaining = slices.DeleteFunc(remaining, func(id int) bool { return id == pid }) }
	spilled := make(map[int]bool, len(c.PlanIDs))

	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// Early contour change (Fig. 13): the optimal cost at (the
		// floor of) q_run already exceeds this step, so q_a lies
		// beyond the contour.
		if b.optCostAtFloor(st.qrun) > c.RawBudget {
			return false, nil
		}
		// Pincer elimination: drop plans whose cost at q_run already
		// exceeds the budget.
		qrunSels := b.Space.Sels(st.qrun)
		remaining = slices.DeleteFunc(remaining, func(pid int) bool {
			return b.Coster.Cost(b.Diagram.Plan(pid), qrunSels) > c.Budget
		})
		if len(remaining) == 0 {
			// Every contour plan is certified to fail at q_a.
			return false, nil
		}

		// Prefer a spilled learning execution chosen by AxisPlans,
		// restricted to plans not yet spilled on this contour.
		cands := slices.DeleteFunc(b.axisPlans(st, c), func(cand axisCandidate) bool {
			return !slices.Contains(remaining, cand.planID) || spilled[cand.planID]
		})
		if len(cands) > 0 {
			cand := pickCandidate(cands)
			spilled[cand.planID] = true
			dim := b.Query.DimOf(cand.learnID)
			recordSpill(rec, c, cand.planID, dim, cand.learnID)
			step, bound, err := s.spill(c, cand.planID, cand.learnID, dim, st)
			if err != nil {
				return false, err
			}
			recordAbort(rec, step, cand.learnID)
			exact := step.Completed
			// Only ever raising q_run keeps the first-quadrant
			// invariant (§5.2).
			if bound > st.qrun[dim] {
				st.qrun[dim] = bound
			}
			if exact {
				st.learned[dim] = true
			} else {
				// The spilled subtree failed within the budget,
				// so the full plan would too.
				drop(cand.planID)
			}
			recordLearn(rec, c.K, cand.planID, dim, cand.learnID, st.qrun[dim], exact)
			// A completed spill whose node is the plan root ran the
			// whole plan: the query result is already in hand.
			if p := b.Diagram.Plan(cand.planID); exact && spillNode(p, cand.learnID) == p {
				return true, nil
			}
			continue
		}

		// No learnable spill left: execute one surviving plan
		// generically, cost-limited (Fig. 7 semantics for this one
		// plan). Prefer the plan covering q_run's contour region —
		// the one the coverage guarantee speaks for if q_a is near
		// q_run — falling back to the cheapest at q_run. Once every
		// dimension is learned q_run is q_a, and the cheapest by
		// estimate runs outright.
		pid, ok := b.contourPlanNear(c, b.Space.Coord(b.Space.FloorFlat(st.qrun)))
		if !ok || !slices.Contains(remaining, pid) || st.allLearned() {
			pid = b.cheapest(remaining, qrunSels)
		}
		if done, err := b.generic(s, rec, c, pid); done || err != nil {
			return done, err
		}
		drop(pid)
	}
}

// cheapest returns the plan among ids with the lowest *estimated* cost at
// sels. Costs within the floats.Eq tolerance count as tied and go to the
// lower plan ID, so accumulated rounding error cannot flip the choice.
func (b *Bouquet) cheapest(ids []int, sels cost.Selectivities) int {
	pid, cst := -1, cost.Cost(0)
	for _, id := range ids {
		v := b.Coster.Cost(b.Diagram.Plan(id), sels)
		switch {
		case pid < 0 || floats.Less(v.F(), cst.F()):
			pid, cst = id, v
		case floats.Eq(v.F(), cst.F()) && id < pid:
			pid = id
		}
	}
	return pid
}
