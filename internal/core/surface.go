package core

import (
	"context"
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/trace"
)

// RunBasic simulates the basic bouquet algorithm (Fig. 7) at the actual
// location qa: RunBasicTraced with a background context, no seed and no
// recorder. It panics on an error: a q_a that Space.Check rejects, or a
// driver bug.
func (b *Bouquet) RunBasic(qa ess.Point) Execution {
	return must(b.RunBasicTraced(context.Background(), qa, nil, nil))
}

// RunOptimized simulates the optimized bouquet algorithm (Fig. 13) at the
// actual location qa: RunOptimizedTraced with a background context, no seed,
// no recorder. It panics on an error: a q_a that Space.Check rejects, or a
// driver bug.
func (b *Bouquet) RunOptimized(qa ess.Point) Execution {
	return must(b.RunOptimizedTraced(context.Background(), qa, nil, nil))
}

// RunBasicTraced simulates the basic algorithm at qa: contour by contour,
// each contour plan under the contour budget until one completes. A plan
// "completes" iff its full cost at q_a is within the budget; otherwise the
// whole budget is spent and the intermediate results jettisoned.
//
// seed, when non-nil, is a location known to be a component-wise
// *underestimate* of q_a (§8): the run skips the contours below it instead
// of starting at IC1. The MSO guarantee holds for any valid (dominated)
// seed; one that overestimates q_a voids it, as the paper cautions. ctx is
// checked between contour steps, and the partial Execution so far is
// returned alongside its error when it expires mid-run. rec, when non-nil,
// receives a contour span per isocost step entered, an exec span per
// (possibly partial) plan execution with the cost model's realized per-node
// cardinalities, and a budget-abort span per jettisoned step. A q_a that
// Space.Check rejects is returned as its error before anything runs.
func (b *Bouquet) RunBasicTraced(ctx context.Context, qa, seed ess.Point, rec *trace.Recorder) (Execution, error) {
	if err := b.Space.Check(qa); err != nil {
		return Execution{}, err
	}
	s := b.onSurface(qa, rec)
	done, err := b.runBasic(ctx, s, rec, seed)
	s.e.Completed = done
	return s.e, err
}

// RunOptimizedTraced simulates the optimized algorithm at qa, with q_run
// tracking, AxisPlans plan selection, spill-driven selectivity learning,
// and early contour change. seed, ctx and rec are as for RunBasicTraced —
// q_run starts at the seed rather than the origin, so low contours are
// skipped by the early-change test — and rec additionally receives spill
// and discovered-selectivity learn spans. A q_a that Space.Check rejects is
// returned as its error before anything runs.
func (b *Bouquet) RunOptimizedTraced(ctx context.Context, qa, seed ess.Point, rec *trace.Recorder) (Execution, error) {
	if err := b.Space.Check(qa); err != nil {
		return Execution{}, err
	}
	s := b.onSurface(qa, rec)
	st := b.newRunState(seed)
	for d := range st.qrun {
		if qa[d] <= st.qrun[d] {
			// q_a at (or below) the start on this axis: nothing
			// left to discover there.
			st.qrun[d] = qa[d]
			st.learned[d] = true
		}
	}
	done, err := b.runOptimized(ctx, s, rec, st)
	s.e.Completed = done
	return s.e, err
}

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
	e   Execution
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
	s.sums = s.buf[:0]
	return s
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
func (s *surfaceStepper) record(st Step, driven *plan.Node, pred int, start time.Time) {
	s.e.Steps = append(s.e.Steps, st)
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
	s.record(st, p, -1, t0)
	return st, nil
}

func (s *surfaceStepper) spill(c Contour, pid, pred, dim int, _ *runState) (Step, float64, error) {
	t0 := stepClock(s.rec)
	sub := spillNode(s.b.Diagram.Plan(pid), pred)
	spent, bound, exact := s.b.simulateSpill(sub, dim, s.t, c.Budget, s.price(sub))
	st := Step{Contour: c.K, PlanID: pid, Dim: dim, Budget: c.Budget, Spent: spent, Completed: exact}
	s.record(st, sub, pred, t0)
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
