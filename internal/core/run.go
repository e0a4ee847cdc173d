package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/trace"
)

// Run is one bouquet run request: which algorithm, on which substrate, and
// what the run records. A nil Engine runs on the optimizer's cost surface
// at QA (the paper's grid metrics, Figs. 14–17); a non-nil one runs on its
// rows (Table 3), learning q_a from tuple counters alone.
type Run struct {
	// Optimized selects the optimized algorithm (Fig. 13) over the basic
	// one (Fig. 7); the package doc describes both.
	Optimized bool
	// QA is the actual location a surface run simulates: a plan completes
	// iff its cost there is within the budget, and otherwise spends the
	// whole budget. Required, and checked by Space.Check, on the surface;
	// rejected on an engine, whose rows realize q_a.
	QA ess.Point
	// Seed, when non-empty, is a location known to be a component-wise
	// underestimate of q_a (§8): the basic run skips the contours below
	// it, the optimized one starts q_run there. The MSO guarantee holds
	// for any dominated seed; one that overestimates q_a voids it, as the
	// paper cautions. Surface runs only, checked by Space.Check.
	Seed ess.Point
	// Trace, when non-nil, receives the run's spans: contour, exec (the
	// model's realized per-node cardinalities on the surface, the engine's
	// tuple counters on rows), spill, budget-abort and learn spans.
	Trace *trace.Recorder
	// Engine, when non-nil, executes every step over real rows.
	Engine *exec.Engine
	// Parallelism, when non-zero, runs every engine step on the vectorized
	// morsel-parallel engine with that many workers, at most
	// exec.MaxParallelism; zero keeps the tuple-at-a-time Volcano engine.
	// Every non-zero count gives the same run bit for bit. Against Volcano
	// only completed steps agree: a step the budget cuts short stops at a
	// tuple there and at its last committed epoch here, so what it learns
	// and its Spent can differ. Engine runs only.
	Parallelism int
	// Reuse gives the run an operator-state cache, so its steps salvage
	// completed join builds, sorted merge inputs and anti-join inner sets
	// from earlier steps. Outcomes, charged costs and learned
	// selectivities are unchanged (a hit charges the reused state in full,
	// to float summation order on Volcano); only wall clock and
	// allocations improve. Engine runs only.
	Reuse bool
}

// Run executes the bouquet as r asks. A request that does not fit its
// substrate is returned as the error before any step runs or any span is
// recorded. ctx is checked between executions, never inside one; if it
// expires, or the engine rejects a step (see exec.Engine.Run), the steps so
// far come back with the error.
func (b *Bouquet) Run(ctx context.Context, r Run) (Execution, error) {
	if err := b.check(r); err != nil {
		return Execution{}, err
	}
	var s stepper
	var e *Execution
	if r.Engine == nil {
		ss := b.onSurface(r.QA, r.Trace)
		s, e = ss, &ss.e
	} else {
		es := &engineStepper{b: b, r: r}
		if r.Reuse {
			es.cache = exec.NewReuseCache()
		}
		s, e = es, &es.e
	}
	var done bool
	var err error
	if r.Optimized {
		st := b.newRunState(r.Seed)
		for d := range r.QA {
			if r.QA[d] <= st.qrun[d] {
				// q_a at (or below) the start on this axis: nothing
				// left to discover there.
				st.qrun[d] = r.QA[d]
				st.learned[d] = true
			}
		}
		done, err = b.runOptimized(ctx, s, r.Trace, st)
		e.Learned = st.qrun
	} else {
		done, err = b.runBasic(ctx, s, r.Trace, r.Seed)
	}
	if done {
		// The finishing step's driven node is the plan root.
		e.Completed, e.ResultRows = true, e.Steps[len(e.Steps)-1].Rows
	}
	return *e, err
}

// check rejects a request that does not fit its substrate.
func (b *Bouquet) check(r Run) error {
	if r.Engine == nil {
		if r.Parallelism != 0 || r.Reuse {
			return errors.New("core: parallelism and reuse apply to engine runs only")
		}
		if len(r.Seed) > 0 {
			if err := b.Space.Check(r.Seed); err != nil {
				return fmt.Errorf("core: seed: %w", err)
			}
		}
		return b.Space.Check(r.QA)
	}
	if len(r.QA) > 0 || len(r.Seed) > 0 {
		return errors.New("core: qa and seed apply to surface runs only: an engine run learns q_a from its rows")
	}
	if r.Parallelism < 0 || r.Parallelism > exec.MaxParallelism {
		return fmt.Errorf("%w: worker count %d outside 0..%d", exec.ErrInvalidOptions, r.Parallelism, exec.MaxParallelism)
	}
	return nil
}

// RunBasic simulates the basic algorithm (Fig. 7) at qa on the cost
// surface. It panics on an error: a q_a that Space.Check rejects, or a
// driver bug.
func (b *Bouquet) RunBasic(qa ess.Point) Execution {
	return must(b.Run(context.Background(), Run{QA: qa}))
}

// RunOptimized simulates the optimized algorithm (Fig. 13) at qa on the
// cost surface. It panics on an error: a q_a that Space.Check rejects, or
// a driver bug.
func (b *Bouquet) RunOptimized(qa ess.Point) Execution {
	return must(b.Run(context.Background(), Run{Optimized: true, QA: qa}))
}
