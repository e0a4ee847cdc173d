package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
)

// stepLimitedCtx is a context whose Err() starts reporting cancellation
// after a fixed number of polls. It makes the drivers' cooperative
// checkpoints observable: with allowance n, the n+1-th checkpoint is the
// first to see a cancelled context, so the test can pin down exactly
// where a run aborts.
type stepLimitedCtx struct {
	allowance int64
	polls     atomic.Int64
}

func (c *stepLimitedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepLimitedCtx) Done() <-chan struct{}       { return nil }
func (c *stepLimitedCtx) Value(any) any               { return nil }
func (c *stepLimitedCtx) Err() error {
	if c.polls.Add(1) > c.allowance {
		return context.Canceled
	}
	return nil
}

// TestBasicRunCancelsBetweenContourSteps verifies the documented
// cancellation granularity: a cancelled context aborts the basic driver
// between budgeted executions *within* a contour, not merely at contour
// boundaries — on both substrates, since both run the one loop. With
// TestOptimizedRunCancelsMidContour, TestTerminalStepPollsContext and
// TestRunContextCancelledUpFront it guards the context Bouquet.Run hands
// each driver: a context.Background() in its place fails one of them (the
// run loop used to poll ctx only once per contour, and the concrete loop
// never).
func TestBasicRunCancelsBetweenContourSteps(t *testing.T) {
	// POSP configuration (no anorexic reduction) keeps contours dense,
	// and a q_a near the terminus forces many failed budgeted
	// executions before completion.
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: -1})
	qa := ess.Point{0.9, 0.9}
	_, rb, eng, _ := concreteFixture(t, 42)

	for _, row := range []struct {
		name string
		b    *Bouquet
		r    Run
	}{
		{"simulated", b, Run{QA: qa}},
		{"concrete", rb, Run{Engine: eng}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e, err := row.b.Run(context.Background(), row.r)
			if err != nil {
				t.Fatal(err)
			}
			if !e.Completed {
				t.Fatal("uncancelled run did not complete")
			}
			full := e.Steps

			// Find the first step that shares its contour with its
			// predecessor: aborting exactly before it proves the
			// mid-contour checkpoint.
			cut := -1
			for i := 1; i < len(full); i++ {
				if full[i].Contour == full[i-1].Contour {
					cut = i
					break
				}
			}
			if cut < 0 {
				t.Fatalf("fixture has no contour with two steps; trace %v", full)
			}

			// The basic driver polls ctx exactly once per step, so an
			// allowance of cut polls aborts the run exactly before
			// step cut.
			pe, err := row.b.Run(&stepLimitedCtx{allowance: int64(cut)}, row.r)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned err %v, want context.Canceled", err)
			}
			partial := pe.Steps
			if pe.Completed {
				t.Fatal("cancelled run reported completion")
			}
			if len(partial) != cut {
				t.Fatalf("cancelled run performed %d steps, want %d", len(partial), cut)
			}
			for i := range partial {
				if repeatable(partial[i]) != repeatable(full[i]) {
					t.Fatalf("partial step %d = %+v diverges from full trace %+v", i, partial[i], full[i])
				}
			}
			// The abort point is strictly inside a contour: the step
			// that was never executed belongs to the same contour as
			// the last one taken.
			if full[cut].Contour != partial[cut-1].Contour {
				t.Fatalf("abort fell on a contour boundary (last %d, next %d)",
					partial[cut-1].Contour, full[cut].Contour)
			}
		})
	}
}

// TestOptimizedRunCancelsMidContour verifies that the optimized driver's
// inner contour loop (runContour) polls the context before every
// execution decision, so cancellation cannot be deferred to the next
// contour boundary.
func TestOptimizedRunCancelsMidContour(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: -1})
	qa := ess.Point{0.9, 0.9}

	run := Run{Optimized: true, QA: qa}
	full, err := b.Run(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Completed {
		t.Fatal("uncancelled run did not complete")
	}
	fullPolls := func() int64 {
		probe := &stepLimitedCtx{allowance: 1 << 30}
		if _, err := b.Run(probe, run); err != nil {
			t.Fatal(err)
		}
		return probe.polls.Load()
	}()
	contours := map[int]bool{}
	for _, s := range full.Steps {
		contours[s.Contour] = true
	}
	if fullPolls <= int64(len(contours)) {
		t.Fatalf("optimized driver polled ctx %d times over %d contours; expected intra-contour checkpoints",
			fullPolls, len(contours))
	}

	// Cancel part-way through: the run must abort with the partial
	// trace, strictly before finishing.
	ctx := &stepLimitedCtx{allowance: fullPolls / 2}
	partial, err := b.Run(ctx, run)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned err %v, want context.Canceled", err)
	}
	if partial.Completed {
		t.Fatal("cancelled run reported completion")
	}
	if len(partial.Steps) >= len(full.Steps) {
		t.Fatalf("cancelled run performed %d steps, full run %d", len(partial.Steps), len(full.Steps))
	}
}

// TestTerminalStepPollsContext: both drivers poll the context before the
// unbudgeted terminal step, the one execution no budget ends. Against a
// scripted stepper on which every budgeted step fails, the poll that
// precedes the terminal step is the terminal's own: the basic driver polls
// once between its last budgeted step and the terminal one, the optimized
// driver twice (its contour loop polls once more to find the last contour
// exhausted). An allowance that cancels that poll ends the run with
// context.Canceled after every budgeted step and before the terminal one.
func TestTerminalStepPollsContext(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})
	for _, tc := range []struct {
		basic bool
		polls int64 // between the last budgeted step and the terminal one
	}{{true, 1}, {false, 2}} {
		run := func(ctx *stepLimitedCtx) (*scriptedStepper, error) {
			s := &scriptedStepper{polled: ctx}
			var err error
			if tc.basic {
				_, err = b.runBasic(ctx, s, nil, nil)
			} else {
				_, err = b.runOptimized(ctx, s, nil, b.newRunState(nil))
			}
			return s, err
		}
		full, err := run(&stepLimitedCtx{allowance: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		n := len(full.calls)
		if full.calls[n-1].contour != len(b.Contours)+1 {
			t.Fatalf("basic=%v: the full run's last call %+v is not the terminal step", tc.basic, full.calls[n-1])
		}
		if got := full.pollsAt[n-1] - full.pollsAt[n-2]; got != tc.polls {
			t.Fatalf("basic=%v: %d polls between the last budgeted step and the terminal step, want %d", tc.basic, got, tc.polls)
		}
		cut, err := run(&stepLimitedCtx{allowance: full.pollsAt[n-1] - 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("basic=%v: run cancelled at the terminal poll returned err %v, want context.Canceled", tc.basic, err)
		}
		if !slices.Equal(cut.calls, full.calls[:n-1]) {
			t.Fatalf("basic=%v: cancelled run asked for %v, want every budgeted step %v", tc.basic, cut.calls, full.calls[:n-1])
		}
	}
}

// TestRunContextCancelledUpFront: an already-cancelled context yields no
// executions at all on either driver, on either substrate.
func TestRunContextCancelledUpFront(t *testing.T) {
	b, _ := compileFor(t, query1D(t), 10, CompileOptions{Lambda: 0.2})
	_, rb, eng, _ := concreteFixture(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, substrate := range []struct {
		name string
		b    *Bouquet
		r    Run
	}{
		{"surface", b, Run{QA: ess.Point{0.5}}},
		{"engine", rb, Run{Engine: eng}},
	} {
		for _, optimized := range []bool{false, true} {
			r := substrate.r
			r.Optimized = optimized
			if e, err := substrate.b.Run(ctx, r); err == nil || len(e.Steps) != 0 {
				t.Fatalf("%s optimized=%v: err=%v steps=%d, want immediate abort", substrate.name, optimized, err, len(e.Steps))
			}
		}
	}
}

// TestFocusedCompileCancelsMidGeneration verifies that focused generation
// polls the context between its batches: a context cancelled while the
// subdivision is under way makes Compile return context.Canceled at that
// very poll, with fewer optimizer calls than the full generation needs.
// (A compile that has already answered 503 used to optimize to the end.)
func TestFocusedCompileCancelsMidGeneration(t *testing.T) {
	q := query2D(t)
	space, err := ess.NewSpace(q, []int{48})
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Lambda: 0.2, Focused: true}

	probe := &stepLimitedCtx{allowance: 1 << 30}
	opts.Ctx = probe
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	if _, err := Compile(opt, space, opts); err != nil {
		t.Fatal(err)
	}
	fullCalls := opt.Calls()

	// Compile polls once on entry; the polls after that, up to one per
	// level of the subdivision (at least log2 48 of them), are the
	// generator's.
	const allowance = 4
	if probe.polls.Load() <= allowance {
		t.Fatalf("focused compile polled ctx only %d times", probe.polls.Load())
	}
	ctx := &stepLimitedCtx{allowance: allowance}
	opts.Ctx = ctx
	opt = optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, opts)
	if !errors.Is(err, context.Canceled) || b != nil {
		t.Fatalf("cancelled compile returned (%v, %v), want context.Canceled", b, err)
	}
	if got := ctx.polls.Load(); got != allowance+1 {
		t.Fatalf("compile went on for %d polls after the cancelled one", got-allowance-1)
	}
	// The two ladder corners and the generator's first levels ran; most
	// of the band did not.
	if calls := opt.Calls(); calls <= 2 || calls >= fullCalls/2 {
		t.Fatalf("cancelled compile made %d optimizer calls, a full one %d", calls, fullCalls)
	}
}

// TestFocusedCompileCancelsAtTheFill: the focused generator's last batch,
// which optimizes the inside of the small cubes, polls the context too. A
// 2×2 grid is one small cube: the generator optimizes its two diagonal
// corners, polling first, then its two other locations, polling again.
// With an allowance of two — Compile's entry poll and the corners' — the
// fill's poll is the first one cancelled, and Compile returns
// context.Canceled with the fill never optimized.
func TestFocusedCompileCancelsAtTheFill(t *testing.T) {
	q := query2D(t)
	space, err := ess.NewSpace(q, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &stepLimitedCtx{allowance: 2}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, CompileOptions{Lambda: 0.2, Focused: true, Ctx: ctx})
	if !errors.Is(err, context.Canceled) || b != nil {
		t.Fatalf("cancelled compile returned (%v, %v), want context.Canceled", b, err)
	}
	if got := ctx.polls.Load(); got != ctx.allowance+1 {
		t.Fatalf("compile went on for %d polls after the cancelled one", got-ctx.allowance-1)
	}
	// The ladder's two corners, then the generator's: the same two
	// locations, optimized twice.
	if calls := opt.Calls(); calls != 4 {
		t.Fatalf("cancelled compile made %d optimizer calls, want the 4 before the fill", calls)
	}
}

// TestDenseCompileCancelsMidGeneration is the dense twin: exhaustive
// generation polls the context between its batches, so a context
// cancelled while the grid is under way makes Compile return
// context.Canceled at that very poll, with the remaining batches never
// optimized.
func TestDenseCompileCancelsMidGeneration(t *testing.T) {
	q := query2D(t)
	space, err := ess.NewSpace(q, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Lambda: 0.2}

	probe := &stepLimitedCtx{allowance: 1 << 30}
	opts.Ctx = probe
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	if _, err := Compile(opt, space, opts); err != nil {
		t.Fatal(err)
	}
	// The ladder's two corners, checked before the grid, then every
	// location.
	if calls := opt.Calls(); calls != int64(space.NumPoints())+2 {
		t.Fatalf("dense compile made %d optimizer calls for %d locations, want 2 more", calls, space.NumPoints())
	}

	// Compile polls once on entry; the generator then polls before each of
	// its batches (4 096 locations make several).
	const allowance = 2
	if probe.polls.Load() <= allowance+1 {
		t.Fatalf("dense compile polled ctx only %d times", probe.polls.Load())
	}
	ctx := &stepLimitedCtx{allowance: allowance}
	opts.Ctx = ctx
	opt = optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := Compile(opt, space, opts)
	if !errors.Is(err, context.Canceled) || b != nil {
		t.Fatalf("cancelled compile returned (%v, %v), want context.Canceled", b, err)
	}
	if got := ctx.polls.Load(); got != allowance+1 {
		t.Fatalf("compile went on for %d polls after the cancelled one", got-allowance-1)
	}
	// The first batch ran; most of the grid did not.
	if calls := opt.Calls(); calls == 0 || calls >= int64(space.NumPoints())/2 {
		t.Fatalf("cancelled compile made %d optimizer calls, a full one %d", calls, space.NumPoints())
	}
}
