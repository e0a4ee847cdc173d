package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/trace"
)

// TestRunRequestContract pins what Bouquet.Run refuses. A surface run
// needs a q_a that Space.Check accepts, takes a seed only if Space.Check
// accepts it, and takes no engine settings. An engine run, which learns q_a
// from its rows, takes neither a q_a nor a seed, nor a worker count past
// exec.MaxParallelism. Each refusal comes back, for both algorithms, before
// any step runs or any span is recorded.
func TestRunRequestContract(t *testing.T) {
	b, _ := compileFor(t, query1D(t), 10, CompileOptions{Lambda: 0.2})
	_, rb, eng, _ := concreteFixture(t, 42)
	qa := ess.Point{0.5}
	for _, c := range []struct {
		name    string
		b       *Bouquet
		r       Run
		options bool // the error wraps exec.ErrInvalidOptions
	}{
		{"surface without qa", b, Run{}, false},
		{"surface qa of two dimensions", b, Run{QA: ess.Point{0.5, 0.5}}, false},
		{"surface qa out of (0,1]", b, Run{QA: ess.Point{2}}, false},
		{"surface seed of two dimensions", b, Run{QA: qa, Seed: ess.Point{0.1, 0.1}}, false},
		{"surface with parallelism", b, Run{QA: qa, Parallelism: 2}, false},
		{"surface with reuse", b, Run{QA: qa, Reuse: true}, false},
		{"engine with qa", rb, Run{Engine: eng, QA: ess.Point{0.5, 0.5}}, false},
		{"engine with seed", rb, Run{Engine: eng, Seed: ess.Point{0.01, 0.01}}, false},
		{"engine with negative parallelism", rb, Run{Engine: eng, Parallelism: -1}, true},
		{"engine with parallelism past the bound", rb, Run{Engine: eng, Parallelism: exec.MaxParallelism + 1}, true},
	} {
		for _, optimized := range []bool{false, true} {
			r, rec := c.r, trace.New(64)
			r.Optimized, r.Trace = optimized, rec
			e, err := c.b.Run(context.Background(), r)
			if err == nil || len(e.Steps) != 0 || len(rec.Spans()) != 0 {
				t.Errorf("%s, optimized=%v: err %v, %d steps, %d spans; want an error and nothing run",
					c.name, optimized, err, len(e.Steps), len(rec.Spans()))
			}
			if got := errors.Is(err, exec.ErrInvalidOptions); got != c.options {
				t.Errorf("%s, optimized=%v: errors.Is(%v, exec.ErrInvalidOptions) = %v", c.name, optimized, err, got)
			}
		}
	}
}
