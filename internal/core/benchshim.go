package core

import (
	"context"

	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/trace"
)

// The declarations in this file keep benchmark/ building against the run
// API it was written for. Only benchmark/ may call them; each delegates to
// Bouquet.Run in one line. The change that moves benchmark/ onto
// Bouquet.Run (ROADMAP item 9) deletes this file.

// ConcreteExecution is Execution under its name from before Bouquet.Run.
type ConcreteExecution = Execution

// ConcreteRunner runs B on Engine through Bouquet.Run.
type ConcreteRunner struct {
	B           *Bouquet
	Engine      *exec.Engine
	Parallelism int
	Reuse       bool
}

// RunBasic runs the basic algorithm on r.Engine; it panics on an error.
func (r *ConcreteRunner) RunBasic() Execution {
	return must(r.B.Run(context.Background(), Run{Engine: r.Engine, Parallelism: r.Parallelism, Reuse: r.Reuse}))
}

// RunOptimized runs the optimized algorithm on r.Engine; it panics on an
// error.
func (r *ConcreteRunner) RunOptimized() Execution {
	return must(r.B.Run(context.Background(), Run{Optimized: true, Engine: r.Engine, Parallelism: r.Parallelism, Reuse: r.Reuse}))
}

// RunBasicTraced runs the basic algorithm on the surface at qa.
func (b *Bouquet) RunBasicTraced(ctx context.Context, qa, seed ess.Point, rec *trace.Recorder) (Execution, error) {
	return b.Run(ctx, Run{QA: qa, Seed: seed, Trace: rec})
}
