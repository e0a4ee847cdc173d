package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ess"
)

// TestSimulatedStepsExactSize: every Steps slice a cost-surface run returns
// has no spare capacity, on a sample of the corpus at three locations under
// both algorithms. The test also logs the live heap the compiled bouquets
// hold, before and after the runs (which fill their contour-nearest memo).
func TestSimulatedStepsExactSize(t *testing.T) {
	const n = 40
	var base, compiled, ran runtime.MemStats
	// Two collections: the first moves pooled scratch to the pools'
	// victim caches, the second frees it.
	settle := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	settle(&base)
	bs := make([]*core.Bouquet, n)
	for i := range bs {
		b, err := corpus.Compile(corpus.GenerateSpec(20140622, i))
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	settle(&compiled)
	for i, b := range bs {
		for _, qa := range []ess.Point{b.Space.Terminus(), b.Space.Origin(), b.Space.PointAt(b.Space.NumPoints() / 2)} {
			for _, optimized := range []bool{false, true} {
				e, err := b.Run(context.Background(), core.Run{Optimized: optimized, QA: qa})
				if err != nil {
					t.Fatal(err)
				}
				if len(e.Steps) == 0 || cap(e.Steps) != len(e.Steps) {
					t.Errorf("query %d at %v (optimized=%v): %d steps in a slice of capacity %d", i, qa, optimized, len(e.Steps), cap(e.Steps))
				}
			}
		}
	}
	settle(&ran)
	runtime.KeepAlive(bs)
	t.Logf("live heap per compiled bouquet: %.0f B; after six runs each: %.0f B",
		float64(int64(compiled.HeapAlloc)-int64(base.HeapAlloc))/n,
		float64(int64(ran.HeapAlloc)-int64(base.HeapAlloc))/n)
}
