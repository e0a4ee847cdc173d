package optimizer

import (
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestOptimizeAllocFree pins the compile hot path at zero allocations: once
// the memo arena is warm and the winning plan interned, an Optimize call
// prices prepared candidates, records winners as masks and hands back the
// interned plan — no skeleton rebuilding, no candidate nodes, no fresh
// trees.
func TestOptimizeAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{{"chain3", chainQuery(t, 3)}, {"branch8", branch8Query(t)}} {
		opt := newOpt(t, tc.q)
		sels := cost.DefaultSels(tc.q)
		// Warm the memo arena and the interner before measuring.
		for i := 0; i < 3; i++ {
			opt.Optimize(sels)
		}
		if got := testing.AllocsPerRun(50, func() { opt.Optimize(sels) }); got > 0 {
			t.Errorf("Optimize(%s) allocates %.1f/call, want 0", tc.name, got)
		}
	}
}

// TestInternedPlansShared: within one optimizer, two plans — or any two of
// their subtrees — have equal fingerprints exactly when they are the same
// pointer, over every location of a workload sweep that four goroutines
// run at once on a fresh optimizer, each from a different starting point.
func TestInternedPlansShared(t *testing.T) {
	for _, w := range []*workload.Workload{workload.EQ2D(6), workload.HQ8(3), workload.DSQ26(3)} {
		opt := New(cost.NewCoster(w.Query, w.Model))
		n := w.Space.NumPoints()
		roots := make([][]*plan.Node, 4)
		var wg sync.WaitGroup
		for g := range roots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					flat := (i + g*n/len(roots)) % n
					roots[g] = append(roots[g], opt.Optimize(w.Space.Sels(w.Space.PointAt(flat))).Plan)
				}
			}()
		}
		wg.Wait()
		byFP := map[string]*plan.Node{}
		byPtr := map[*plan.Node]string{}
		for _, rs := range roots {
			for _, r := range rs {
				r.Walk(func(n *plan.Node) {
					fp := n.Fingerprint()
					if m, ok := byFP[fp]; ok && m != n {
						t.Fatalf("%s: %s built twice", w.Name, fp)
					}
					if old, ok := byPtr[n]; ok && old != fp {
						t.Fatalf("%s: one node fingerprints as %s and %s", w.Name, old, fp)
					}
					byFP[fp], byPtr[n] = n, fp
				})
			}
		}
		if len(byFP) != len(byPtr) {
			t.Fatalf("%s: %d fingerprints over %d nodes", w.Name, len(byFP), len(byPtr))
		}
	}
}

func TestAbstractCostAllocFree(t *testing.T) {
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	sels := cost.DefaultSels(q)
	p := opt.Optimize(sels).Plan
	p.Fingerprint() // memoize before measuring
	if got := testing.AllocsPerRun(50, func() { opt.AbstractCost(p, sels) }); got > 0 {
		t.Errorf("AbstractCost allocates %.0f/call, want 0", got)
	}
}
