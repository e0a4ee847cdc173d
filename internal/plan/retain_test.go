package plan_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ess"
	"repro/internal/plan"
)

// TestCompiledPlansCarryNoFingerprint: compiling a bouquet and running it on
// the cost surface memoize no fingerprint on any node of any diagram plan,
// on a sample of the corpus. Only something that keys on a plan's string,
// such as an engine run's reuse cache, leaves one there.
func TestCompiledPlansCarryNoFingerprint(t *testing.T) {
	for i := range 40 {
		b, err := corpus.Compile(corpus.GenerateSpec(20140622, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, qa := range []ess.Point{b.Space.Terminus(), b.Space.Origin(), b.Space.PointAt(b.Space.NumPoints() / 2)} {
			for _, optimized := range []bool{false, true} {
				if _, err := b.Run(context.Background(), core.Run{Optimized: optimized, QA: qa}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for pid, p := range b.Diagram.Plans() {
			p.Walk(func(n *plan.Node) {
				if plan.FingerprintMemoized(n) {
					t.Errorf("query %d: plan %d: node %s carries a memoized fingerprint", i, pid, n.Op)
				}
			})
		}
	}
}
