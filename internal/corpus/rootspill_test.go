package corpus

import "testing"

// TestRootSpillEndsSurfaceRun pins one simulated run where a completed spill
// at the plan root ends the query: corpus query q0487's optimized run at the
// grid midpoint, one of the baseline's sampled locations. Its first spill drives the root, so it runs the whole plan
// within budget, and its result is the query's — the run takes that one
// step instead of paying for the plan a second time generically.
func TestRootSpillEndsSurfaceRun(t *testing.T) {
	b, err := Compile(GenerateSpec(testSeed, 487))
	if err != nil {
		t.Fatal(err)
	}
	qa := b.Space.PointAt(b.Space.NumPoints() / 2)
	e := b.RunOptimized(qa)
	if !e.Completed || len(e.Steps) != 1 {
		t.Fatalf("run %v: completed %v in %d steps, want 1", e, e.Completed, len(e.Steps))
	}
	st := e.Steps[0]
	p := b.Diagram.Plan(st.PlanID)
	if full := b.Coster.Cost(p, b.Space.Sels(qa)); st.Dim < 0 || !st.Completed || st.Spent != full || e.TotalCost != full {
		t.Fatalf("step %+v, total %v: want one completed spill charged the plan's full cost %v", st, e.TotalCost, full)
	}
}
