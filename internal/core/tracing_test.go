package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/trace"
)

// tracedFixture compiles the 2D bouquet with a compile span recorded.
func tracedFixture(t *testing.T, rec *trace.Recorder) (*Bouquet, ess.Point) {
	t.Helper()
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2, Trace: rec})
	qa := b.Space.Terminus().Clone()
	for d := range qa {
		qa[d] *= 0.4
	}
	return b, qa
}

func TestRunBasicTracedSpans(t *testing.T) {
	rec := trace.New(512)
	b, qa := tracedFixture(t, rec)
	e, err := b.RunBasicTraced(context.Background(), qa, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if spans[0].Kind != trace.KindCompile {
		t.Fatalf("first span kind = %v, want compile", spans[0].Kind)
	}
	if spans[0].Contour != len(b.Contours) || spans[0].Rows != int64(len(b.PlanIDs)) {
		t.Fatalf("compile span = %+v, want %d contours / |B|=%d", spans[0], len(b.Contours), len(b.PlanIDs))
	}

	var execs, contours, aborts []trace.Span
	for _, s := range spans {
		switch s.Kind {
		case trace.KindExec:
			execs = append(execs, s)
		case trace.KindContour:
			contours = append(contours, s)
		case trace.KindBudgetAbort:
			aborts = append(aborts, s)
		}
	}
	if len(execs) != len(e.Steps) {
		t.Fatalf("%d exec spans for %d steps", len(execs), len(e.Steps))
	}
	if len(contours) == 0 {
		t.Fatal("no contour spans")
	}
	// Every exec span mirrors its step and carries per-node stats.
	jettisoned := 0
	for i, s := range execs {
		st := e.Steps[i]
		if s.Contour != st.Contour || s.PlanID != st.PlanID || s.Completed != st.Completed {
			t.Fatalf("exec span %d = %+v does not mirror step %+v", i, s, st)
		}
		if s.Spent != trace.SafeCost(st.Spent.F()) {
			t.Fatalf("exec span %d spent %g, step spent %g", i, s.Spent, st.Spent.F())
		}
		if len(s.Nodes) == 0 {
			t.Fatalf("exec span %d has no node stats", i)
		}
		for _, n := range s.Nodes {
			if n.Op == "" {
				t.Fatalf("exec span %d node missing op: %+v", i, n)
			}
			if !n.Starved && n.EstCost <= 0 {
				t.Fatalf("exec span %d live node without cost: %+v", i, n)
			}
		}
		if !st.Completed {
			jettisoned++
		}
	}
	if len(aborts) != jettisoned {
		t.Fatalf("%d budget-abort spans for %d jettisoned steps", len(aborts), jettisoned)
	}
	last := execs[len(execs)-1]
	if !last.Completed || last.Rows <= 0 {
		t.Fatalf("final exec span %+v not a completed result", last)
	}

	// The whole trace must survive JSON (terminal steps carry +Inf
	// budgets, which SafeCost sanitizes at record time).
	if _, err := json.Marshal(spans); err != nil {
		t.Fatalf("trace not JSON-encodable: %v", err)
	}
}

func TestRunOptimizedTracedSpans(t *testing.T) {
	rec := trace.New(512)
	b, qa := tracedFixture(t, nil)
	e, err := b.RunOptimizedTraced(context.Background(), qa, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	var execs, spills, learns []trace.Span
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindExec:
			execs = append(execs, s)
		case trace.KindSpill:
			spills = append(spills, s)
		case trace.KindLearn:
			learns = append(learns, s)
		}
	}
	if len(execs) != len(e.Steps) {
		t.Fatalf("%d exec spans for %d steps", len(execs), len(e.Steps))
	}
	spillSteps := 0
	for i, s := range execs {
		st := e.Steps[i]
		if s.Dim != st.Dim || s.PlanID != st.PlanID {
			t.Fatalf("exec span %d = %+v does not mirror step %+v", i, s, st)
		}
		if len(s.Nodes) == 0 {
			t.Fatalf("exec span %d has no node stats", i)
		}
		if st.Dim >= 0 {
			spillSteps++
			// A spilled subtree must starve at least its parent —
			// unless the error node is the plan root.
			starved := 0
			for _, n := range s.Nodes {
				if n.Starved {
					starved++
				}
			}
			if starved == 0 && len(s.Nodes) == liveNodes(s) {
				// All nodes live is legal only when the subtree is
				// the whole plan; tolerate it.
				continue
			}
		}
	}
	if spillSteps == 0 {
		t.Skip("run produced no spilled steps at this location")
	}
	if len(spills) != spillSteps {
		t.Fatalf("%d spill spans for %d spilled steps", len(spills), spillSteps)
	}
	if len(learns) != spillSteps {
		t.Fatalf("%d learn spans for %d spilled steps", len(learns), spillSteps)
	}
	for _, l := range learns {
		if l.Sel < 0 || l.Sel > 1 {
			t.Fatalf("learn span selectivity %g out of range", l.Sel)
		}
		if l.Pred < 0 || l.Dim < 0 {
			t.Fatalf("learn span %+v missing pred/dim", l)
		}
	}
}

// liveNodes counts non-starved node stats of an exec span.
func liveNodes(s trace.Span) int {
	n := 0
	for _, ns := range s.Nodes {
		if !ns.Starved {
			n++
		}
	}
	return n
}

func TestConcreteTracedSpans(t *testing.T) {
	_, r, _ := concreteFixture(t, 42)
	for _, workers := range []int{0, 8} {
		r.Parallelism = workers
		r.Trace = trace.New(512)
		out := r.RunOptimized()
		if !out.Completed {
			t.Fatal("run did not complete")
		}
		var execs, aborts []trace.Span
		for _, s := range r.Trace.Spans() {
			switch s.Kind {
			case trace.KindExec:
				execs = append(execs, s)
			case trace.KindBudgetAbort:
				aborts = append(aborts, s)
			}
		}
		if len(execs) != len(out.Steps) {
			t.Fatalf("%d exec spans for %d steps", len(execs), len(out.Steps))
		}
		for i, s := range execs {
			st := out.Steps[i]
			if s.Rows != st.Rows || s.WallNanos != st.Wall.Nanoseconds() || s.Spent != trace.SafeCost(st.Spent.F()) {
				t.Fatalf("exec span %d = %+v does not mirror concrete step %+v", i, s, st)
			}
			if len(s.Nodes) == 0 {
				t.Fatalf("exec span %d has no node stats", i)
			}
			// Concrete spans carry *real* engine counters: the driven node's
			// output must appear among the live nodes.
			found := false
			for _, n := range s.Nodes {
				if !n.Starved && n.Out == st.Rows {
					found = true
				}
			}
			if !found {
				t.Fatalf("exec span %d nodes %+v do not account for %d output rows", i, s.Nodes, st.Rows)
			}
			// One Spent: the engine's budget-abort span, the exec span and
			// the step report the same charge for a step the budget cut
			// short — on the vectorized engine, the budget itself.
			if !st.Completed {
				if len(aborts) == 0 || aborts[0].Spent != st.Spent.F() || aborts[0].Rows != st.Rows {
					t.Fatalf("w%d step %d spent %v rows %d, abort spans left: %+v", workers, i, st.Spent, st.Rows, aborts)
				}
				aborts = aborts[1:]
				if workers > 0 && st.Spent != st.Budget {
					t.Fatalf("w%d aborted step %d spent %v of budget %v", workers, i, st.Spent, st.Budget)
				}
			}
		}
		if len(aborts) != 0 {
			t.Fatalf("w%d: %d budget-abort spans without an aborted step", workers, len(aborts))
		}
	}
}

// TestModelNodeStatsOneWalk checks the one-walk stats against the definition
// they replaced — price driven with Coster.Detail, look each node of the full
// plan up by pointer — for every plan of the bouquet, driven whole and driven
// at every proper subtree (a spilled step's shape), completed and not; and
// pins a step's stats at their slice: at most 2 allocations.
func TestModelNodeStatsOneWalk(t *testing.T) {
	b, qa := tracedFixture(t, nil)
	sels := b.Space.Sels(qa)
	byDetail := func(full, driven *plan.Node, completed bool) ([]trace.NodeStat, cost.Card) {
		det := b.execCoster().Detail(driven, sels)
		byNode := make(map[*plan.Node]cost.NodeCost, len(det))
		for _, nc := range det {
			byNode[nc.Node] = nc
		}
		var out []trace.NodeStat
		full.Walk(func(n *plan.Node) {
			ns := trace.NodeStat{Op: n.Op.String(), Relation: n.Relation}
			if nc, ok := byNode[n]; ok {
				ns.Out = int64(nc.Rows.F())
				ns.EstCost = trace.SafeCost(nc.TotalCost.F())
				ns.Done = completed
			} else {
				ns.Starved = true
			}
			out = append(out, ns)
		})
		return out, det[len(det)-1].Rows
	}
	for _, pid := range b.PlanIDs {
		full := b.Diagram.Plan(pid)
		full.Walk(func(driven *plan.Node) {
			for _, completed := range []bool{true, false} {
				got, rows := b.modelNodeStats(full, driven, sels, completed)
				want, wantRows := byDetail(full, driven, completed)
				if !reflect.DeepEqual(got, want) || rows != wantRows {
					t.Fatalf("plan %d driven at %s completed=%t:\n got %+v rows %v\nwant %+v rows %v", pid, driven.Op, completed, got, rows, want, wantRows)
				}
			}
		})
		if got := testing.AllocsPerRun(100, func() { b.modelNodeStats(full, full, sels, true) }); got > 2 {
			t.Errorf("modelNodeStats(plan %d) allocates %.0f/step, want <= 2", pid, got)
		}
	}
}

// TestTracingDisabledAllocParity pins the acceptance criterion that
// disabled tracing adds zero allocations to the run drivers' hot loops:
// the traced entry points with a nil recorder must allocate exactly what
// the untraced ones do (they share the same code path, and every span
// construction is guarded behind Enabled()).
func TestTracingDisabledAllocParity(t *testing.T) {
	b, qa := tracedFixture(t, nil)
	ctx := context.Background()

	base := testing.AllocsPerRun(10, func() { b.RunBasic(qa) })
	traced := testing.AllocsPerRun(10, func() {
		b.RunBasicTraced(ctx, qa, nil, nil) //bouquet:allow errflow: Background never expires
	})
	if traced > base {
		t.Errorf("RunBasicTraced(nil) allocates %.0f/run, untraced %.0f", traced, base)
	}

	base = testing.AllocsPerRun(10, func() { b.RunOptimized(qa) })
	traced = testing.AllocsPerRun(10, func() {
		b.RunOptimizedTraced(ctx, qa, nil, nil) //bouquet:allow errflow: Background never expires
	})
	if traced > base {
		t.Errorf("RunOptimizedTraced(nil) allocates %.0f/run, untraced %.0f", traced, base)
	}

	// The span helpers themselves must be free with a nil recorder.
	s := Step{Contour: 1, PlanID: b.PlanIDs[0], Dim: -1, Budget: b.Contours[0].Budget}
	sels := b.Space.Sels(qa)
	if got := testing.AllocsPerRun(100, func() { b.recordStep(nil, s, b.Diagram.Plan(s.PlanID), -1, sels, stepClock(nil)) }); got > 0 {
		t.Errorf("recordStep(nil) allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { recordContour(nil, b.Contours[0]) }); got > 0 {
		t.Errorf("recordContour(nil) allocates %.1f/op, want 0", got)
	}
}
