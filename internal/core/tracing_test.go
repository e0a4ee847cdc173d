package core

import (
	"context"
	"encoding/json"
	"fmt"
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

func TestRunBasicSpans(t *testing.T) {
	rec := trace.New(512)
	b, qa := tracedFixture(t, rec)
	e, err := b.Run(context.Background(), Run{QA: qa, Trace: rec})
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

	contours := 0
	for _, s := range spans {
		if s.Kind == trace.KindContour {
			contours++
		}
	}
	if contours == 0 {
		t.Fatal("no contour spans")
	}
	// Every exec span mirrors its step and carries per-node stats.
	execs := stepSpans(t, "basic", spans, e.Steps)
	for i, s := range execs {
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

func TestRunOptimizedSpans(t *testing.T) {
	rec := trace.New(512)
	b, qa := tracedFixture(t, nil)
	e, err := b.Run(context.Background(), Run{Optimized: true, QA: qa, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var learns []trace.Span
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindLearn {
			learns = append(learns, s)
		}
	}
	spillSteps := 0
	for i, s := range stepSpans(t, "optimized", rec.Spans(), e.Steps) {
		st := e.Steps[i]
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

// stepSpans checks the step protocol over one run's spans: per step the
// driver's spill span (a spilled step), the stepper's exec span mirroring
// the step, then the driver's budget-abort span (a step the budget cut
// short) carrying the step's Spent — in that order, with only compile,
// contour and learn spans around them. It returns the exec spans in step
// order.
func stepSpans(t *testing.T, label string, spans []trace.Span, steps []Step) []trace.Span {
	t.Helper()
	next := func(i int) trace.Span {
		t.Helper()
		for len(spans) > 0 && (spans[0].Kind == trace.KindContour || spans[0].Kind == trace.KindLearn || spans[0].Kind == trace.KindCompile) {
			spans = spans[1:]
		}
		if len(spans) == 0 {
			t.Fatalf("%s: spans end before step %d", label, i)
		}
		s := spans[0]
		spans = spans[1:]
		return s
	}
	var execs []trace.Span
	for i, st := range steps {
		if st.Dim >= 0 {
			sp := next(i)
			if sp.Kind != trace.KindSpill || sp.Contour != st.Contour || sp.PlanID != st.PlanID || sp.Dim != st.Dim || sp.Pred < 0 || sp.Budget != trace.SafeCost(st.Budget.F()) {
				t.Fatalf("%s: step %d %+v opens with %+v, want its spill span", label, i, st, sp)
			}
		}
		ex := next(i)
		if ex.Kind != trace.KindExec || ex.Contour != st.Contour || ex.PlanID != st.PlanID || ex.Dim != st.Dim || ex.Completed != st.Completed ||
			ex.Budget != trace.SafeCost(st.Budget.F()) || ex.Spent != trace.SafeCost(st.Spent.F()) {
			t.Fatalf("%s: exec span %+v does not mirror step %d %+v", label, ex, i, st)
		}
		execs = append(execs, ex)
		if st.Completed {
			continue
		}
		ab := next(i)
		if ab.Kind != trace.KindBudgetAbort || ab.Contour != st.Contour || ab.PlanID != st.PlanID || ab.Dim != st.Dim || ab.Pred != ex.Pred ||
			ab.Budget != ex.Budget || ab.Spent != ex.Spent {
			t.Fatalf("%s: step %d exec span %+v closes with %+v, want its budget-abort span", label, i, ex, ab)
		}
	}
	for _, s := range spans {
		if s.Kind != trace.KindContour && s.Kind != trace.KindLearn {
			t.Fatalf("%s: %s span after the last step", label, s.Kind)
		}
	}
	return execs
}

// TestConcreteTracedSpans pins the step protocol (stepSpans) on the engine,
// both algorithms, Volcano and vectorized. The exec spans carry the
// engine's real counters, and one Spent runs through step, exec span and
// budget-abort span — on Volcano the crossing charge, past the budget; on
// the vectorized engine the budget itself.
func TestConcreteTracedSpans(t *testing.T) {
	_, b, eng, _ := concreteFixture(t, 42)
	for _, optimized := range []bool{false, true} {
		for _, workers := range []int{0, 8} {
			label := fmt.Sprintf("optimized=%v w%d", optimized, workers)
			rec := trace.New(512)
			out, err := b.Run(context.Background(), Run{Optimized: optimized, Trace: rec, Engine: eng, Parallelism: workers})
			if err != nil || !out.Completed {
				t.Fatalf("%s: err %v completed %v", label, err, out.Completed)
			}
			aborts := 0
			for i, ex := range stepSpans(t, label, rec.Spans(), out.Steps) {
				st := out.Steps[i]
				if ex.Rows != st.Rows || ex.WallNanos != st.Wall.Nanoseconds() || (workers > 0 && ex.Workers != workers) {
					t.Fatalf("%s: exec span %+v does not mirror concrete step %d %+v", label, ex, i, st)
				}
				// The driven node's real output must appear among the live
				// nodes.
				found := false
				for _, n := range ex.Nodes {
					if !n.Starved && n.Out == st.Rows {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: exec span %d nodes %+v do not account for %d output rows", label, i, ex.Nodes, st.Rows)
				}
				if st.Completed {
					continue
				}
				aborts++
				if vectorized := workers > 0; vectorized != (st.Spent == st.Budget) || st.Spent < st.Budget {
					t.Fatalf("%s: aborted step %d spent %v of budget %v", label, i, st.Spent, st.Budget)
				}
			}
			if aborts == 0 {
				t.Fatalf("%s: no step was cut short; the fixture no longer exercises aborts", label)
			}
		}
	}
}

// TestExecSpanNodeStats checks the node stats of every simulated exec span
// against their definition — price the driven (sub)plan with Coster.Detail,
// look each node of the full plan up by pointer — for both drivers over a
// grid of q_a; and pins a step's stats at their one []NodeStat allocation.
func TestExecSpanNodeStats(t *testing.T) {
	b, _ := tracedFixture(t, nil)
	byDetail := func(sels cost.Selectivities, full, driven *plan.Node, completed bool) ([]trace.NodeStat, int64) {
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
		var rows int64
		if completed {
			rows = int64(det[len(det)-1].Rows.F())
		}
		return out, rows
	}
	ctx := context.Background()
	spans, spilled := 0, 0
	for _, fx := range []float64{0.02, 0.15, 0.5, 1} {
		for _, fy := range []float64{0.03, 0.3, 0.7, 1} {
			qa := b.Space.Terminus().Clone()
			qa[0] *= fx
			qa[1] *= fy
			sels := b.Space.Sels(qa)
			for _, optimized := range []bool{false, true} {
				rec := trace.New(1024)
				if _, err := b.Run(ctx, Run{Optimized: optimized, QA: qa, Trace: rec}); err != nil {
					t.Fatal(err)
				}
				for _, sp := range rec.Spans() {
					if sp.Kind != trace.KindExec {
						continue
					}
					full := b.Diagram.Plan(sp.PlanID)
					driven := full
					if sp.Pred >= 0 {
						driven = spillNode(full, sp.Pred)
						spilled++
					}
					want, wantRows := byDetail(sels, full, driven, sp.Completed)
					if !reflect.DeepEqual(sp.Nodes, want) || sp.Rows != wantRows {
						t.Fatalf("q_a %v optimized=%t exec span %+v:\n got %+v rows %d\nwant %+v rows %d", qa, optimized, sp, sp.Nodes, sp.Rows, want, wantRows)
					}
					spans++
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatalf("none of %d exec spans is a spilled step's; the grid no longer exercises starved nodes", spans)
	}

	qa := b.Space.Terminus().Clone()
	s := &surfaceStepper{b: b, t: b.truthAt(qa), rec: trace.New(16)}
	for _, pid := range b.PlanIDs {
		p := b.Diagram.Plan(pid)
		s.price(p)
		st := Step{Contour: 1, PlanID: pid, Dim: -1, Completed: true}
		if got := testing.AllocsPerRun(100, func() { b.recordStep(s.rec, &st, p, -1, s.sums, stepClock(s.rec)) }); got > 1 {
			t.Errorf("recordStep(plan %d) allocates %.0f/step, want <= 1: its []NodeStat", pid, got)
		}
	}
}

// TestSimulatedRunAllocs pins what a simulated run allocates on the tracing
// fixture, untraced, at locations across the space: the stepper's pricing
// buffer is part of the stepper, so pricing every step once for its node
// stats costs the run no allocation.
func TestSimulatedRunAllocs(t *testing.T) {
	b, _ := tracedFixture(t, nil)
	const maxBasic, maxOptimized = 10, 185
	for _, f := range []float64{0.01, 0.1, 0.4, 0.8, 1} {
		qa := b.Space.Terminus().Clone()
		for d := range qa {
			qa[d] *= f
		}
		if got := testing.AllocsPerRun(20, func() { b.RunBasic(qa) }); got > maxBasic {
			t.Errorf("RunBasic(%v) allocates %.0f/run, want <= %d", qa, got, maxBasic)
		}
		if got := testing.AllocsPerRun(20, func() { b.RunOptimized(qa) }); got > maxOptimized {
			t.Errorf("RunOptimized(%v) allocates %.0f/run, want <= %d", qa, got, maxOptimized)
		}
	}
}

// TestTracingDisabledAllocParity pins the acceptance criterion that
// disabled tracing adds zero allocations to the run drivers' hot loops:
// Run with a nil recorder must allocate exactly what the untraced
// conveniences do (they share the same code path, and every span
// construction is guarded behind Enabled()).
func TestTracingDisabledAllocParity(t *testing.T) {
	b, qa := tracedFixture(t, nil)
	ctx := context.Background()

	for _, optimized := range []bool{false, true} {
		base := testing.AllocsPerRun(10, func() { b.RunBasic(qa) })
		if optimized {
			base = testing.AllocsPerRun(10, func() { b.RunOptimized(qa) })
		}
		traced := testing.AllocsPerRun(10, func() {
			b.Run(ctx, Run{Optimized: optimized, QA: qa}) // the error is dropped: Background never expires
		})
		if traced > base {
			t.Errorf("Run(optimized=%v, nil recorder) allocates %.0f/run, untraced %.0f", optimized, traced, base)
		}
	}

	// The span helpers themselves must be free with a nil recorder.
	s := Step{Contour: 1, PlanID: b.PlanIDs[0], Dim: -1, Budget: b.Contours[0].Budget}
	sums := b.Coster.PriceInto(b.Diagram.Plan(s.PlanID), b.Space.Sels(qa), nil)
	if got := testing.AllocsPerRun(100, func() { b.recordStep(nil, &s, b.Diagram.Plan(s.PlanID), -1, sums, stepClock(nil)) }); got > 0 {
		t.Errorf("recordStep(nil) allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { recordContour(nil, b.Contours[0]) }); got > 0 {
		t.Errorf("recordContour(nil) allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		recordSpill(nil, b.Contours[0], s.PlanID, 0, 0)
		recordAbort(nil, &s, -1)
	}); got > 0 {
		t.Errorf("recordSpill/recordAbort(nil) allocate %.1f/op, want 0", got)
	}
}
