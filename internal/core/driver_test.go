package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/workload"
)

// The Fig. 7 / Fig. 13 policy, tested once: against a scripted stepper (no
// cost surface, no rows), and against a table of concrete step sequences
// pinned before the simulated and concrete loops were merged.

// call is one execution the policy asked the scripted stepper for.
type call struct {
	kind           string // "generic" or "spill"
	contour        int
	pid, dim, pred int
}

// scriptedStepper answers the policy from a script and records what it was
// asked, in order.
type scriptedStepper struct {
	calls []call
	// onGeneric and onSpill script the answers; nil means "fails, nothing
	// learned".
	onGeneric func(c Contour, pid int) bool
	onSpill   func(c Contour, pid, pred, dim int, st *runState) (bound float64, exact bool)
	err       error // returned by every execution when set
	// cancel, when set, is called once cancelAfter executions were asked for.
	cancelAfter int
	cancel      context.CancelFunc
	// polled, when set, is the run's context; pollsAt records how many
	// times the run had polled it when each execution was asked for.
	polled  *stepLimitedCtx
	pollsAt []int64
}

func (s *scriptedStepper) log(c call) {
	s.calls = append(s.calls, c)
	if s.polled != nil {
		s.pollsAt = append(s.pollsAt, s.polled.polls.Load())
	}
	if s.cancel != nil && len(s.calls) == s.cancelAfter {
		s.cancel()
	}
}

func (s *scriptedStepper) generic(c Contour, pid int) (Step, error) {
	s.log(call{"generic", c.K, pid, -1, -1})
	done := s.onGeneric != nil && s.onGeneric(c, pid)
	return Step{Contour: c.K, PlanID: pid, Dim: -1, Budget: c.Budget, Completed: done}, s.err
}

func (s *scriptedStepper) spill(c Contour, pid, pred, dim int, st *runState) (Step, float64, error) {
	s.log(call{"spill", c.K, pid, dim, pred})
	var bound float64
	var exact bool
	if s.onSpill != nil {
		bound, exact = s.onSpill(c, pid, pred, dim, st)
	}
	return Step{Contour: c.K, PlanID: pid, Dim: dim, Budget: c.Budget, Completed: exact}, bound, s.err
}

func TestDriverPolicyOnScriptedStepper(t *testing.T) {
	b, _ := compileFor(t, query2D(t), 12, CompileOptions{Lambda: 0.2})

	// Two start locations that tell the loop's two ways of leaving a
	// contour apart. From earlyStart, q_run has crossed earlyContour
	// although one of its plans is still within the λ-inflated budget
	// there: only the early contour change skips it. From pincerStart,
	// pincer elimination prices out some but not all plans of
	// pincerContour, a contour the run does not skip.
	var earlyStart, pincerStart ess.Point
	var earlyContour, pincerContour Contour
	var pricedOut []int
	for f := 0; f < b.Space.NumPoints() && (earlyStart == nil || pincerStart == nil); f++ {
		q := b.Space.PointAt(f)
		for _, c := range b.Contours {
			if b.optCostAtFloor(q) > c.RawBudget {
				for _, pid := range c.PlanIDs {
					if earlyStart == nil && b.Coster.Cost(b.Diagram.Plan(pid), b.Space.Sels(q)) <= c.Budget {
						earlyStart, earlyContour = q, c
					}
				}
				continue
			}
			if pincerStart != nil {
				break
			}
			pricedOut = nil
			for _, pid := range c.PlanIDs {
				if b.Coster.Cost(b.Diagram.Plan(pid), b.Space.Sels(q)) > c.Budget {
					pricedOut = append(pricedOut, pid)
				}
			}
			if len(pricedOut) > 0 && len(pricedOut) < len(c.PlanIDs) {
				pincerStart, pincerContour = q, c
			}
			break
		}
	}
	if earlyStart == nil || pincerStart == nil {
		t.Fatalf("fixture lacks an early-change (%v) or a pincer (%v) start location", earlyStart, pincerStart)
	}
	last := func(s *scriptedStepper) call { return s.calls[len(s.calls)-1] }
	lastContour := b.Contours[len(b.Contours)-1]

	for _, tc := range []struct {
		name   string
		basic  bool
		qrun   ess.Point // start location; nil is the origin
		script scriptedStepper
		check  func(t *testing.T, s *scriptedStepper, st *runState, err error)
	}{
		{
			name: "pincer elimination",
			// From pincerStart some, but not all, plans of pincerContour
			// are priced out; nothing is learned, so q_run stays put.
			qrun: pincerStart,
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				ran := map[int]bool{}
				for _, c := range s.calls {
					if c.contour == pincerContour.K {
						ran[c.pid] = true
					}
				}
				for _, pid := range pincerContour.PlanIDs {
					if out := slices.Contains(pricedOut, pid); ran[pid] == out {
						t.Fatalf("contour %d plan %d: priced out %v, executed %v", pincerContour.K, pid, out, ran[pid])
					}
				}
			},
		},
		{
			name: "early contour change",
			qrun: earlyStart,
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				for _, c := range s.calls {
					if c.contour <= earlyContour.K {
						t.Fatalf("executed %+v on a contour q_run had already crossed (%d)", c, earlyContour.K)
					}
				}
			},
		},
		{
			name: "exact spill retires its dimension",
			script: scriptedStepper{onSpill: func(c Contour, pid, pred, dim int, st *runState) (float64, bool) {
				return st.qrun[dim], dim == 0
			}},
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				spills := 0
				for _, c := range s.calls {
					if c.kind == "spill" && c.dim == 0 {
						spills++
					}
				}
				if spills != 1 || !st.learned[0] || st.learned[1] {
					t.Fatalf("dim 0 spilled %d times, learned=%v; want once and retired", spills, st.learned)
				}
			},
		},
		{
			name: "failed spill eliminates its plan",
			// Nothing is ever learned, so q_run never moves and no plan is
			// priced out: every execution after a plan's failed spill on
			// a contour must be of another plan.
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				type key struct{ contour, pid int }
				spilled := map[key]bool{}
				for _, c := range s.calls {
					k := key{c.contour, c.pid}
					if spilled[k] {
						t.Fatalf("plan %d ran again on contour %d after its spill failed: %v", c.pid, c.contour, s.calls)
					}
					spilled[k] = c.kind == "spill"
				}
				if len(spilled) == 0 {
					t.Fatal("no spill was attempted")
				}
			},
		},
		{
			name: "exhausted contours end in the terminal step",
			// Nothing is learned, so q_run is the origin throughout.
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				want := call{"generic", len(b.Contours) + 1, b.cheapest(lastContour.PlanIDs, b.Space.Sels(b.Space.Origin())), -1, -1}
				if l := last(s); l != want {
					t.Fatalf("last call %+v, want the optimized terminal step %+v", l, want)
				}
			},
		},
		{
			name:  "basic sweeps every contour plan, then the terminal step",
			basic: true,
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				var want []call
				for _, c := range b.Contours {
					for _, pid := range c.PlanIDs {
						want = append(want, call{"generic", c.K, pid, -1, -1})
					}
				}
				want = append(want, call{"generic", len(b.Contours) + 1, lastContour.PlanIDs[0], -1, -1})
				if !slices.Equal(s.calls, want) {
					t.Fatalf("calls %v, want %v", s.calls, want)
				}
			},
		},
		{
			name: "a completed generic step ends the run",
			// Both dimensions are learned at the origin, which leaves
			// only generic executions.
			script: scriptedStepper{
				onSpill: func(c Contour, pid, pred, dim int, st *runState) (float64, bool) {
					return st.qrun[dim], true
				},
				onGeneric: func(c Contour, pid int) bool { return c.K == 3 },
			},
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				if l := last(s); l.kind != "generic" || l.contour != 3 {
					t.Fatalf("run went on past the completing step: %v", s.calls)
				}
			},
		},
		{
			name:   "cancellation between steps",
			script: scriptedStepper{cancelAfter: 3},
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				if !errors.Is(err, context.Canceled) || len(s.calls) != 3 {
					t.Fatalf("err %v after %d calls, want context.Canceled after 3", err, len(s.calls))
				}
			},
		},
		{
			name:   "a stepper error stops the run",
			script: scriptedStepper{err: errors.New("boom")},
			check: func(t *testing.T, s *scriptedStepper, st *runState, err error) {
				if err == nil || len(s.calls) != 1 {
					t.Fatalf("err %v after %d calls, want the stepper's error after 1", err, len(s.calls))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s, st := tc.script, b.newRunState(tc.qrun)
			s.cancel = cancel
			var err error
			if tc.basic {
				_, err = b.runBasic(ctx, &s, nil, nil)
			} else {
				_, err = b.runOptimized(ctx, &s, nil, st)
			}
			if err != nil && tc.script.cancelAfter == 0 && tc.script.err == nil {
				t.Fatal(err)
			}
			tc.check(t, &s, st, err)
		})
	}
}

// TestDriverRootSpillFinishes: a completed spill whose node is the plan root
// ran the whole plan, so the driver ends the run there — and only there. On
// a two-relation query whose error-prone join is every plan's root, every
// scripted spill completes: the run learns the selection first (the deeper
// node), then ends at the first spill of the join.
func TestDriverRootSpillFinishes(t *testing.T) {
	cat := catalog.TPCHLike(0.1)
	q := query.NewBuilder("root-spill", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		MustBuild()
	b, _ := compileFor(t, q, 12, CompileOptions{Lambda: 0.2})
	s := scriptedStepper{onSpill: func(c Contour, pid, pred, dim int, st *runState) (float64, bool) {
		return st.qrun[dim], true
	}}
	done, err := b.runOptimized(context.Background(), &s, nil, b.newRunState(nil))
	if err != nil || !done {
		t.Fatalf("done %v err %v, want a finished run", done, err)
	}
	for i, c := range s.calls {
		p := b.Diagram.Plan(c.pid)
		root := c.kind == "spill" && spillNode(p, c.pred) == p
		if root != (i == len(s.calls)-1) {
			t.Fatalf("call %d of %v: root spill %v, want one exactly at the end", i, s.calls, root)
		}
	}
}

// pinnedConcreteRuns is the (contour:plan:dim:completed) sequence and total
// charged cost of every concrete run of the reuse differential's ten
// workloads plus HQ8a and HQ5a, Volcano engine, both algorithms — captured
// from the two hand-written concrete loops the shared driver replaced —
// and each run's total charged cost on the vectorized engine at one worker.
// Both totals are pinned to the bit.
var pinnedConcreteRuns = []struct {
	workload  string
	optimized bool
	steps     string
	totalCost float64
	vecTotal  float64
}{
	{"3D_H_Q5", false, "1:0:-1:0 2:0:-1:0 3:1:-1:0 4:0:-1:0 4:5:-1:0 5:2:-1:0 5:4:-1:0 6:3:-1:0 6:4:-1:0 7:6:-1:0 7:7:-1:0 8:6:-1:0 8:8:-1:0 9:9:-1:0 9:16:-1:0 10:17:-1:1", 6837.3834880040831, 6814.0559798014929},
	{"3D_H_Q5", true, "1:0:0:0 2:0:0:0 3:1:0:0 4:0:0:0 4:5:0:1 6:4:1:0 7:6:1:0 7:7:1:1 9:16:2:1 10:17:-1:1", 3885.6276836592815, 3875.1305061654834},
	{"3D_H_Q7", false, "1:0:-1:0 2:0:-1:0 2:2:-1:0 3:2:-1:0 3:9:-1:0 3:11:-1:0 4:2:-1:0 4:9:-1:0 4:11:-1:0 5:7:-1:0 5:10:-1:0 5:12:-1:0 6:10:-1:1", 10779.697422219928, 10689.136892831481},
	{"3D_H_Q7", true, "1:0:2:0 2:2:0:0 2:0:2:0 3:2:0:0 3:9:2:1 4:2:0:0 5:7:0:1 5:10:1:1 6:10:-1:1", 5916.4653015943632, 5906.8418784060132},
	{"4D_H_Q8", false, "1:0:-1:0 2:1:-1:0 2:18:-1:0 2:19:-1:0 3:3:-1:0 3:13:-1:0 3:20:-1:0 3:29:-1:0 4:6:-1:0 4:20:-1:0 4:27:-1:0 4:29:-1:0 5:17:-1:0 5:25:-1:0 5:28:-1:0 5:30:-1:0 6:17:-1:0 6:25:-1:0 6:28:-1:0 6:30:-1:0 7:31:-1:1", 28622.115818784154, 27581.468967431603},
	{"4D_H_Q8", true, "1:0:3:0 2:1:1:0 2:18:3:0 3:3:0:0 3:13:3:1 3:20:1:0 4:6:0:0 4:20:1:0 5:17:0:1 5:25:1:1 5:28:2:1 7:31:-1:1", 9363.4228419602714, 9544.7963481391889},
	{"5D_H_Q7", false, "1:0:-1:0 2:0:-1:0 3:0:-1:0 3:1:-1:0 4:0:-1:0 4:24:-1:0 5:0:-1:0 5:24:-1:0 6:0:-1:0 6:3:-1:0 6:15:-1:0 6:25:-1:0 7:0:-1:0 7:2:-1:0 7:3:-1:0 7:15:-1:0 8:8:-1:0 8:27:-1:0 8:28:-1:0 9:8:-1:0 9:21:-1:0 9:28:-1:0 9:30:-1:0 10:8:-1:0 10:21:-1:0 10:28:-1:0 10:30:-1:0 11:18:-1:0 11:23:-1:0 11:32:-1:0 12:23:-1:1", 12782.805280229251, 12660.102421669806},
	{"5D_H_Q7", true, "1:0:4:0 2:0:4:0 3:0:4:0 3:1:3:0 4:24:3:0 4:0:4:1 5:24:3:0 6:15:3:0 6:25:3:1 7:2:2:0 8:8:0:0 8:27:2:0 9:8:0:0 9:21:2:1 10:8:0:0 11:18:0:1 11:23:1:1 12:23:-1:1", 6080.1412748636485, 6286.3495991449945},
	{"3D_DS_Q15", false, "1:0:-1:0 2:0:-1:0 3:0:-1:0 4:0:-1:0 4:3:-1:0 4:7:-1:0 5:5:-1:0 5:6:-1:0 5:10:-1:1", 8971.759546663081, 8615.6828552759598},
	{"3D_DS_Q15", true, "1:0:0:0 2:0:0:0 3:0:0:0 4:0:0:0 4:7:2:1 4:3:0:1 5:6:1:0 6:11:1:1 6:11:-1:1", 7183.8272912684333, 7172.4336271992815},
	{"3D_DS_Q96", false, "1:0:-1:0 2:3:-1:0 2:11:-1:0 2:14:-1:0 3:3:-1:0 3:11:-1:0 3:14:-1:0 4:10:-1:0 4:13:-1:0 4:15:-1:0 5:10:-1:1", 9000.3973015649754, 8988.3200250292721},
	{"3D_DS_Q96", true, "1:0:1:0 2:3:0:0 2:11:1:0 2:14:-1:0 3:3:0:0 3:11:1:0 3:14:-1:0 4:10:0:1 4:13:1:1 4:15:2:1 6:15:-1:1", 8839.6934623276575, 8822.1024529199112},
	{"4D_DS_Q7", false, "1:0:-1:0 2:31:-1:0 2:36:-1:0 2:39:-1:0 3:31:-1:0 3:36:-1:0 3:39:-1:0 4:18:-1:0 4:26:-1:0 4:31:-1:0 4:33:-1:0 4:34:-1:0 4:36:-1:0 4:37:-1:0 4:39:-1:0 5:30:-1:0 5:35:-1:0 5:38:-1:0 5:40:-1:0 6:41:-1:1", 26134.585098817133, 26114.022374204596},
	{"4D_DS_Q7", true, "1:0:3:0 2:31:1:0 2:36:2:0 2:39:-1:0 3:31:1:0 3:36:2:0 3:39:-1:0 4:31:1:0 4:18:0:0 4:39:-1:0 4:36:-1:0 4:34:-1:0 4:37:-1:0 4:33:-1:0 4:26:-1:0 5:30:0:1 5:35:1:1 5:38:2:1 5:40:3:1 6:41:-1:1", 21064.714715813188, 21036.351187476062},
	{"4D_DS_Q26", false, "1:0:-1:0 2:14:-1:0 2:22:-1:0 2:29:-1:0 2:36:-1:0 3:29:-1:0 3:33:-1:0 3:36:-1:0 4:13:-1:0 4:18:-1:0 4:24:-1:0 4:29:-1:0 4:33:-1:0 4:36:-1:0 5:28:-1:0 5:32:-1:0 5:35:-1:0 5:37:-1:0 6:38:-1:1", 12269.448466872856, 12253.890271550599},
	{"4D_DS_Q26", true, "1:0:3:0 2:14:2:0 2:29:1:0 2:36:-1:0 3:29:1:0 3:33:2:0 3:36:-1:0 4:29:1:0 4:13:1:0 4:18:3:1 4:33:2:0 5:28:0:1 5:35:2:1 6:38:1:1 6:38:-1:1", 8100.9457970845269, 8004.0695843592257},
	{"4D_DS_Q91", false, "1:0:-1:0 2:5:-1:0 3:5:-1:0 4:5:-1:0 4:15:-1:0 4:28:-1:0 4:29:-1:0 4:32:-1:0 5:18:-1:0 5:27:-1:0 5:33:-1:0 5:35:-1:0 6:18:-1:0 6:30:-1:1", 19869.682982609138, 19822.381111190713},
	{"4D_DS_Q91", true, "1:0:0:0 2:5:0:0 3:5:0:0 4:5:0:0 4:28:2:1 4:29:3:1 4:15:0:1 5:27:1:0 6:30:1:1 7:36:-1:1", 8564.9672912782844, 8553.5736674609234},
	{"5D_DS_Q19", false, "1:0:-1:0 2:14:-1:0 2:51:-1:0 2:76:-1:0 3:14:-1:0 3:51:-1:0 3:56:-1:0 3:76:-1:0 4:14:-1:0 4:39:-1:0 4:47:-1:0 4:51:-1:0 4:66:-1:0 4:69:-1:0 4:70:-1:0 4:76:-1:0 5:48:-1:0 5:67:-1:0 5:69:-1:0 5:75:-1:0 5:77:-1:0 6:48:-1:0 6:67:-1:0 6:75:-1:1", 41093.002490195722, 39748.829091162246},
	{"5D_DS_Q19", true, "1:0:4:0 2:14:0:0 2:51:1:0 2:76:-1:0 3:14:0:0 3:56:3:1 3:51:1:0 3:76:-1:0 4:14:0:0 4:51:1:0 4:76:-1:0 4:47:-1:0 4:66:-1:0 4:39:-1:0 4:69:-1:0 4:70:-1:0 5:69:2:0 5:48:0:1 5:67:1:1 5:77:4:1 6:75:2:1 7:75:-1:1", 24794.5588680287, 24763.744610498103},
	{"HQ8a", false, "1:0:-1:0 2:0:-1:0 3:0:-1:0 4:0:-1:0 5:3:-1:0 5:4:-1:1", 7625.0557022509111, 7617.676768189719},
	{"HQ8a", true, "1:0:0:0 2:0:0:0 3:0:0:0 4:0:0:0 5:5:1:0 5:3:0:1 5:3:-1:0 6:4:1:1", 12196.613255221428, 9447.6992681897191},
	{"HQ5a", false, "1:0:-1:0 2:1:-1:0 2:15:-1:0 3:3:-1:0 3:5:-1:0 3:15:-1:0 4:6:-1:0 4:15:-1:0 5:6:-1:0 5:9:-1:1", 15118.627077349727, 15101.59659004951},
	{"HQ5a", true, "1:0:0:0 2:15:2:0 2:1:0:0 3:5:0:1 3:15:2:0 4:15:2:0 4:6:1:0 5:16:2:1 5:6:1:0 6:9:1:1 6:9:-1:1", 18108.239414568616, 19123.231460249553},
}

// pinnedTarget is a compiled bouquet and the engine its runs execute on.
type pinnedTarget struct {
	b   *Bouquet
	eng *exec.Engine
}

// pinnedTargets builds the target of every workload pinnedConcreteRuns
// names.
func pinnedTargets(t *testing.T) map[string]pinnedTarget {
	t.Helper()
	targets := map[string]pinnedTarget{}
	for _, w := range workload.AllAt(0.004, 3) {
		q := w.Query
		eng, err := exec.NewEngine(q, data.Generate(q.Catalog, q.Relations(), nil, 1234), w.Model, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(optimizer.New(cost.NewCoster(q, w.Model)), w.Space, CompileOptions{Lambda: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		targets[w.Name] = pinnedTarget{b, eng}
	}
	_, hq8a, eng8a, _ := concreteFixture(t, 42)
	targets["HQ8a"] = pinnedTarget{hq8a, eng8a}
	rw, err := workload.HQ5a(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(optimizer.New(cost.NewCoster(rw.Query, rw.Model)), rw.Space, CompileOptions{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		t.Fatal(err)
	}
	targets["HQ5a"] = pinnedTarget{b, eng}
	return targets
}

func TestConcreteStepSequencesPinned(t *testing.T) {
	targets := pinnedTargets(t)
	for _, want := range pinnedConcreteRuns {
		pt := targets[want.workload]
		out := runOn(t, pt.b, Run{Optimized: want.optimized, Engine: pt.eng})
		var steps []string
		for _, s := range out.Steps {
			completed := 0
			if s.Completed {
				completed = 1
			}
			steps = append(steps, fmt.Sprintf("%d:%d:%d:%d", s.Contour, s.PlanID, s.Dim, completed))
		}
		if got := strings.Join(steps, " "); got != want.steps {
			t.Errorf("%s optimized=%v: steps\n got %s\nwant %s", want.workload, want.optimized, got, want.steps)
		}
		if out.TotalCost.F() != want.totalCost {
			t.Errorf("%s optimized=%v: total cost %.17g, want %.17g", want.workload, want.optimized, out.TotalCost.F(), want.totalCost)
		}
		vout := runOn(t, pt.b, Run{Optimized: want.optimized, Engine: pt.eng, Parallelism: 1})
		if vout.TotalCost.F() != want.vecTotal {
			t.Errorf("%s optimized=%v: vectorized total cost %.17g, want %.17g", want.workload, want.optimized, vout.TotalCost.F(), want.vecTotal)
		}
	}
}

// TestConcreteWorkerCountInvariance is the paper's repeatable execution
// sequence as a unit test on the vectorized engine: each of the 24 pinned
// workloads, run at one worker with reuse off, must be reproduced bit for
// bit — step sequence, per-step rows and spend, total cost, learned q_run
// — at eight workers and with the reuse cache on.
func TestConcreteWorkerCountInvariance(t *testing.T) {
	targets := pinnedTargets(t)
	for _, pin := range pinnedConcreteRuns {
		pt := targets[pin.workload]
		r := Run{Optimized: pin.optimized, Engine: pt.eng, Parallelism: 1}
		want := runOn(t, pt.b, r)
		for _, workers := range []int{1, 8} {
			for _, reuse := range []bool{false, true} {
				r.Parallelism, r.Reuse = workers, reuse
				got := runOn(t, pt.b, r)
				label := fmt.Sprintf("%s optimized=%v w%d reuse=%v", pin.workload, pin.optimized, workers, reuse)
				if len(got.Steps) != len(want.Steps) {
					t.Fatalf("%s: %d steps, w1 took %d", label, len(got.Steps), len(want.Steps))
				}
				for i := range want.Steps {
					a, b := want.Steps[i], got.Steps[i]
					if repeatable(a) != repeatable(b) {
						t.Fatalf("%s: step %d is %+v, w1 had %+v", label, i, b, a)
					}
					if !a.Completed && a.Spent != a.Budget {
						t.Fatalf("%s: aborted step %d spent %v of budget %v", label, i, a.Spent, a.Budget)
					}
				}
				if got.TotalCost != want.TotalCost || got.Completed != want.Completed || got.ResultRows != want.ResultRows {
					t.Fatalf("%s: total %v completed %v rows %d, w1 had %v %v %d", label,
						got.TotalCost, got.Completed, got.ResultRows, want.TotalCost, want.Completed, want.ResultRows)
				}
				if !slices.Equal(got.Learned, want.Learned) {
					t.Fatalf("%s: learned %v, w1 learned %v", label, got.Learned, want.Learned)
				}
			}
		}
	}
}
