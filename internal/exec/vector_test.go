package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// vopts is the vectorized-run option set the parity tests use.
func vopts(workers int) Options {
	return Options{Vectorized: true, BatchSize: DefaultBatchSize, Parallelism: workers}
}

// capture is one run's result plus its collected output rows, sorted so
// multisets compare as slices regardless of emission order.
type capture struct {
	res  Result
	rows [][]int64
}

func runCollected(t testing.TB, eng *Engine, p *plan.Node, opts Options) capture {
	t.Helper()
	var rows [][]int64
	opts.Collect = func(r []int64) { rows = append(rows, slices.Clone(r)) }
	res, err := eng.Run(p, opts)
	if err != nil {
		t.Fatalf("run (vectorized=%v workers=%d): %v", opts.Vectorized, opts.Parallelism, err)
	}
	slices.SortFunc(rows, slices.Compare)
	return capture{res: res, rows: rows}
}

// assertParity pins the counter-compatibility contract between the two
// engines on completed runs: identical result multisets, identical
// per-node tuple counters (Out, InTuples, Matches, per-predicate passes,
// Done marks), and the same total cost up to float summation order.
func assertParity(t *testing.T, name string, vol, vec capture) {
	t.Helper()
	if !vol.res.Completed || !vec.res.Completed {
		t.Fatalf("%s: completed volcano=%v vector=%v", name, vol.res.Completed, vec.res.Completed)
	}
	if vec.res.RowsOut != vol.res.RowsOut {
		t.Fatalf("%s: RowsOut vector %d vs volcano %d", name, vec.res.RowsOut, vol.res.RowsOut)
	}
	if len(vec.rows) != len(vol.rows) {
		t.Fatalf("%s: result sets differ in size: vector %d vs volcano %d rows", name, len(vec.rows), len(vol.rows))
	}
	for i := range vol.rows {
		if !slices.Equal(vol.rows[i], vec.rows[i]) {
			t.Fatalf("%s: result sets differ at sorted row %d: vector %v vs volcano %v", name, i, vec.rows[i], vol.rows[i])
		}
	}
	cv, cc := vol.res.CostUsed.F(), vec.res.CostUsed.F()
	if math.Abs(cv-cc) > 1e-9*math.Max(1, math.Abs(cv)) {
		t.Fatalf("%s: cost diverged beyond summation-order tolerance: volcano %g vector %g", name, cv, cc)
	}
	if len(vec.res.Stats) != len(vol.res.Stats) {
		t.Fatalf("%s: stats cover %d nodes, volcano %d", name, len(vec.res.Stats), len(vol.res.Stats))
	}
	for node, vst := range vol.res.Stats {
		cst := vec.res.Stats[node]
		if cst == nil {
			t.Fatalf("%s: vector run has no stats for %v node", name, node.Op)
		}
		if cst.Out != vst.Out || cst.InTuples != vst.InTuples || cst.Matches != vst.Matches {
			t.Fatalf("%s/%v: (out,in,match) vector (%d,%d,%d) vs volcano (%d,%d,%d)",
				name, node.Op, cst.Out, cst.InTuples, cst.Matches, vst.Out, vst.InTuples, vst.Matches)
		}
		ids := map[int]bool{}
		for id := range vst.PassBy {
			ids[id] = true
		}
		for id := range cst.PassBy {
			ids[id] = true
		}
		for id := range ids {
			if cst.PassBy[id] != vst.PassBy[id] {
				t.Fatalf("%s/%v: PassBy[%d] vector %d vs volcano %d",
					name, node.Op, id, cst.PassBy[id], vst.PassBy[id])
			}
		}
		if cst.Done != vst.Done || cst.InputsDone != vst.InputsDone {
			t.Fatalf("%s/%v: done marks vector (%v,%v) vs volcano (%v,%v)",
				name, node.Op, cst.Done, cst.InputsDone, vst.Done, vst.InputsDone)
		}
	}
}

// TestVectorizedMatchesVolcanoOnFixturePlans is the operator-matrix
// differential: every fixture plan (plus aggregate roots) must produce
// the same result multiset and counters on the batch engine, serially
// and with more workers than there is work.
func TestVectorizedMatchesVolcanoOnFixturePlans(t *testing.T) {
	fx := newFixture(t)
	plans := map[string]*plan.Node{}
	for name, p := range fx.plans {
		plans[name] = p
	}
	plans["agg"] = plan.NewAggregate(fx.plans["hj"])
	plans["gagg"] = plan.NewGroupAggregate(fx.plans["mj"], "orders", "o_id")
	for name, p := range plans {
		vol := runCollected(t, fx.eng, p, Options{})
		for _, workers := range []int{1, 8, 32} {
			vec := runCollected(t, fx.eng, p, vopts(workers))
			assertParity(t, fmt.Sprintf("%s/w%d", name, workers), vol, vec)
			if vec.res.Workers != workers {
				t.Fatalf("%s: Result.Workers = %d, want %d", name, vec.res.Workers, workers)
			}
			if vec.res.Batches <= 0 {
				t.Fatalf("%s: vectorized run metered %d batches", name, vec.res.Batches)
			}
		}
	}
}

// TestVectorizedOptionsValidation is the regression test for the Run-entry
// validation: non-positive batch sizes or worker counts — and batch
// options without Vectorized — must error, not panic or silently fall
// back to a serial or tuple-at-a-time run.
func TestVectorizedOptionsValidation(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"]
	bad := []Options{
		{Vectorized: true, BatchSize: 0, Parallelism: 1},
		{Vectorized: true, BatchSize: -1024, Parallelism: 1},
		{Vectorized: true, BatchSize: 1024, Parallelism: 0},
		{Vectorized: true, BatchSize: 1024, Parallelism: -8},
		{Vectorized: true, BatchSize: 1024, Parallelism: MaxParallelism + 1},
		{BatchSize: 1024},
		{Parallelism: 8},
	}
	for i, opts := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d: Run panicked on invalid options: %v", i, r)
				}
			}()
			res, err := fx.eng.Run(p, opts)
			if err == nil {
				t.Fatalf("case %d (%+v): invalid options accepted (completed=%v)", i, opts, res.Completed)
			}
			if !strings.Contains(err.Error(), "exec:") || !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("case %d: unexpected error %v", i, err)
			}
		}()
	}
	// The boundary-valid configurations run.
	if res := fx.eng.MustRun(p, Options{Vectorized: true, BatchSize: 1, Parallelism: 1}); !res.Completed {
		t.Fatal("batch size 1 / one worker should complete")
	}
	if res := fx.eng.MustRun(p, Options{Vectorized: true, BatchSize: 1024, Parallelism: MaxParallelism}); !res.Completed {
		t.Fatal("MaxParallelism workers should complete")
	}
}

// TestVectorizedWorkersExceedMorselCount pins the scheduler's tail case:
// every fixture table spans fewer morsels than there are workers, so no
// epoch can use them all — an epoch runs at most one worker per morsel —
// and counters and charges must come out as with one worker.
func TestVectorizedWorkersExceedMorselCount(t *testing.T) {
	fx := newFixture(t)
	const workers = 32
	for _, tbl := range []string{"part", "lineitem", "orders"} {
		if morsels := (fx.db.Table(tbl).NumRows() + MorselRows - 1) / MorselRows; morsels >= workers {
			t.Fatalf("fixture table %s spans %d morsels, want fewer than %d workers", tbl, morsels, workers)
		}
	}
	for name, p := range fx.plans {
		vol := runCollected(t, fx.eng, p, Options{})
		vec := runCollected(t, fx.eng, p, vopts(workers))
		assertParity(t, name, vol, vec)
	}
}

// TestVectorizedAbortAtBatchBoundary is the count meter's analogue of
// TestAbortExactlyAtBudgetExhaustion: a budget of exactly the full cost
// completes, while one ULP less fails the last commit — the run is charged
// exactly its budget, and its counters are those of the last barrier that
// fit, never more than the full run's.
func TestVectorizedAbortAtBatchBoundary(t *testing.T) {
	fx := newFixture(t)
	for name, p := range fx.plans {
		o := vopts(1)
		full := fx.eng.MustRun(p, o)

		o.Budget = full.CostUsed
		exact := fx.eng.MustRun(p, o)
		if !exact.Completed {
			t.Errorf("%s: budget == full cost (%g) aborted", name, full.CostUsed)
		}
		if exact.RowsOut != full.RowsOut {
			t.Errorf("%s: exact-budget run lost rows: %d vs %d", name, exact.RowsOut, full.RowsOut)
		}

		o.Budget = cost.Cost(math.Nextafter(full.CostUsed.F(), 0))
		partial := fx.eng.MustRun(p, o)
		if partial.Completed {
			t.Errorf("%s: completed under a budget one ULP below full cost", name)
			continue
		}
		if partial.CostUsed != o.Budget {
			t.Errorf("%s: aborted spend %g, want the budget %g", name, partial.CostUsed, o.Budget)
		}
		// The discarded commit is the last one, so the counters are the
		// full run's less that final epoch: bounded by the full run's, and
		// the same as any other run that aborts there.
		for node, st := range partial.Stats {
			fst := full.Stats[node]
			if st.Out > fst.Out || st.InTuples > fst.InTuples || st.Matches > fst.Matches {
				t.Errorf("%s/%v: aborted counters %+v exceed the full run's %+v", name, node.Op, *st, *fst)
			}
		}
		for _, workers := range []int{1, 8} {
			o.Parallelism = workers
			if d := outcomeDiff(partial, fx.eng.MustRun(p, o)); d != "" {
				t.Errorf("%s: w%d re-run of the aborted step differs: %s", name, workers, d)
			}
		}
		if partial.Batches <= 0 || partial.Workers != 1 {
			t.Errorf("%s: aborted run batches/workers = %d/%d, want >0/1", name, partial.Batches, partial.Workers)
		}
	}
}

// TestVectorizedBudgetAbortsUnderParallelism: an abort with many workers
// is the abort one worker reports — charged exactly the budget, the
// counters of the last committed epoch, never more than the full run's.
func TestVectorizedBudgetAbortsUnderParallelism(t *testing.T) {
	fx := newFixture(t)
	for name, p := range fx.plans {
		full := fx.eng.MustRun(p, vopts(8))
		o := vopts(8)
		o.Budget = full.CostUsed / 4
		partial := fx.eng.MustRun(p, o)
		if partial.Completed {
			t.Errorf("%s: completed under a quarter budget", name)
			continue
		}
		if partial.CostUsed != o.Budget {
			t.Errorf("%s: aborted run charged %g, want the budget %g", name, partial.CostUsed, o.Budget)
		}
		for node, st := range partial.Stats {
			fst := full.Stats[node]
			if fst != nil && (st.Out > fst.Out || st.InTuples > fst.InTuples || st.Matches > fst.Matches) {
				t.Errorf("%s/%v: partial counters %+v exceed full %+v", name, node.Op, *st, *fst)
			}
		}
		o.Parallelism = 1
		if d := outcomeDiff(fx.eng.MustRun(p, o), partial); d != "" {
			t.Errorf("%s: w8 abort differs from w1: %s", name, d)
		}
	}
}

// TestVectorizedSpillStarvesDownstream mirrors the Volcano spill contract
// on the batch engine: only the driven subtree runs, downstream operators
// surface as Starved, and the driven subtree's counters match a Volcano
// spill of the same plan.
func TestVectorizedSpillStarvesDownstream(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"] // HJ( HJ(lineitem, part{0}) {1}, orders ) {2}
	vol := runCollected(t, fx.eng, p, Options{Spill: true, SpillPred: 1})
	o := vopts(4)
	o.Spill, o.SpillPred = true, 1
	vec := runCollected(t, fx.eng, p, o)
	assertParity(t, "spill-hj", vol, vec)

	nodes := vec.res.TraceNodes(p)
	var starved, live int
	for _, n := range nodes {
		if n.Starved {
			starved++
			if n.Out != 0 || n.In != 0 || n.Done {
				t.Fatalf("starved node %s carries counters: %+v", n.Op, n)
			}
		} else {
			live++
			if !n.Done {
				t.Errorf("completed spill left live node %s not Done", n.Op)
			}
		}
	}
	if starved != 2 || live != 3 {
		t.Fatalf("starved/live = %d/%d, want 2/3", starved, live)
	}
	if vec.res.Workers != 4 {
		t.Fatalf("spilled run reports %d workers, want 4", vec.res.Workers)
	}
}

// TestVectorizedZeroRowBatches pins empty-batch flow: a selection bound
// below every value starves all joins of input, and the batch engine must
// drain cleanly — including in spill mode and under a budget — reporting
// true zeros, identical to Volcano.
func TestVectorizedZeroRowBatches(t *testing.T) {
	fx := newFixture(t)
	eng, err := NewEngine(fx.q, fx.db, cost.Postgres(), map[int]int64{0: math.MinInt64})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range fx.plans {
		vol := runCollected(t, eng, p, Options{})
		for _, workers := range []int{1, 8} {
			vec := runCollected(t, eng, p, vopts(workers))
			assertParity(t, fmt.Sprintf("%s/w%d", name, workers), vol, vec)
			if vec.res.RowsOut != 0 {
				t.Errorf("%s: produced %d rows from an empty selection", name, vec.res.RowsOut)
			}
			if !(vec.res.CostUsed > 0) {
				t.Errorf("%s: zero-row run charged no cost (scans still read pages)", name)
			}
		}
	}
	// Spill mode over zero-row input: the driven subtree completes with
	// zero output, matching Volcano.
	p := fx.plans["hj"]
	volSpill := runCollected(t, eng, p, Options{Spill: true, SpillPred: 1})
	o := vopts(8)
	o.Spill, o.SpillPred = true, 1
	vecSpill := runCollected(t, eng, p, o)
	assertParity(t, "zero-spill", volSpill, vecSpill)
	if vecSpill.res.RowsOut != 0 {
		t.Fatalf("zero-row spill produced %d rows", vecSpill.res.RowsOut)
	}
	// Budgeted zero-row runs keep reporting zero rows.
	o = vopts(8)
	o.Budget = vecSpill.res.CostUsed / 2
	tight := eng.MustRun(p, o)
	if tight.RowsOut != 0 {
		t.Fatalf("budgeted zero-row run produced %d rows", tight.RowsOut)
	}
}

// TestVectorizedSerialDeterminism: budgeted runs are bit-reproducible like
// the Volcano engine's, with one worker and — because epochs commit whole
// — with eight.
func TestVectorizedSerialDeterminism(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["mj"]
	o := vopts(1)
	o.Budget = 200 // below the plan's ~300 units: the run aborts mid-merge
	a := fx.eng.MustRun(p, o)
	if a.Completed {
		t.Fatal("mj completed under a budget meant to abort it")
	}
	for _, workers := range []int{1, 8} {
		o.Parallelism = workers
		if d := outcomeDiff(a, fx.eng.MustRun(p, o)); d != "" {
			t.Fatalf("budgeted vectorized run at w%d is not deterministic: %s", workers, d)
		}
	}
}

// TestVectorizedUnknownOperator: contract violations surface as errors
// from Run, exactly like the Volcano builder's.
func TestVectorizedUnknownOperator(t *testing.T) {
	fx := newFixture(t)
	bogus := &plan.Node{Op: plan.Op(9999)}
	if _, err := fx.eng.Run(bogus, vopts(2)); err == nil || !strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("vectorized run of unknown operator: %v", err)
	}
	nested := plan.NewAggregate(bogus)
	if _, err := fx.eng.Run(nested, vopts(2)); err == nil || !strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("nested unknown operator: %v", err)
	}
}
