package exec

import (
	"math"
	"testing"

	"repro/internal/cost"
)

// Regression tests for budgeted-execution edge cases: completion exactly
// at the budget boundary, spilled executions starving their downstream
// operators, and zero-row inputs flowing through every operator.

// TestAbortExactlyAtBudgetExhaustion pins the meter's boundary semantics:
// a budget of exactly the full run's cost completes (the meter trips on
// strictly-greater, and charges are deterministic), while one ULP less
// aborts on the final charge — reported as a partial result, not an
// error.
func TestAbortExactlyAtBudgetExhaustion(t *testing.T) {
	fx := newFixture(t)
	for name, p := range fx.plans {
		full := fx.eng.MustRun(p, Options{})

		exact := fx.eng.MustRun(p, Options{Budget: full.CostUsed})
		if !exact.Completed {
			t.Errorf("%s: budget == full cost (%g) aborted", name, full.CostUsed)
		}
		if exact.RowsOut != full.RowsOut {
			t.Errorf("%s: exact-budget run lost rows: %d vs %d", name, exact.RowsOut, full.RowsOut)
		}

		under := cost.Cost(math.Nextafter(full.CostUsed.F(), 0))
		partial := fx.eng.MustRun(p, Options{Budget: under})
		if partial.Completed {
			t.Errorf("%s: completed under a budget one ULP below full cost", name)
			continue
		}
		// The abort lands on the final charge, so the spend equals the
		// full cost — an overshoot of exactly one ULP, not a quantum.
		if partial.CostUsed != full.CostUsed {
			t.Errorf("%s: aborted spend %g, want full cost %g", name, partial.CostUsed, full.CostUsed)
		}
	}
}

// TestSpillStarvesDownstreamOperators pins the §5.3 spill contract from
// the trace's point of view: only the driven subtree runs, every
// operator downstream of the spill node surfaces as Starved in the node
// stats.
func TestSpillStarvesDownstreamOperators(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"] // HJ( HJ(lineitem, part{0}) {1}, orders ) {2}
	res := fx.eng.MustRun(p, Options{Spill: true, SpillPred: 1})
	if !res.Completed {
		t.Fatal("unbudgeted spill should complete")
	}

	nodes := res.TraceNodes(p)
	if len(nodes) != p.NumNodes() {
		t.Fatalf("TraceNodes returned %d entries for %d plan nodes", len(nodes), p.NumNodes())
	}
	var starved, live int
	var drivenOut int64
	for _, n := range nodes {
		if n.Starved {
			starved++
			if n.Out != 0 || n.In != 0 || n.Done {
				t.Fatalf("starved node %s carries counters: %+v", n.Op, n)
			}
			continue
		}
		live++
		if !n.Done {
			t.Errorf("completed spill left live node %s not Done", n.Op)
		}
		if n.Op == "HJ" && drivenOut == 0 {
			drivenOut = n.Out // depth-first walk: first live HJ is the driven node
		}
	}
	// Root hash join and the orders scan sit downstream of predicate 1.
	if starved != 2 || live != 3 {
		t.Fatalf("starved/live = %d/%d, want 2/3", starved, live)
	}
	if drivenOut != res.RowsOut {
		t.Fatalf("driven node emitted %d rows, RowsOut = %d", drivenOut, res.RowsOut)
	}
}

// TestZeroRowInputs pins executions whose selection passes no rows at
// all: every operator must drain cleanly (Completed, Done, zero output,
// zero join matches) rather than wedge or error, and selectivity
// counters must report the true zero.
func TestZeroRowInputs(t *testing.T) {
	fx := newFixture(t)
	// A bound below every p_price value: the part selection passes
	// nothing, so zero rows flow through every join above it.
	eng, err := NewEngine(fx.q, fx.db, cost.Postgres(), map[int]int64{0: math.MinInt64})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range fx.plans {
		res := eng.MustRun(p, Options{})
		if !res.Completed {
			t.Errorf("%s: zero-row run did not complete", name)
		}
		if res.RowsOut != 0 {
			t.Errorf("%s: produced %d rows from an empty selection", name, res.RowsOut)
		}
		if !(res.CostUsed > 0) {
			t.Errorf("%s: zero-row run charged no cost (scans still read pages)", name)
		}
		nodes := res.TraceNodes(p)
		// Pre-order walk: nodes[0] is the plan root, which sits above the
		// selection in every plan and must therefore emit nothing. (Inner
		// joins may still emit rows in plans that apply the selection
		// late, e.g. nlFold folds predicate 0 into the top join.)
		if nodes[0].Out != 0 {
			t.Errorf("%s: root %s emitted %d rows from an empty selection", name, nodes[0].Op, nodes[0].Out)
		}
		for _, n := range nodes {
			if n.Starved {
				t.Errorf("%s: node %s starved in a full (non-spill) run", name, n.Op)
			}
			if n.Relation == "part" && n.Op == "SeqScan" && n.Out != 0 {
				t.Errorf("%s: part scan emitted %d rows past an impossible bound", name, n.Out)
			}
		}
		// Zero rows must also survive a budget: the partial result is
		// still zero rows, never a phantom count.
		tight := eng.MustRun(p, Options{Budget: res.CostUsed / 2})
		if tight.RowsOut != 0 {
			t.Errorf("%s: budgeted zero-row run produced %d rows", name, tight.RowsOut)
		}
	}
}
