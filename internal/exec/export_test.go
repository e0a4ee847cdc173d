package exec

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// Test hooks for the external exec_test package, whose tests need
// packages (core) that import exec.

// FixtureForTest returns the package fixture's engine, an engine over the
// same data whose 10 kB of work memory makes its larger hash builds and
// sorts spill — the orders build (1 000 rows) at its unpruned two columns
// but not at the one a join above it reads — and the fixture's named
// plans.
func FixtureForTest(t testing.TB) (eng, spilling *Engine, plans map[string]*plan.Node) {
	fx := newFixture(t)
	tiny := cost.Postgres()
	tiny.P.WorkMemBytes = 10_000
	spilling, err := NewEngine(fx.q, fx.db, tiny, fx.bindings)
	if err != nil {
		t.Fatal(err)
	}
	return fx.eng, spilling, fx.plans
}

// OutcomeDiff describes the first difference between two runs in verdict,
// charged cost bits, rows or any counter ("" when there is none).
func OutcomeDiff(a, b Result) string { return outcomeDiff(a, b) }
