package query

import "testing"

// TestPredicateAllocFree pins Query.Predicate, which the allocation-free
// cost kernel (cost.Price, PriceStep, PriceSpec) calls per operator: it
// must not allocate.
func TestPredicateAllocFree(t *testing.T) {
	q := chainQuery(t)
	if got := testing.AllocsPerRun(100, func() { q.Predicate(0) }); got > 0 {
		t.Errorf("Predicate allocates %.0f/call, want 0", got)
	}
}
