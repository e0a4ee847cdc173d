package floats

import (
	"math"
	"testing"
)

func TestEqBasics(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{0, 0, true},
		{0, 1e-13, true},
		{0, 1e-9, false},
		{-1, 1, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), math.MaxFloat64, false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
		{1e12, 1e12 + 1, true}, // relative: 1 part in 1e12
		{1e12, 1e12 + 1e5, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Eq(c.b, c.a); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestEqWithinCustomTolerance(t *testing.T) {
	if !EqWithin(100, 101, 0.02, 0) {
		t.Error("EqWithin(100, 101, rel=2%) should hold")
	}
	if EqWithin(100, 103, 0.02, 0) {
		t.Error("EqWithin(100, 103, rel=2%) should not hold")
	}
	if !EqWithin(0, 0.5, 0, 1) {
		t.Error("EqWithin abs=1 should absorb the gap near zero")
	}
}

func TestLess(t *testing.T) {
	if !Less(1, 2) {
		t.Error("Less(1,2) should hold")
	}
	if Less(2, 1) {
		t.Error("Less(2,1) should not hold")
	}
	if Less(1, 1+1e-12) {
		t.Error("Less must treat near-equal values as ties")
	}
}

// TestAccumulatedErrorTieBreak is the motivating case for the floatcmp
// invariant: two plans whose costs are semantically identical but computed
// by different summation orders. An exact == tie-break silently misorders
// them (the "equal" branch never fires, so the plan-ID tie-break is skipped
// and whichever accumulation happened to land lower wins); the epsilon
// tie-break restores the deterministic lowest-ID choice.
func TestAccumulatedErrorTieBreak(t *testing.T) {
	// The same ten operator costs summed forwards and backwards.
	terms := []float64{0.1, 0.7, 1.3, 2.9, 0.001, 5.5, 0.03, 7.77, 0.21, 9.9}
	var fwd, bwd float64
	for i := 0; i < len(terms); i++ {
		fwd += terms[i]
	}
	for i := len(terms) - 1; i >= 0; i-- {
		bwd += terms[i]
	}
	if fwd == bwd { // exact on purpose: the test asserts the two accumulations differ exactly
		t.Skip("accumulation orders agreed exactly on this platform; cannot demonstrate misorder")
	}

	// Plan 0 costs fwd, plan 1 costs bwd. The deterministic rule is
	// "cheapest, ties by lowest plan ID", so plan 0 must win.
	type plan struct {
		id   int
		cost float64
	}
	plans := []plan{{1, bwd}, {0, fwd}} // iterate plan 1 first, as a map sweep might

	pickExact := func() int {
		best, bestCost := -1, math.Inf(1)
		for _, p := range plans {
			if p.cost < bestCost || (p.cost == bestCost && p.id < best) { // exact on purpose: deliberately reproduces the pre-fix buggy compare
				best, bestCost = p.id, p.cost
			}
		}
		return best
	}
	pickEps := func() int {
		best, bestCost := -1, math.Inf(1)
		for _, p := range plans {
			switch {
			case best < 0 || Less(p.cost, bestCost):
				best, bestCost = p.id, p.cost
			case Eq(p.cost, bestCost) && p.id < best:
				best = p.id
			}
		}
		return best
	}

	if got := pickEps(); got != 0 {
		t.Fatalf("epsilon tie-break picked plan %d, want 0", got)
	}
	// The exact compare's result depends on which accumulation landed
	// lower — document that it gets this ordering wrong whenever the
	// noise favours the higher ID.
	if fwd > bwd {
		if got := pickExact(); got != 1 {
			t.Fatalf("expected the exact compare to misorder (pick plan 1), got %d", got)
		}
	}
}
