// Package floats provides epsilon-aware float64 comparisons for cost and
// selectivity arithmetic.
//
// Plan costs are sums and products of per-operator estimates, so two
// semantically equal costs routinely differ by a few ULPs of accumulated
// rounding error. Exact `==`/`!=` on such values makes tie-breaks (and
// therefore plan choice, contour assignment, and ultimately the MSO ≤ 4·ρ
// guarantee's determinism) depend on summation order. All cost and
// selectivity equality tests in this repository must go through this
// package; the floatcmp analyzer (internal/analysis/floatcmp.go), which
// internal/analysis's TestRepoIsClean runs over the repository, enforces
// that mechanically.
package floats

import "math"

// DefaultRelTol is the relative tolerance used by Eq: two costs within a
// billionth of each other are the same cost. It is deliberately far above
// ULP noise (~1e-16 per operation) and far below any meaningful cost
// difference the isocost ladder (ratio ≥ 2) could distinguish.
const DefaultRelTol = 1e-9

// DefaultAbsTol is the absolute tolerance floor used by Eq for values near
// zero, where a relative test degenerates.
const DefaultAbsTol = 1e-12

// EqWithin reports whether a and b are equal within the given relative
// tolerance rel (scaled by the larger magnitude) or the absolute tolerance
// abs, whichever is looser. Infinities are equal only to themselves; NaN
// equals nothing.
func EqWithin(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //bouquet:allow floatcmp: exact match (incl. equal infinities) short-circuits the tolerance test
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

// Eq is EqWithin at the package's default tolerances. It is the canonical
// cost/selectivity equality test for tie-breaking.
func Eq(a, b float64) bool {
	return EqWithin(a, b, DefaultRelTol, DefaultAbsTol)
}

// Less reports whether a is less than b by more than the default
// tolerance, i.e. a strict ordering that treats near-equal values as ties.
func Less(a, b float64) bool {
	return a < b && !Eq(a, b)
}
