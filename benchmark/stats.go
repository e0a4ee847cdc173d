package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail metric may be reported at,
// ascending.
var tailCandidates = []float64{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedTail returns the highest candidate percentile, capped at want,
// that still has at least minBeyond of n samples beyond it; 50 when even
// the median is that thin.
func supportedTail(n int, want float64) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		if p > want {
			break
		}
		// In hundredths, so that 100 samples × 10 % is exactly 10.
		if float64(n)*(100-p) >= minBeyond*100 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0–100) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns vs ascending without disturbing the caller's order.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// gmean returns the geometric mean of the positive entries of vs (ratios
// are compared multiplicatively, so one 10× outlier weighs like one 0.1×).
func gmean(vs []float64) float64 {
	var s float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// ratio returns num/den, or 0 when den is not positive — a layer a
// workload does not exercise reports 0, never NaN.
func ratio(num, den float64) float64 {
	if !(den > 0) {
		return 0
	}
	return num / den
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(vs,
// n=4) does (exclusive method), which is what the PR driver computes its
// spreads with. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance with four or more runs, the full range with
// fewer (three runs have no quartiles worth the name).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	med := median(vs)
	if len(vs) >= 4 {
		q1, q3 := quartiles(vs)
		return ratio(q3-q1, math.Abs(med))
	}
	s := sortedCopy(vs)
	return ratio(s[len(s)-1]-s[0], math.Abs(med))
}
