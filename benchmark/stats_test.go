package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 5, want: 95, got: 50},     // even the median is thin
		{n: 20, want: 95, got: 50},    // 10 beyond p50, only 5 beyond p75
		{n: 40, want: 95, got: 75},    // 10 beyond p75
		{n: 100, want: 95, got: 90},   // 10 beyond p90, 5 beyond p95
		{n: 199, want: 95, got: 90},   // 9.95 beyond p95 is not 10
		{n: 200, want: 95, got: 95},   // exactly 10 beyond p95
		{n: 5000, want: 95, got: 95},  // capped at the percentile asked for
		{n: 5000, want: 99, got: 99},  // 50 beyond p99
		{n: 5000, want: 50, got: 50},  // a median stays a median
		{n: 999, want: 99, got: 95},   // 9.99 beyond p99
		{n: 1000, want: 99, got: 99},  // 10 beyond p99
		{n: 0, want: 95, got: 50},     // empty sample
		{n: 40, want: 75, got: 75},    // the asked-for percentile itself is a candidate
		{n: 39, want: 75, got: 50},    // 9.75 beyond p75
		{n: 100, want: 90, got: 90},   //
		{n: 99, want: 90, got: 75},    // 9.9 beyond p90
		{n: 2000, want: 95, got: 95},  //
		{n: 200, want: 99, got: 95},   // falls back one candidate, not to the median
		{n: 10000, want: 99, got: 99}, //
	} {
		if got := supportedTail(c.n, c.want); got != c.got {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTailMetricNotesAFallback(t *testing.T) {
	p := newPass(config{}, nil)
	for i := 1; i <= 40; i++ {
		p.series("lat", float64(i))
	}
	m := p.tail("x_p95_ms", "lat", 95)
	if m.N != 40 || m.Note == "" {
		t.Fatalf("40 samples cannot carry a p95, but got %+v", m)
	}
	if want := percentile(sortedCopy(p.samples["lat"]), 75); m.Value != want {
		t.Errorf("fell back to %g, want the p75 %g", m.Value, want)
	}
	for i := 41; i <= 200; i++ {
		p.series("lat", float64(i))
	}
	if m := p.tail("x_p95_ms", "lat", 95); m.Note != "" {
		t.Errorf("200 samples carry a p95, but got note %q", m.Note)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(vs, n=4),
// the function the PR driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates past two points
		{[]float64{5, 5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndMeans(t *testing.T) {
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("three runs spread by range: got %g, want 0.2", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("ten runs spread by quartiles: got %g, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("one run has no spread, got %g", got)
	}
	if got := gmean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("gmean = %g, want 10", got)
	}
	if got := gmean([]float64{0, -1}); got != 0 {
		t.Errorf("gmean without positive entries = %g, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio by zero = %g, want 0", got)
	}
}
