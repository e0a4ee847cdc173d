package ess

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/query"
)

func testQuery(t testing.TB, dims int) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	b := query.NewBuilder("essq", cat).
		Relation("part").Relation("lineitem").Relation("orders")
	b.SelectionPred("part", "p_retailprice", 0.1, dims >= 1)
	b.JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), dims >= 2)
	b.JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), dims >= 3)
	return b.MustBuild()
}

func testSpace(t testing.TB, dims int, res int) *Space {
	t.Helper()
	s, err := NewSpace(testQuery(t, dims), []int{res})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	q := testQuery(t, 2)
	if _, err := NewSpace(q, []int{4, 5, 6}); err == nil {
		t.Error("resolution count mismatch should fail")
	}
	if _, err := NewSpace(q, []int{0}); err == nil {
		t.Error("zero resolution should fail")
	}
	q0 := testQuery(t, 0)
	if _, err := NewSpace(q0, []int{4}); err == nil {
		t.Error("query without error dims should fail")
	}
	// Grids too large to hold: one whose location count overflows int,
	// one of 10^10 locations, one just over the bound.
	if _, err := NewSpace(testQuery(t, 3), []int{3_000_000}); err == nil {
		t.Error("a grid of 2.7·10^19 locations should fail")
	}
	if _, err := NewSpace(q, []int{100_000}); err == nil {
		t.Error("a grid of 10^10 locations should fail")
	}
	if _, err := NewSpace(q, []int{2048, 2049}); err == nil {
		t.Error("a grid of maxPoints + 2048 locations should fail")
	}
	if s, err := NewSpace(q, []int{2048}); err != nil || s.NumPoints() != maxPoints {
		t.Errorf("a grid of maxPoints locations: %v", err)
	}
}

func TestNewSpaceWithDimsValidation(t *testing.T) {
	q := testQuery(t, 1)
	bad := []Dim{{PredID: 0, Lo: 0, Hi: 0.5, Res: 4}}
	if _, err := NewSpaceWithDims(q, bad); err == nil {
		t.Error("Lo = 0 should fail")
	}
	bad[0] = Dim{PredID: 0, Lo: 0.5, Hi: 0.1, Res: 4}
	if _, err := NewSpaceWithDims(q, bad); err == nil {
		t.Error("Hi < Lo should fail")
	}
	bad[0] = Dim{PredID: 0, Lo: 0.1, Hi: 2, Res: 4}
	if _, err := NewSpaceWithDims(q, bad); err == nil {
		t.Error("Hi > 1 should fail")
	}
	if _, err := NewSpaceWithDims(q, nil); err == nil {
		t.Error("dim count mismatch should fail")
	}
}

func TestGridGeometry(t *testing.T) {
	s := testSpace(t, 1, 5)
	vals := s.Values(0)
	if len(vals) != 5 {
		t.Fatalf("values = %v", vals)
	}
	if vals[0] != s.Dim(0).Lo || vals[4] != s.Dim(0).Hi {
		t.Fatalf("endpoints wrong: %v", vals)
	}
	// Geometric spacing: constant ratio.
	r := vals[1] / vals[0]
	for i := 2; i < 5; i++ {
		if math.Abs(vals[i]/vals[i-1]-r) > 1e-9*r {
			t.Fatalf("non-geometric grid: %v", vals)
		}
	}
}

func TestSingleValueDimension(t *testing.T) {
	q := testQuery(t, 1)
	s, err := NewSpaceWithDims(q, []Dim{{PredID: 0, Lo: 0.1, Hi: 0.4, Res: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Values(0); len(got) != 1 || got[0] != 0.4 {
		t.Fatalf("res-1 dimension = %v, want [Hi]", got)
	}
}

func TestFlatCoordRoundTrip(t *testing.T) {
	s := testSpace(t, 3, 4)
	if s.NumPoints() != 64 {
		t.Fatalf("NumPoints = %d", s.NumPoints())
	}
	for flat := 0; flat < s.NumPoints(); flat++ {
		coord := s.Coord(flat)
		if got := s.Flat(coord); got != flat {
			t.Fatalf("round trip %d -> %v -> %d", flat, coord, got)
		}
		p := s.PointAt(flat)
		p2 := s.PointAtCoord(coord)
		for d := range p {
			if p[d] != p2[d] {
				t.Fatalf("PointAt(%d) != PointAtCoord(%v)", flat, coord)
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := testSpace(t, 2, 3)
	for _, f := range []func(){
		func() { s.Coord(-1) },
		func() { s.Coord(9) },
		func() { s.Flat([]int{3, 0}) },
		func() { s.Flat([]int{0, -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestForEachCoversAllInOrder(t *testing.T) {
	s := testSpace(t, 2, 4)
	var seen []int
	s.ForEach(func(flat int, p Point) {
		seen = append(seen, flat)
		want := s.PointAt(flat)
		for d := range p {
			if p[d] != want[d] {
				t.Fatalf("ForEach point mismatch at %d", flat)
			}
		}
	})
	if len(seen) != s.NumPoints() {
		t.Fatalf("ForEach visited %d of %d", len(seen), s.NumPoints())
	}
	for i, f := range seen {
		if f != i {
			t.Fatalf("ForEach out of order at %d: %d", i, f)
		}
	}
}

// dominatedBy reports whether p ≤ q component-wise (p is inside q's third
// quadrant, or equal). Under PCM, cost at p ≤ cost at q for every plan.
func dominatedBy(p, q Point) bool {
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

func TestOriginAndTerminus(t *testing.T) {
	s := testSpace(t, 2, 5)
	o, tm := s.Origin(), s.Terminus()
	for d := 0; d < s.Dims(); d++ {
		if o[d] != s.Dim(d).Lo || tm[d] != s.Dim(d).Hi {
			t.Fatal("origin/terminus mismatch")
		}
	}
	if !dominatedBy(o, tm) || dominatedBy(tm, o) {
		t.Fatal("dominance of origin by terminus broken")
	}
}

func TestCheck(t *testing.T) {
	s := testSpace(t, 2, 3)
	for _, p := range []Point{{1, 1e-9}, s.Origin(), s.Terminus()} {
		if err := s.Check(p); err != nil {
			t.Errorf("Check(%v) = %v, want nil", p, err)
		}
	}
	for _, p := range []Point{nil, {0.5}, {0.5, 0.5, 0.5}, {0, 0.5}, {0.5, -1}, {0.5, 1.5}, {math.NaN(), 0.5}, {math.Inf(1), 0.5}} {
		if err := s.Check(p); err == nil {
			t.Errorf("Check(%v) = nil, want an error", p)
		}
	}
}

func TestSelsInjection(t *testing.T) {
	s := testSpace(t, 2, 3)
	q := s.Query()
	p := Point{0.5, 1e-5}
	sels := s.Sels(p)
	if len(sels) != q.NumPredicates() {
		t.Fatalf("sels length %d", len(sels))
	}
	if sels[q.ErrorDims()[0]] != 0.5 || sels[q.ErrorDims()[1]] != 1e-5 {
		t.Fatal("error dims not injected")
	}
	// Error-free predicate keeps its default.
	for _, pr := range q.Predicates() {
		if !pr.ErrorProne && sels[pr.ID] != cost.Sel(pr.DefaultSel) {
			t.Fatalf("pred %d default overwritten", pr.ID)
		}
	}
}

// TestSelsAtAllocFree: SelsAt equals Sels(PointAt(flat)) at every location
// of a mixed-resolution space, reuses a long-enough buffer, and allocates
// nothing when it does.
func TestSelsAtAllocFree(t *testing.T) {
	q := testQuery(t, 3)
	s, err := NewSpace(q, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf cost.Selectivities
	for flat := 0; flat < s.NumPoints(); flat++ {
		buf = s.SelsAt(buf, flat)
		want := s.Sels(s.PointAt(flat))
		if len(buf) != len(want) {
			t.Fatalf("location %d: %d selectivities, want %d", flat, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("location %d: selectivity %d is %v, want %v", flat, i, buf[i], want[i])
			}
		}
	}
	long := make(cost.Selectivities, q.NumPredicates()+2)
	if got := s.SelsAt(long, 0); len(got) != q.NumPredicates() || &got[0] != &long[0] {
		t.Fatal("SelsAt did not reuse a long buffer")
	}
	if got := testing.AllocsPerRun(100, func() { buf = s.SelsAt(buf, s.NumPoints()-1) }); got > 0 {
		t.Errorf("SelsAt allocates %.0f/call, want 0", got)
	}
}

func TestStrideSteps(t *testing.T) {
	s, err := NewSpace(testQuery(t, 3), []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for flat := 0; flat < s.NumPoints(); flat++ {
		coord := s.Coord(flat)
		for d := 0; d < s.Dims(); d++ {
			if got := flat / s.Stride(d) % s.Dim(d).Res; got != coord[d] {
				t.Fatalf("location %d dimension %d: coordinate %d by stride, %d by Coord", flat, d, got, coord[d])
			}
			if coord[d]+1 < s.Dim(d).Res {
				coord[d]++
				if got := s.Flat(coord); got != flat+s.Stride(d) {
					t.Fatalf("location %d dimension %d: successor %d, want %d", flat, d, got, flat+s.Stride(d))
				}
				coord[d]--
			}
		}
	}
}

func TestNearestAndFloorFlat(t *testing.T) {
	s := testSpace(t, 1, 10)
	vals := s.Values(0)

	// Exact grid values map to themselves.
	for i, v := range vals {
		if got := s.NearestFlat(Point{v}); got != i {
			t.Errorf("NearestFlat(%g) = %d, want %d", v, got, i)
		}
		if got := s.FloorFlat(Point{v}); got != i {
			t.Errorf("FloorFlat(%g) = %d, want %d", v, got, i)
		}
	}
	// Between two grid points, floor picks the lower.
	mid := math.Sqrt(vals[3] * vals[4]) // log midpoint
	if got := s.FloorFlat(Point{mid * 1.001}); got != 3 {
		t.Errorf("FloorFlat(midpoint+) = %d, want 3", got)
	}
	// Clamping.
	if got := s.FloorFlat(Point{vals[0] / 10}); got != 0 {
		t.Errorf("FloorFlat below range = %d", got)
	}
	if got := s.NearestFlat(Point{1.0}); got != len(vals)-1 {
		t.Errorf("NearestFlat above range = %d", got)
	}
}

func TestFloorFlatDominance(t *testing.T) {
	// Property: the floor point is always dominated by the query point.
	s := testSpace(t, 3, 6)
	f := func(a, b, c float64) bool {
		p := Point{
			scaleInto(a, s.Dim(0)),
			scaleInto(b, s.Dim(1)),
			scaleInto(c, s.Dim(2)),
		}
		g := s.PointAt(s.FloorFlat(p))
		return dominatedBy(g, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func scaleInto(v float64, d Dim) float64 {
	u := math.Mod(math.Abs(v), 1)
	if math.IsNaN(u) || math.IsInf(u, 0) {
		u = 0.5
	}
	return d.Lo * math.Exp(u*math.Log(d.Hi/d.Lo))
}

func TestPointHelpers(t *testing.T) {
	p := Point{0.1, 0.2}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("Clone aliased")
	}
	if s := p.String(); s != "(10%, 20%)" {
		t.Fatalf("String = %s", s)
	}
}

func TestDefaultResolution(t *testing.T) {
	cases := map[int]int{1: 100, 2: 30, 3: 16, 4: 10, 5: 7, 6: 7}
	for d, want := range cases {
		if got := DefaultResolution(d); got != want {
			t.Errorf("DefaultResolution(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestStridesRowMajor(t *testing.T) {
	// Dimension 0 must be the slowest-varying (row-major), so the 2-D
	// whatif rendering and Flat([]int{y,x}) agree.
	s := testSpace(t, 2, 3)
	if s.Flat([]int{1, 0})-s.Flat([]int{0, 0}) != 3 {
		t.Fatal("dimension 0 stride should be res of dimension 1")
	}
	if s.Flat([]int{0, 1})-s.Flat([]int{0, 0}) != 1 {
		t.Fatal("last dimension should be contiguous")
	}
}

func BenchmarkForEach(b *testing.B) {
	s := testSpace(b, 3, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForEach(func(int, Point) {})
	}
}

func BenchmarkNearestFlat(b *testing.B) {
	s := testSpace(b, 3, 16)
	p := Point{s.Dim(0).Hi * 0.3, s.Dim(1).Hi * 0.5, s.Dim(2).Hi * 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NearestFlat(p)
	}
}
