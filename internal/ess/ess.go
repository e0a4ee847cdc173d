// Package ess models the error-prone selectivity space (ESS) of a query:
// the D-dimensional space spanned by the selectivities of its error-prone
// predicates (paper §2). The space is discretized to a finite grid of
// query locations q(s1,…,sD); each location corresponds to a unique
// selectivity-injected optimization problem.
//
// Grids are geometric (log-scale) per dimension, matching the paper's
// figures: plan switches and isocost steps are multiplicative phenomena, so
// uniform-in-log sampling resolves them far better than linear grids.
package ess

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/query"
)

// Dim describes one ESS dimension.
type Dim struct {
	// PredID is the error-prone predicate realised by this dimension.
	PredID int
	// Lo and Hi bound the selectivity range; 0 < Lo ≤ Hi ≤ max legal.
	Lo, Hi float64
	// Res is the number of grid values on this dimension (≥1).
	Res int

	values []float64
}

// Point is a location in the ESS: one selectivity per dimension, in
// dimension order.
type Point []float64

// Clone returns a copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// String renders the point as percentages, the paper's convention.
func (p Point) String() string {
	s := "("
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.4g%%", v*100)
	}
	return s + ")"
}

// Space is a discretized ESS grid.
type Space struct {
	q    *query.Query
	dims []Dim
	// strides[d] is the flat-index stride of dimension d (row-major,
	// dimension 0 slowest).
	strides []int
	total   int
	// defaults is every predicate at its default selectivity: the
	// assignment's entries no dimension overrides.
	defaults cost.Selectivities
}

// DefaultLoFraction is the default ratio Lo/Hi for a dimension when only
// the upper bound is known: the grid spans three orders of magnitude,
// mirroring the paper's log-scale ESS plots.
const DefaultLoFraction = 1e-3

// NewSpace builds a grid over q's error dimensions. res gives the
// per-dimension resolution (all dimensions share it if len(res)==1).
// Bounds default to [DefaultLoFraction·maxLegal, maxLegal] per dimension,
// where maxLegal comes from the schema (§4.1).
func NewSpace(q *query.Query, res []int) (*Space, error) {
	D := q.Dims()
	if D == 0 {
		return nil, fmt.Errorf("ess: query %s has no error-prone dimensions", q.Name)
	}
	if len(res) != 1 && len(res) != D {
		return nil, fmt.Errorf("ess: got %d resolutions for %d dimensions", len(res), D)
	}
	dims := make([]Dim, D)
	for d, predID := range q.ErrorDims() {
		r := res[0]
		if len(res) == D {
			r = res[d]
		}
		if r < 1 {
			return nil, fmt.Errorf("ess: non-positive resolution %d on dimension %d", r, d)
		}
		hi := query.MaxLegalSel(q.Catalog, q.Predicate(predID))
		lo := hi * DefaultLoFraction
		dims[d] = Dim{PredID: predID, Lo: lo, Hi: hi, Res: r}
	}
	return NewSpaceWithDims(q, dims)
}

// maxPoints bounds a grid's location count, far above every grid the
// repository builds (DefaultResolution's grids top out at 16 807
// locations, 5-D at 7). A plan diagram holds about a dozen bytes per
// location, so the bound caps one near 50 MB.
const maxPoints = 1 << 22

// NewSpaceWithDims builds a grid from fully specified dimensions. A grid
// of more than maxPoints locations is rejected before anything is
// allocated for it.
func NewSpaceWithDims(q *query.Query, dims []Dim) (*Space, error) {
	if len(dims) != q.Dims() {
		return nil, fmt.Errorf("ess: %d dims given, query has %d error dimensions", len(dims), q.Dims())
	}
	total := 1
	for d, dim := range dims {
		if dim.Lo <= 0 || dim.Hi < dim.Lo || dim.Hi > 1 {
			return nil, fmt.Errorf("ess: dimension %d bounds [%g, %g] invalid", d, dim.Lo, dim.Hi)
		}
		if dim.Res < 1 {
			return nil, fmt.Errorf("ess: dimension %d resolution %d invalid", d, dim.Res)
		}
		// total ≤ maxPoints throughout, so the product cannot overflow.
		if dim.Res > maxPoints/total {
			return nil, fmt.Errorf("ess: the grid's resolutions make more than %d locations", maxPoints)
		}
		total *= dim.Res
	}
	s := &Space{q: q, dims: make([]Dim, len(dims)), strides: make([]int, len(dims)), total: total, defaults: cost.DefaultSels(q)}
	copy(s.dims, dims)
	stride := 1
	for d := len(dims) - 1; d >= 0; d-- {
		dim := &s.dims[d]
		dim.values = geometricGrid(dim.Lo, dim.Hi, dim.Res)
		s.strides[d] = stride
		stride *= dim.Res
	}
	return s, nil
}

// geometricGrid returns n values spanning [lo, hi] uniformly in log space.
func geometricGrid(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{hi}
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := 0; i < n; i++ {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	out[0] = lo
	out[n-1] = hi
	return out
}

// Query returns the underlying query.
func (s *Space) Query() *query.Query { return s.q }

// Dims returns the dimensionality D.
func (s *Space) Dims() int { return len(s.dims) }

// Dim returns dimension d's descriptor.
func (s *Space) Dim(d int) Dim { return s.dims[d] }

// Values returns the grid values of dimension d (shared slice; do not
// mutate).
func (s *Space) Values(d int) []float64 { return s.dims[d].values }

// NumPoints returns the total grid cardinality.
func (s *Space) NumPoints() int { return s.total }

// Coord converts a flat index into per-dimension grid coordinates.
// Panics if flat is outside [0, NumPoints()).
func (s *Space) Coord(flat int) []int {
	if flat < 0 || flat >= s.total {
		panic(fmt.Sprintf("ess: flat index %d out of range [0,%d)", flat, s.total))
	}
	out := make([]int, len(s.dims))
	for d := range s.dims {
		out[d] = flat / s.strides[d]
		flat %= s.strides[d]
	}
	return out
}

// Stride returns the flat-index distance between neighbouring locations
// along dimension d (row-major: the last dimension has stride 1), so a
// location's successor along d is flat+Stride(d) whenever its coordinate
// there, flat/Stride(d)%Dim(d).Res, is below Res-1.
func (s *Space) Stride(d int) int { return s.strides[d] }

// Flat converts grid coordinates into a flat index. Panics if a
// coordinate is outside its dimension's resolution.
func (s *Space) Flat(coord []int) int {
	flat := 0
	for d, c := range coord {
		if c < 0 || c >= s.dims[d].Res {
			panic(fmt.Sprintf("ess: coordinate %d out of range on dimension %d", c, d))
		}
		flat += c * s.strides[d]
	}
	return flat
}

// PointAt returns the selectivity point at the given flat index.
func (s *Space) PointAt(flat int) Point {
	coord := s.Coord(flat)
	out := make(Point, len(coord))
	for d, c := range coord {
		out[d] = s.dims[d].values[c]
	}
	return out
}

// PointAtCoord returns the point for explicit grid coordinates.
func (s *Space) PointAtCoord(coord []int) Point {
	out := make(Point, len(coord))
	for d, c := range coord {
		out[d] = s.dims[d].values[c]
	}
	return out
}

// Origin returns the lowest corner of the space (all dimensions at Lo) —
// where every bouquet execution starts.
func (s *Space) Origin() Point {
	out := make(Point, len(s.dims))
	for d := range s.dims {
		out[d] = s.dims[d].Lo
	}
	return out
}

// Terminus returns the highest corner (all dimensions at Hi) — the other
// end of the principal diagonal.
func (s *Space) Terminus() Point {
	out := make(Point, len(s.dims))
	for d := range s.dims {
		out[d] = s.dims[d].Hi
	}
	return out
}

// Check reports whether p can be a query location in the space: one value
// per dimension, each a selectivity in (0,1]. Runs that take an actual
// location q_a from outside — a request, a caller — check it here first.
func (s *Space) Check(p Point) error {
	if len(p) != s.Dims() {
		return fmt.Errorf("ess: a point needs %d values, got %d", s.Dims(), len(p))
	}
	for d, v := range p {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("ess: value %d is %v, out of (0,1]", d, v)
		}
	}
	return nil
}

// Sels converts an ESS point into a full selectivity assignment for the
// query: error dimensions take the point's values, everything else its
// default selectivity. The returned slice is indexed by predicate ID.
func (s *Space) Sels(p Point) cost.Selectivities {
	out := s.defaults.Clone()
	for d, dim := range s.dims {
		out[dim.PredID] = cost.Sel(p[d])
	}
	return out
}

// SelsAt writes the selectivity assignment at grid location flat —
// Sels(PointAt(flat)) — into buf, growing it only when it is too short,
// and returns it. With a buffer of the query's predicate count it
// allocates nothing, pinned by TestSelsAtAllocFree. Panics if flat is
// outside [0, NumPoints()).
func (s *Space) SelsAt(buf cost.Selectivities, flat int) cost.Selectivities {
	if flat < 0 || flat >= s.total {
		panic(fmt.Sprintf("ess: flat index %d out of range [0,%d)", flat, s.total))
	}
	if cap(buf) < len(s.defaults) {
		buf = make(cost.Selectivities, len(s.defaults))
	}
	buf = buf[:len(s.defaults)]
	copy(buf, s.defaults)
	for d, dim := range s.dims {
		buf[dim.PredID] = cost.Sel(dim.values[flat/s.strides[d]%dim.Res])
	}
	return buf
}

// ForEach calls f for every grid location in flat-index order.
func (s *Space) ForEach(f func(flat int, p Point)) {
	coord := make([]int, len(s.dims))
	p := make(Point, len(s.dims))
	for d := range s.dims {
		p[d] = s.dims[d].values[0]
	}
	for flat := 0; flat < s.total; flat++ {
		f(flat, p)
		// Increment the mixed-radix coordinate (last dim fastest).
		for d := len(coord) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < s.dims[d].Res {
				p[d] = s.dims[d].values[coord[d]]
				break
			}
			coord[d] = 0
			p[d] = s.dims[d].values[0]
		}
	}
}

// NearestFlat returns the flat index of the grid location closest (in log
// space, per dimension) to p, clamping out-of-range values.
func (s *Space) NearestFlat(p Point) int {
	coord := make([]int, len(s.dims))
	for d := range s.dims {
		coord[d] = s.nearestCoord(d, p[d])
	}
	return s.Flat(coord)
}

// FloorFlat returns the flat index of the grid location dominated by p:
// per dimension, the largest grid value ≤ p[d] (clamped to the grid). Under
// PCM the optimal cost there lower-bounds the optimal cost at p, which is
// the safe direction for the bouquet's early-contour-change test.
func (s *Space) FloorFlat(p Point) int {
	coord := make([]int, len(s.dims))
	for d := range s.dims {
		coord[d] = s.floorCoord(d, p[d])
	}
	return s.Flat(coord)
}

func (s *Space) floorCoord(d int, v float64) int {
	vals := s.dims[d].values
	if v <= vals[0] {
		return 0
	}
	if v >= vals[len(vals)-1] {
		return len(vals) - 1
	}
	lo, hi := 0, len(vals)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if vals[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (s *Space) nearestCoord(d int, v float64) int {
	vals := s.dims[d].values
	if v <= vals[0] {
		return 0
	}
	if v >= vals[len(vals)-1] {
		return len(vals) - 1
	}
	lo, hi := 0, len(vals)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if vals[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Pick the log-nearer of the bracketing values.
	if math.Log(v/vals[lo]) <= math.Log(vals[hi]/v) {
		return lo
	}
	return hi
}

// DefaultResolution returns the per-dimension grid resolution used by the
// evaluation harness for a D-dimensional space, balancing fidelity against
// the O(|POSP|·res^D) metric computations (DESIGN.md §4).
func DefaultResolution(d int) int {
	switch {
	case d <= 1:
		return 100
	case d == 2:
		return 30
	case d == 3:
		return 16
	case d == 4:
		return 10
	default:
		return 7
	}
}
