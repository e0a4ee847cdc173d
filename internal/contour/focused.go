package contour

import (
	"context"
	"math"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/posp"
)

// FocusStats reports the compile-time overheads of contour-focused POSP
// generation (§6.1): how many optimizer calls the band approach needed
// versus the exhaustive grid.
type FocusStats struct {
	// OptimizerCalls is the number of selectivity-injected
	// optimizations performed.
	OptimizerCalls int
	// GridPoints is the total grid cardinality (what an exhaustive
	// generation would have cost).
	GridPoints int
}

// SavingsFactor returns GridPoints / OptimizerCalls.
func (s FocusStats) SavingsFactor() float64 {
	if s.OptimizerCalls == 0 {
		return math.Inf(1)
	}
	return float64(s.GridPoints) / float64(s.OptimizerCalls)
}

// Focused is FocusedContext at GOMAXPROCS workers under a context that is
// never cancelled. Cancellation is FocusedContext's only error, so the
// panic on one is unreachable.
func Focused(opt *optimizer.Optimizer, space *ess.Space, l Ladder) (*posp.Diagram, FocusStats) {
	d, stats, err := FocusedContext(context.Background(), opt, space, l, 0)
	if err != nil {
		panic(err)
	}
	return d, stats
}

// FocusedContext generates a sparse plan diagram covering a narrow band of
// locations around each isocost contour, per the paper's recursive
// hypercube subdivision (§4.2): starting from the full space, a hypercube
// is split when some IC step's cost lies within the range established by
// the corners of its principal diagonal; subdivision stops at small cubes,
// which are optimized exhaustively. The interior of the regions between
// contours is never optimized.
//
// The subdivision runs level by level: every cube of a level has its
// not-yet-optimized diagonal corners optimized in one batch on up to
// workers goroutines (0 means GOMAXPROCS); the other locations of the
// small crossed cubes found on the way, which no decision reads, are
// optimized after the last level, in flat order. The diagram is
// then numbered by replaying the subdivision depth-first over the memoized
// results, so it is the same — coverage, plan IDs, costs, optimizer calls —
// at every worker count. ctx is checked between batches; on cancellation
// its error is returned with no diagram.
//
// The returned diagram covers (at least) every contour location of the
// corresponding exhaustive diagram, which tests assert.
func FocusedContext(ctx context.Context, opt *optimizer.Optimizer, space *ess.Space, l Ladder, workers int) (*posp.Diagram, FocusStats, error) {
	n := space.NumPoints()
	g := &focusGen{
		opt: opt, space: space, ladder: l, workers: workers,
		stride: make([]int, space.Dims()),
		width:  make([]int, space.Dims()),
		plans:  make([]*plan.Node, n),
		costs:  make([]cost.Cost, n),
		state:  make([]locState, n),
		cubes:  []cube{{lo: 0, hi: n - 1}},
	}
	for d := range g.stride {
		g.stride[d] = space.Stride(d)
	}
	if err := g.subdivide(ctx); err != nil {
		return nil, FocusStats{}, err
	}
	g.out = posp.NewDiagram(space)
	g.replay(0)
	g.out.Compact()
	return g.out, FocusStats{OptimizerCalls: g.calls, GridPoints: n}, nil
}

// batchSize bounds how many locations are optimized between two polls of
// the context.
const batchSize = 4096

// cube is the hypercube spanned by the principal diagonal from location lo
// to location hi (flat indexes; corners included), and what the
// subdivision made of it.
type cube struct {
	lo, hi int
	// fill marks a small crossed cube, optimized exhaustively; halves is
	// the index in focusGen.cubes of the first of the two halves a split
	// cube became (the second follows it), 0 for a cube not split.
	fill   bool
	halves int
}

type focusGen struct {
	opt     *optimizer.Optimizer
	space   *ess.Space
	ladder  Ladder
	workers int
	// stride is the space's flat stride per dimension: cubes are sized,
	// split and walked by flat arithmetic alone.
	stride []int
	// width and flats are scratch: a cube's side lengths, a small cube's
	// locations.
	width, flats []int

	// plans and costs hold every optimized location's result, by flat
	// index; state says how far each location has got.
	plans   []*plan.Node
	costs   []cost.Cost
	state   []locState
	pending []int
	calls   int

	// cubes is every cube the subdivision visited, a level after another
	// (the root first), so that replay walks the decisions without
	// re-deriving them.
	cubes []cube

	// out is the diagram replay numbers.
	out *posp.Diagram
}

// sides fills g.width with c's side lengths: hi-lo written in the grid's
// mixed radix, one digit per dimension.
func (g *focusGen) sides(c cube) {
	diff := c.hi - c.lo
	for d, s := range g.stride {
		g.width[d] = diff / s
		diff -= g.width[d] * s
	}
}

// inner lists the locations of a small cube — one no side of which is
// more than one step wide — other than its diagonal corners, in flat
// order (last dimension fastest): lo plus every sum of the strides along
// which the cube is one step wide, but none and all of them. hi-lo is the
// sum of all of them, and each stride exceeds the sum of all the smaller
// ones, so they are read off largest first. The slice is scratch, valid
// until the next call.
func (g *focusGen) inner(c cube) []int {
	steps := g.width[:0]
	diff := c.hi - c.lo
	for _, s := range g.stride {
		if diff >= s {
			steps = append(steps, s)
			diff -= s
		}
	}
	out := append(g.flats[:0], c.lo)
	for i := len(steps) - 1; i >= 0; i-- {
		for _, f := range out {
			out = append(out, f+steps[i])
		}
	}
	g.flats = out
	if len(out) < 2 {
		return nil // lo is hi
	}
	return out[1 : len(out)-1]
}

// locState is how far a location has got: a corner is optimized with its
// level, since the next level's decisions read its cost; a small cube's
// other locations nothing reads before the replay, so they are left to one
// last batch, in flat order, unless a later cube takes one as a corner.
type locState uint8

const (
	unseen   locState = iota
	deferred          // a small cube's location, for the last batch
	taken             // optimized, or pending in the next flush
)

// want queues a corner for the next flush unless it already was.
func (g *focusGen) want(flat int) {
	if g.state[flat] != taken {
		g.state[flat] = taken
		g.pending = append(g.pending, flat)
	}
}

// flush optimizes the pending locations, a batch at a time.
func (g *focusGen) flush(ctx context.Context) error {
	for rest := g.pending; len(rest) > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := rest[:min(batchSize, len(rest))]
		for i, res := range posp.OptimizeAll(g.opt, g.space, batch, g.workers) {
			g.plans[batch[i]], g.costs[batch[i]] = res.Plan, res.Cost
		}
		rest = rest[len(batch):]
	}
	g.calls += len(g.pending)
	g.pending = g.pending[:0]
	return nil
}

// crossed reports whether some IC step lies within the costs of c's
// diagonal corners; if none does, c is dropped.
func (g *focusGen) crossed(c cube) bool {
	cLo, cHi := g.costs[c.lo], g.costs[c.hi]
	for _, s := range g.ladder.Steps {
		if cLo <= s && s <= cHi {
			return true
		}
	}
	return false
}

// split returns c's longest side wider than one step, or -1 for a small
// cube, to be optimized exhaustively.
func (g *focusGen) split(c cube) int {
	g.sides(c)
	dim, width := -1, 1
	for d, w := range g.width {
		if w > width {
			dim, width = d, w
		}
	}
	return dim
}

// halve appends the halves of c at the midpoint of dimension dim, which
// share the mid plane; it returns the index of the first.
func (g *focusGen) halve(c cube, dim int) int {
	g.sides(c)
	w, s := g.width[dim], g.stride[dim]
	g.cubes = append(g.cubes, cube{lo: c.lo, hi: c.hi - (w-w/2)*s}, cube{lo: c.lo + w/2*s, hi: c.hi})
	return len(g.cubes) - 2
}

// subdivide optimizes, level by level, the corners of every cube the
// subdivision of the root cube visits, recording each cube's fate in
// g.cubes, and then the small cubes' other locations.
func (g *focusGen) subdivide(ctx context.Context) error {
	for start := 0; start < len(g.cubes); {
		end := len(g.cubes)
		for _, c := range g.cubes[start:end] {
			g.want(c.lo)
			g.want(c.hi)
		}
		if err := g.flush(ctx); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			c := g.cubes[i]
			if !g.crossed(c) {
				continue
			}
			if dim := g.split(c); dim >= 0 {
				h := g.halve(c, dim) // appends: index g.cubes afresh
				g.cubes[i].halves = h
			} else {
				g.cubes[i].fill = true
				for _, f := range g.inner(c) {
					if g.state[f] == unseen {
						g.state[f] = deferred
					}
				}
			}
		}
		start = end
	}
	for f, st := range g.state {
		if st == deferred {
			g.state[f] = taken
			g.pending = append(g.pending, f)
		}
	}
	return g.flush(ctx)
}

// replay numbers the optimized locations into out in the order a
// depth-first subdivision visits them: a cube's lo corner, its hi corner,
// then its fill or its lower and upper half. Diagram plan IDs are assigned
// by first appearance, and contour identification and the anorexic
// reduction break ties towards the lowest ID, so this order — the serial
// generator's — is what makes the bouquet independent of how the
// optimizations were batched.
func (g *focusGen) replay(i int) {
	c := g.cubes[i]
	g.visit(c.lo)
	g.visit(c.hi)
	switch {
	case c.fill:
		for _, f := range g.inner(c) {
			g.visit(f)
		}
	case c.halves > 0:
		g.replay(c.halves)
		g.replay(c.halves + 1)
	}
}

// visit numbers the location in out on its first visit.
func (g *focusGen) visit(flat int) {
	if !g.out.Covered(flat) {
		g.out.Set(flat, g.plans[flat], g.costs[flat])
	}
}
