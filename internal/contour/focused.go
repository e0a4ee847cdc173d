package contour

import (
	"context"
	"math"

	"repro/internal/ess"
	"repro/internal/optimizer"
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
// workers goroutines (0 means GOMAXPROCS), and the small crossed cubes
// found on the way have their locations batched likewise. The diagram is
// then numbered by replaying the subdivision depth-first over the memoized
// results, so it is the same — coverage, plan IDs, costs, optimizer calls —
// at every worker count. ctx is checked between batches; on cancellation
// its error is returned with no diagram.
//
// The returned diagram covers (at least) every contour location of the
// corresponding exhaustive diagram, which tests assert.
func FocusedContext(ctx context.Context, opt *optimizer.Optimizer, space *ess.Space, l Ladder, workers int) (*posp.Diagram, FocusStats, error) {
	g := &focusGen{
		opt: opt, space: space, ladder: l, workers: workers,
		memo:   posp.NewDiagram(space),
		queued: make([]bool, space.NumPoints()),
	}
	root := cube{lo: make([]int, space.Dims()), hi: make([]int, space.Dims())}
	for dim := range root.hi {
		root.hi[dim] = space.Dim(dim).Res - 1
	}
	if err := g.subdivide(ctx, root); err != nil {
		return nil, FocusStats{}, err
	}
	g.out = posp.NewDiagram(space)
	g.replay(root)
	return g.out, FocusStats{OptimizerCalls: g.calls, GridPoints: space.NumPoints()}, nil
}

// batchSize bounds how many locations are optimized before their plans are
// interned. Every result of a batch holds a freshly built plan tree, and
// interning keeps one per distinct plan, so the trees live at any moment
// stay a few thousand however wide a level grows.
const batchSize = 4096

// cube is the hypercube [lo, hi] of grid coordinates, corners included.
type cube struct{ lo, hi []int }

// each calls f at every location of c in odometer order (last dimension
// fastest). coord is reused between calls.
func (c cube) each(f func(coord []int)) {
	coord := append([]int{}, c.lo...)
	for {
		f(coord)
		d := len(coord) - 1
		for d >= 0 {
			coord[d]++
			if coord[d] <= c.hi[d] {
				break
			}
			coord[d] = c.lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// halves splits c at the midpoint of dimension dim; the two halves share
// the mid plane.
func (c cube) halves(dim int) (cube, cube) {
	mid := (c.lo[dim] + c.hi[dim]) / 2
	hiA := append([]int{}, c.hi...)
	hiA[dim] = mid
	loB := append([]int{}, c.lo...)
	loB[dim] = mid
	return cube{c.lo, hiA}, cube{loB, c.hi}
}

type focusGen struct {
	opt     *optimizer.Optimizer
	space   *ess.Space
	ladder  Ladder
	workers int

	// memo holds every optimized location; its plan IDs follow batch
	// order and never leave the generator.
	memo *posp.Diagram
	// queued marks the locations in memo or in pending.
	queued  []bool
	pending []int
	calls   int

	// out is the diagram replay numbers.
	out *posp.Diagram
}

// want queues the location for the next flush unless it already was.
func (g *focusGen) want(coord []int) {
	flat := g.space.Flat(coord)
	if !g.queued[flat] {
		g.queued[flat] = true
		g.pending = append(g.pending, flat)
	}
}

// flush optimizes the pending locations into memo, a batch at a time.
func (g *focusGen) flush(ctx context.Context) error {
	for rest := g.pending; len(rest) > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := rest[:min(batchSize, len(rest))]
		for i, res := range posp.OptimizeAll(g.opt, g.space, batch, g.workers) {
			g.memo.Set(batch[i], res.Plan, res.Cost)
		}
		rest = rest[len(batch):]
	}
	g.calls += len(g.pending)
	g.pending = g.pending[:0]
	return nil
}

// classify decides what becomes of c from the memoized costs of its
// diagonal corners: crossed reports whether some IC step lies within them
// (if none does, c is dropped), and dim is c's longest side wider than one
// step, or -1 for a small cube, to be optimized exhaustively.
func (g *focusGen) classify(c cube) (crossed bool, dim int) {
	cLo, cHi := g.memo.Cost(g.space.Flat(c.lo)), g.memo.Cost(g.space.Flat(c.hi))
	for _, s := range g.ladder.Steps {
		if cLo <= s && s <= cHi {
			crossed = true
			break
		}
	}
	if !crossed {
		return false, -1
	}
	dim, width := -1, 1
	for i := range c.lo {
		if w := c.hi[i] - c.lo[i]; w > width {
			dim, width = i, w
		}
	}
	return true, dim
}

// subdivide optimizes, level by level, everything the subdivision of root
// visits.
func (g *focusGen) subdivide(ctx context.Context, root cube) error {
	level, next := []cube{root}, []cube(nil)
	for len(level) > 0 {
		for _, c := range level {
			g.want(c.lo)
			g.want(c.hi)
		}
		if err := g.flush(ctx); err != nil {
			return err
		}
		next = next[:0]
		for _, c := range level {
			switch crossed, dim := g.classify(c); {
			case !crossed:
			case dim < 0:
				c.each(g.want) // optimized with the next level's corners
			default:
				a, b := c.halves(dim)
				next = append(next, a, b)
			}
		}
		level, next = next, level
	}
	return g.flush(ctx)
}

// replay copies memo into out in the order a depth-first subdivision visits
// locations: a cube's lo corner, its hi corner, then its fill or its lower
// and upper half. Diagram plan IDs are assigned by first appearance, and
// contour identification and the anorexic reduction break ties towards the
// lowest ID, so this order — the serial generator's — is what makes the
// bouquet independent of how the optimizations were batched.
func (g *focusGen) replay(c cube) {
	g.visit(c.lo)
	g.visit(c.hi)
	switch crossed, dim := g.classify(c); {
	case !crossed:
	case dim < 0:
		c.each(g.visit)
	default:
		a, b := c.halves(dim)
		g.replay(a)
		g.replay(b)
	}
}

// visit numbers the location in out on its first visit.
func (g *focusGen) visit(coord []int) {
	flat := g.space.Flat(coord)
	if !g.out.Covered(flat) {
		g.out.Set(flat, g.memo.Plan(g.memo.PlanID(flat)), g.memo.Cost(flat))
	}
}
