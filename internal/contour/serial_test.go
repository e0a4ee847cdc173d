package contour

import (
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
)

// FocusedSerial is the single-threaded depth-first recursion FocusedContext
// replaced, kept as the differential oracle: it optimizes each location the
// moment the recursion first reaches it, straight into the diagram, so its
// plan numbering is the visit order FocusedContext's replay must reproduce.
// It is exported for the external test package only.
func FocusedSerial(opt *optimizer.Optimizer, space *ess.Space, l Ladder) (*posp.Diagram, FocusStats) {
	d := posp.NewDiagram(space)
	g := &serialGen{opt: opt, space: space, ladder: l, diagram: d}

	lo := make([]int, space.Dims())
	hi := make([]int, space.Dims())
	for dim := 0; dim < space.Dims(); dim++ {
		hi[dim] = space.Dim(dim).Res - 1
	}
	g.recurse(lo, hi)

	return d, FocusStats{OptimizerCalls: g.calls, GridPoints: space.NumPoints()}
}

type serialGen struct {
	opt     *optimizer.Optimizer
	space   *ess.Space
	ladder  Ladder
	diagram *posp.Diagram
	calls   int
}

// costAt optimizes the location (memoized through the diagram).
func (g *serialGen) costAt(coord []int) cost.Cost {
	flat := g.space.Flat(coord)
	if g.diagram.Covered(flat) {
		return g.diagram.Cost(flat)
	}
	p := g.space.PointAtCoord(coord)
	res := g.opt.Optimize(g.space.Sels(p))
	g.calls++
	g.diagram.Set(flat, res.Plan, res.Cost)
	return res.Cost
}

// recurse processes the hypercube [lo, hi] (inclusive coordinates).
func (g *serialGen) recurse(lo, hi []int) {
	cLo := g.costAt(lo)
	cHi := g.costAt(hi)

	// Does any IC step cross this cube's diagonal cost range?
	crossed := false
	for _, s := range g.ladder.Steps {
		if cLo <= s && s <= cHi {
			crossed = true
			break
		}
	}
	if !crossed {
		return
	}

	// Find the longest splittable side.
	split, width := -1, 1
	for dim := range lo {
		if w := hi[dim] - lo[dim]; w > width {
			split, width = dim, w
		}
	}
	if split < 0 {
		// Small cube crossed by a contour: optimize every location.
		g.fillCube(lo, hi)
		return
	}

	mid := (lo[split] + hi[split]) / 2
	hiA := append([]int{}, hi...)
	hiA[split] = mid
	loB := append([]int{}, lo...)
	loB[split] = mid
	g.recurse(lo, hiA)
	g.recurse(loB, hi)
}

// fillCube optimizes every location of a small cube.
func (g *serialGen) fillCube(lo, hi []int) {
	coord := append([]int{}, lo...)
	for {
		g.costAt(coord)
		d := len(coord) - 1
		for d >= 0 {
			coord[d]++
			if coord[d] <= hi[d] {
				break
			}
			coord[d] = lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}
