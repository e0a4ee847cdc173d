// Package contour implements the cost-based discretization at the heart of
// the plan bouquet construction (paper §3, §4):
//
//   - the isocost ladder: a geometric progression of cost steps
//     IC1 … ICm slicing the optimal cost range [Cmin, Cmax];
//   - the POSP infimum curve (PIC) in one dimension;
//   - identification of isocost contours on a plan diagram: the grid
//     locations where the optimal-cost surface crosses each IC step, and
//     the set of plans present on each contour;
//   - the contour-focused POSP generator (§4.2), which optimizes only a
//     narrow band of locations around each contour via recursive hypercube
//     subdivision.
package contour

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
)

// Ladder is a geometric progression of isocost steps.
type Ladder struct {
	// R is the common ratio (r > 1); the paper proves r = 2 optimal
	// (Theorems 1–2).
	R cost.Ratio
	// Steps are the step budgets IC1 … ICm, satisfying the paper's
	// boundary conditions: Steps[0]/R < Cmin ≤ Steps[0] and
	// Steps[m-2] < Cmax ≤ Steps[m-1].
	Steps []cost.Cost
}

// maxSteps bounds a ladder's length, far above the longest ladder the
// repository builds: at the ratio ablation's r = 1.3, the paper's ten
// spaces need at most 52 steps (5D_H_Q7, whose costs span 6.5·10^5).
const maxSteps = 4096

// NewLadder builds the ladder for an optimal-cost range [cmin, cmax] with
// ratio r. The first step is placed at cmin (a = Cmin satisfies
// a/r < Cmin ≤ IC1) and steps double (by r) until covering cmax. A
// ladder that would take more than maxSteps steps is an error.
func NewLadder(cmin, cmax cost.Cost, r cost.Ratio) (Ladder, error) {
	if !(cmin > 0) || !(cmax >= cmin) {
		return Ladder{}, fmt.Errorf("contour: invalid cost range [%g, %g]", cmin, cmax)
	}
	if !(r > 1) {
		return Ladder{}, fmt.Errorf("contour: ratio %g must exceed 1", r)
	}
	// The step count is known before anything is allocated: a ratio a
	// hair above 1 would otherwise append ~10^16 steps.
	if m := math.Ceil(math.Log(cmax.Over(cmin).F())/math.Log(r.F())) + 1; !(m <= maxSteps) {
		return Ladder{}, fmt.Errorf("contour: ratio %g over [%g, %g] needs %g steps, more than %d", r, cmin, cmax, m, maxSteps)
	}
	steps := []cost.Cost{cmin}
	for steps[len(steps)-1] < cmax {
		steps = append(steps, steps[len(steps)-1].Scale(r))
	}
	return Ladder{R: r, Steps: steps}, nil
}

// NumSteps returns m, the number of isocost steps.
func (l Ladder) NumSteps() int { return len(l.Steps) }

// StepFor returns the 1-based index k of the first step with budget ≥ c,
// or m+1 if c exceeds the last step. Steps form an increasing progression,
// so the lookup binary-searches rather than scanning the ladder. No driver
// calls it (core walks Bouquet.Contours directly); it is kept for the
// package example and core's ladder test. It allocates nothing because
// sort.Search's closure stays on the stack, pinned by TestStepForAllocFree.
func (l Ladder) StepFor(c cost.Cost) int {
	return sort.Search(len(l.Steps), func(i int) bool { return c <= l.Steps[i] }) + 1
}

// LadderForSpace computes [Cmin, Cmax] by optimizing the two corners of the
// space's principal diagonal (§4.2) and returns the ladder with ratio r.
func LadderForSpace(opt *optimizer.Optimizer, space *ess.Space, r cost.Ratio) (Ladder, error) {
	cmin := opt.Optimize(space.Sels(space.Origin())).Cost
	cmax := opt.Optimize(space.Sels(space.Terminus())).Cost
	return NewLadder(cmin, cmax, r)
}

// Contour is one identified isocost contour: the maximal grid locations of
// the region {q : copt(q) ≤ Budget} and the plans optimal there.
type Contour struct {
	// K is the 1-based isocost step index.
	K int
	// Budget is the step's cost budget, cost(IC_K).
	Budget cost.Cost
	// Flats are the grid locations on the contour, ascending.
	Flats []int
	// PlanIDs are the distinct diagram plan IDs present on the contour,
	// ascending. len(PlanIDs) is the contour's plan density n_k.
	PlanIDs []int
	// PlanAt maps each contour location to its optimal plan's ID,
	// parallel to Flats.
	PlanAt []int
}

// Density returns n_k, the number of distinct plans on the contour.
func (c Contour) Density() int { return len(c.PlanIDs) }

// Identify locates every ladder step's contour on a fully covered plan
// diagram. Under PCM the region {copt ≤ budget} is downward closed, so its
// maximal grid points — those none of whose single-step successors stay
// within budget — are exactly the discrete contour: every in-budget
// location is dominated by some contour point, whose plan therefore
// completes within the budget anywhere inside (the coverage property the
// bouquet execution relies on).
//
// Contours for steps whose region is empty (budget below the grid's Cmin)
// are returned with no locations.
func Identify(d *posp.Diagram, l Ladder) ([]Contour, error) {
	space := d.Space()
	n := space.NumPoints()
	for flat := 0; flat < n; flat++ {
		if !d.Covered(flat) {
			return nil, fmt.Errorf("contour: diagram not fully covered (location %d); identify requires a dense diagram", flat)
		}
	}
	out := make([]Contour, 0, len(l.Steps))
	for k, budget := range l.Steps {
		c := Contour{K: k + 1, Budget: budget}
		for flat := 0; flat < n; flat++ {
			if d.Cost(flat) > budget {
				continue
			}
			if isMaximalWithin(d, flat, budget) {
				c.Flats = append(c.Flats, flat)
				c.PlanAt = append(c.PlanAt, d.PlanID(flat))
			}
		}
		c.PlanIDs = distinctSorted(c.PlanAt)
		out = append(out, c)
	}
	return out, nil
}

// IdentifySparse locates contours on a partially covered diagram (the
// contour-focused generator's band, §4.2). Covered in-budget locations are
// contour points when every *covered* single-step successor exceeds the
// budget; uncovered successors are treated as beyond it. Relative to the
// dense identification this can only add locations (and hence plans), never
// lose one the band covers — the execution guarantee needs a covering
// superset, so extra contour points cost at most some ρ inflation. Tests
// assert the superset property against dense identification.
func IdentifySparse(d *posp.Diagram, l Ladder) []Contour {
	space := d.Space()
	n := space.NumPoints()
	out := make([]Contour, 0, len(l.Steps))
	for k, budget := range l.Steps {
		c := Contour{K: k + 1, Budget: budget}
		for flat := 0; flat < n; flat++ {
			if !d.Covered(flat) || d.Cost(flat) > budget {
				continue
			}
			if isMaximalAmongCovered(d, flat, budget) {
				c.Flats = append(c.Flats, flat)
				c.PlanAt = append(c.PlanAt, d.PlanID(flat))
			}
		}
		c.PlanIDs = distinctSorted(c.PlanAt)
		out = append(out, c)
	}
	return out
}

// isMaximalAmongCovered is isMaximalWithin restricted to covered
// successors.
func isMaximalAmongCovered(d *posp.Diagram, flat int, budget cost.Cost) bool {
	space := d.Space()
	for dim := 0; dim < space.Dims(); dim++ {
		if succ, ok := successor(space, flat, dim); ok && d.Covered(succ) && d.Cost(succ) <= budget {
			return false
		}
	}
	return true
}

// isMaximalWithin reports whether every single-step successor of flat
// exceeds budget (or is off-grid).
func isMaximalWithin(d *posp.Diagram, flat int, budget cost.Cost) bool {
	space := d.Space()
	for dim := 0; dim < space.Dims(); dim++ {
		if succ, ok := successor(space, flat, dim); ok && d.Cost(succ) <= budget {
			return false
		}
	}
	return true
}

// successor returns flat's neighbour one step up dimension dim, a stride
// away; ok is false when flat lies on the grid's upper face there.
func successor(space *ess.Space, flat, dim int) (succ int, ok bool) {
	stride, res := space.Stride(dim), space.Dim(dim).Res
	return flat + stride, flat/stride%res+1 < res
}

func distinctSorted(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	var out []int
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// MaxDensity returns ρ, the plan cardinality of the densest contour
// (Theorem 3's multiplier).
func MaxDensity(contours []Contour) int {
	rho := 0
	for _, c := range contours {
		if c.Density() > rho {
			rho = c.Density()
		}
	}
	return rho
}

// PIC returns the POSP infimum curve of a one-dimensional diagram: the
// optimal cost at each grid location in selectivity order. It errors on
// multi-dimensional spaces, where the PIC is a surface, not a curve.
func PIC(d *posp.Diagram) ([]cost.Cost, error) {
	if d.Space().Dims() != 1 {
		return nil, fmt.Errorf("contour: PIC curve defined for 1-D spaces only (got %d-D)", d.Space().Dims())
	}
	n := d.Space().NumPoints()
	out := make([]cost.Cost, n)
	for i := 0; i < n; i++ {
		if !d.Covered(i) {
			return nil, fmt.Errorf("contour: PIC requires a dense diagram (location %d uncovered)", i)
		}
		out[i] = d.Cost(i)
	}
	return out, nil
}

// CheckPCM verifies plan-cost monotonicity of the optimal-cost surface on a
// dense diagram: cost must be non-decreasing along every dimension. It
// returns the first violating pair, if any.
func CheckPCM(d *posp.Diagram) error {
	space := d.Space()
	n := space.NumPoints()
	for flat := 0; flat < n; flat++ {
		if !d.Covered(flat) {
			continue
		}
		for dim := 0; dim < space.Dims(); dim++ {
			succ, ok := successor(space, flat, dim)
			if ok && d.Covered(succ) && d.Cost(succ) < d.Cost(flat).Scale(1-1e-9) {
				return fmt.Errorf("contour: PCM violated between locations %d (cost %g) and %d (cost %g)",
					flat, d.Cost(flat), succ, d.Cost(succ))
			}
		}
	}
	return nil
}
