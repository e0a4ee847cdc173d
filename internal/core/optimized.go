package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/floats"
	"repro/internal/plan"
)

// equivalenceSlack is the cost closeness within which AxisPlans candidates
// form one "equivalence group" (§5.1); from the cheapest group the plan
// with the deepest error-prone node is picked.
const equivalenceSlack = 0.2

// runState is the mutable run-time state of an optimized bouquet execution:
// the running location q_run and which dimensions are exactly known. The
// first-quadrant invariant — q_run ≤ q_a component-wise — is maintained by
// only ever recording selectivity lower bounds (§5.2).
type runState struct {
	qrun    ess.Point
	learned []bool
}

// newRunState starts q_run at the origin with nothing learned, raised to
// seed where one known to underestimate q_a is given (§8).
func (b *Bouquet) newRunState(seed ess.Point) *runState {
	st := &runState{qrun: b.Space.Origin().Clone(), learned: make([]bool, b.Space.Dims())}
	for d := range seed {
		st.qrun[d] = max(st.qrun[d], seed[d])
	}
	return st
}

// allLearned reports whether every dimension is known exactly.
func (r *runState) allLearned() bool { return !slices.Contains(r.learned, false) }

// axisCandidate is one AxisPlans candidate: the plan at the intersection of
// the current contour with the axis through q_run along dim.
type axisCandidate struct {
	dim     int
	planID  int
	cost    cost.Cost // plan cost at q_run (budget headroom heuristic)
	depth   int       // depth of the learnable error node (deeper = better)
	learnID int       // predicate the spilled execution would learn
}

// axisPlans computes the AxisPlans candidate set (§5.1) at state st on
// contour c: for each unlearned dimension, walk the grid line through
// q_run's floor coordinates along that dimension to the last in-budget
// location (the axis–contour intersection) and take the plan covering the
// nearest contour point.
func (b *Bouquet) axisPlans(st *runState, c Contour) []axisCandidate {
	space := b.Space
	base := space.Coord(space.FloorFlat(st.qrun))
	var out []axisCandidate
	for d := 0; d < space.Dims(); d++ {
		if st.learned[d] {
			continue
		}
		coord := append([]int{}, base...)
		// Last covered in-budget coordinate along dimension d.
		// Uncovered locations (sparse/focused diagrams) are skipped:
		// the walk keeps going until a covered location exceeds the
		// budget, landing on the band around the contour.
		axis := -1
		for k := base[d]; k < space.Dim(d).Res; k++ {
			coord[d] = k
			flat := space.Flat(coord)
			if !b.Diagram.Covered(flat) {
				continue
			}
			if b.Diagram.Cost(flat) <= c.RawBudget {
				axis = k
			} else {
				break
			}
		}
		if axis < 0 {
			// Even the floor exceeds the budget on this axis:
			// the contour is already crossed here.
			continue
		}
		coord[d] = axis
		pid, ok := b.contourPlanNear(c, coord)
		if !ok {
			continue
		}
		cand := axisCandidate{dim: d, planID: pid}
		p := b.Diagram.Plan(pid)
		cand.learnID, cand.depth = b.learnablePred(p, st)
		if cand.learnID < 0 {
			continue // nothing this plan can soundly learn
		}
		cand.cost = b.Coster.Cost(p, b.Space.Sels(st.qrun))
		out = append(out, cand)
	}
	return out
}

// contourPlanNear maps a grid coordinate to the covering reduced plan of
// the nearest contour location (by L1 coordinate distance, ties to the
// lower flat for determinism). Results are memoized per (contour, location)
// since grid-wide metric sweeps hit the same axis points repeatedly.
func (b *Bouquet) contourPlanNear(c Contour, coord []int) (int, bool) {
	if len(c.Flats) == 0 {
		return 0, false
	}
	key := uint64(c.K)<<40 | uint64(b.Space.Flat(coord))
	if pid, ok := b.near.load(key); ok {
		return pid, true
	}
	space := b.Space
	best, bestDist := -1, math.MaxInt64 // best indexes Flats
	for i, f := range c.Flats {
		fc := space.Coord(f)
		dist := 0
		for d := range fc {
			if fc[d] > coord[d] {
				dist += fc[d] - coord[d]
			} else {
				dist += coord[d] - fc[d]
			}
		}
		if dist < bestDist || (dist == bestDist && f < c.Flats[best]) {
			best, bestDist = i, dist
		}
	}
	pid := c.PlanAt[best]
	b.near.store(key, pid)
	return pid, true
}

// nearMemo is the bouquet's contourPlanNear memo, keyed by contour step
// and grid location. It lives as long as the bouquet and grows with the
// locations optimized runs visit, so keys and plan IDs are stored
// unboxed; runs on one bouquet share it, under a lock readers share.
type nearMemo struct {
	mu sync.RWMutex
	m  map[uint64]int
}

func (n *nearMemo) load(key uint64) (int, bool) {
	n.mu.RLock()
	pid, ok := n.m[key]
	n.mu.RUnlock()
	return pid, ok
}

func (n *nearMemo) store(key uint64, pid int) {
	n.mu.Lock()
	if n.m == nil {
		n.m = make(map[uint64]int)
	}
	n.m[key] = pid
	n.mu.Unlock()
}

// learnablePred returns the error-prone predicate of p that a spilled
// execution can soundly learn — the *deepest* unlearned error node, whose
// subtree therefore contains no other unlearned error predicates — along
// with its depth. A predicate sharing its node with another unlearned
// error predicate is not soundly learnable (the tuple counts conflate the
// two selectivities, §5.2) and is skipped. Returns (-1, 0) when p has no
// learnable predicate.
func (b *Bouquet) learnablePred(p *plan.Node, st *runState) (predID, depth int) {
	predID, depth = -1, -1
	for d, id := range b.Query.ErrorDims() {
		if st.learned[d] {
			continue
		}
		dep, ok := p.PredDepth(id)
		if !ok || dep <= depth {
			continue
		}
		if n := spillNode(p, id); n != nil && b.nodeSharesUnlearned(n, id, st) {
			continue
		}
		predID, depth = id, dep
	}
	if predID < 0 {
		return -1, 0
	}
	return predID, depth
}

// nodeSharesUnlearned reports whether node n applies an unlearned error
// predicate other than pred.
func (b *Bouquet) nodeSharesUnlearned(n *plan.Node, pred int, st *runState) bool {
	for _, id := range n.Preds {
		if id == pred {
			continue
		}
		if d := b.Query.DimOf(id); d >= 0 && !st.learned[d] {
			return true
		}
	}
	return false
}

// pickCandidate applies the §5.1 heuristic: sort candidates by cost at
// q_run, form the cheapest equivalence group (within equivalenceSlack),
// and pick the group's candidate with the deepest error node.
func pickCandidate(cands []axisCandidate) axisCandidate {
	sort.Slice(cands, func(i, j int) bool {
		if !floats.Eq(cands[i].cost.F(), cands[j].cost.F()) {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].planID < cands[j].planID
	})
	limit := cands[0].cost * (1 + equivalenceSlack)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost > limit {
			break
		}
		if c.depth > best.depth || (c.depth == best.depth && c.planID < best.planID) {
			best = c
		}
	}
	return best
}

// spillNode returns the subtree of p rooted at the node applying pred:
// the spilled plan P̃ of §5.3 executes exactly this subtree, with the
// pipeline broken (and downstream starved) immediately above it.
func spillNode(p *plan.Node, pred int) *plan.Node {
	var found *plan.Node
	p.Walk(func(n *plan.Node) {
		for _, id := range n.Preds {
			if id == pred {
				found = n
			}
		}
	})
	return found
}
