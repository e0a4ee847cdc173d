// Package seer reimplements the SEER robust-plan-selection baseline
// (Harish et al., "Identifying Robust Plans through Plan Diagram
// Reduction", PVLDB 2008 — reference [14] of the bouquet paper), which the
// paper evaluates BOU against.
//
// SEER replaces the optimizer's plan choice at each estimated location with
// a λ-safe substitute: a replacement plan whose cost, at *every* location
// of the ESS, is within (1+λ)× the replaced plan's cost. The substitution
// therefore never hurts by more than λ anywhere (MaxHarm ≤ λ), while
// shrinking the plan set. Its comparative yardstick is Poe — the optimal
// plan at the *estimated* location — which is why the paper finds it barely
// moves MSO/ASO: it inherits the native optimizer's worst (qe, qa)
// combinations (§6.2).
package seer

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/posp"
)

// Replacement is the SEER outcome for one plan diagram.
type Replacement struct {
	// Lambda is the safety threshold.
	Lambda cost.Ratio
	// Map gives the retained plan substituted for each original diagram
	// plan ID (identity for retained plans).
	Map []int
	// Retained are the surviving plan IDs, ascending.
	Retained []int
}

// Cardinality returns the retained plan count.
func (r Replacement) Cardinality() int { return len(r.Retained) }

// Reduce computes a SEER replacement for a fully covered diagram.
// planCost is posp.CostMatrix(d, …).
//
// Processing order is by descending optimality-region size (largest regions
// first, ties by plan ID), mirroring the published heuristic: big-region
// plans are retained and then swallow smaller ones wherever the global
// λ-safety condition
//
//	∀q ∈ ESS:  c_replacement(q) ≤ (1+λ)·c_original(q)
//
// holds. Among multiple safe replacements the one with the lowest total
// cost over the grid is chosen.
func Reduce(d *posp.Diagram, planCost [][]cost.Cost, lambda cost.Ratio) (Replacement, error) {
	if lambda < 0 {
		return Replacement{}, fmt.Errorf("seer: negative lambda %g", lambda)
	}
	nPlans := d.NumPlans()
	if nPlans == 0 {
		return Replacement{}, fmt.Errorf("seer: empty diagram")
	}

	// Region sizes.
	regionSize := make([]int, nPlans)
	for flat := 0; flat < d.Space().NumPoints(); flat++ {
		pid := d.PlanID(flat)
		if pid < 0 {
			return Replacement{}, fmt.Errorf("seer: diagram not fully covered (location %d)", flat)
		}
		regionSize[pid]++
	}

	order := make([]int, nPlans)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if regionSize[order[a]] != regionSize[order[b]] {
			return regionSize[order[a]] > regionSize[order[b]]
		}
		return order[a] < order[b]
	})

	totalCost := make([]cost.Cost, nPlans)
	for pid := range totalCost {
		for _, c := range planCost[pid] {
			totalCost[pid] += c
		}
	}

	rep := Replacement{Lambda: lambda, Map: make([]int, nPlans)}
	var retained []int
	for _, pid := range order {
		best, bestTotal := -1, cost.Cost(0)
		for _, cand := range retained {
			if cand == pid {
				continue
			}
			if safeReplacement(planCost[cand], planCost[pid], lambda) &&
				(best < 0 || totalCost[cand] < bestTotal) {
				best, bestTotal = cand, totalCost[cand]
			}
		}
		if best >= 0 {
			rep.Map[pid] = best
		} else {
			rep.Map[pid] = pid
			retained = append(retained, pid)
		}
	}
	sort.Ints(retained)
	rep.Retained = retained
	return rep, nil
}

// safeReplacement reports whether cand's cost is within (1+λ)× orig's cost
// at every grid location.
func safeReplacement(cand, orig []cost.Cost, lambda cost.Ratio) bool {
	for i := range orig {
		if cand[i] > orig[i].Scale((1+lambda)*(1+1e-12)) {
			return false
		}
	}
	return true
}

// Verify checks the global λ-safety of a replacement, returning the first
// violation.
func Verify(rep Replacement, planCost [][]cost.Cost) error {
	for pid, sub := range rep.Map {
		if sub == pid {
			continue
		}
		for flat := range planCost[pid] {
			if planCost[sub][flat] > planCost[pid][flat].Scale((1+rep.Lambda)*(1+1e-9)) {
				return fmt.Errorf("seer: replacement %d for plan %d unsafe at location %d", sub, pid, flat)
			}
		}
	}
	return nil
}
