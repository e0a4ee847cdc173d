// Package dimreduce implements the paper's dimensionality-control remedy
// for the bouquet's exponential compile-time growth (§8): "the partial
// derivatives of the POSP plan cost functions along each dimension can be
// computed on a low resolution mapping of the ESS, and any dimension with a
// small derivative across all the plans can be eliminated since its cost
// impact is marginal."
//
// Sensitivities measures, per error dimension, the worst multiplicative
// cost swing any low-resolution POSP plan exhibits along that dimension;
// Partition splits the dimensions into those worth keeping and those a
// user may demote to error-free predicates pinned at their upper bounds
// (conservative under PCM: pinning high can only overestimate costs, never
// break the completion guarantee).
package dimreduce

import (
	"fmt"

	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
)

// Sensitivity is the cost impact of one ESS dimension.
type Sensitivity struct {
	// Dim is the ESS dimension index.
	Dim int
	// PredID is the underlying predicate.
	PredID int
	// MaxRatio is the largest cost ratio observed between the high and
	// low ends of the dimension, across every low-resolution POSP plan
	// and every grid line (1.0 = no impact at all).
	MaxRatio float64
}

// Sensitivities probes space at a low per-dimension resolution (res ≥ 2;
// the paper suggests a coarse mapping — 3 is plenty) and returns the
// per-dimension impact, in dimension order.
func Sensitivities(opt *optimizer.Optimizer, space *ess.Space, res int) ([]Sensitivity, error) {
	if res < 2 {
		return nil, fmt.Errorf("dimreduce: resolution %d too low to see a derivative", res)
	}
	q := space.Query()
	dims := make([]ess.Dim, space.Dims())
	for d := 0; d < space.Dims(); d++ {
		dim := space.Dim(d)
		dim.Res = res
		dims[d] = dim
	}
	coarse, err := ess.NewSpaceWithDims(q, dims)
	if err != nil {
		return nil, err
	}

	diagram := posp.Generate(opt, coarse, 0)
	coster := opt.Coster()

	out := make([]Sensitivity, coarse.Dims())
	for d := 0; d < coarse.Dims(); d++ {
		out[d] = Sensitivity{Dim: d, PredID: coarse.Dim(d).PredID, MaxRatio: 1}
	}

	// For every plan, every grid line along every dimension: the ratio
	// between the line's endpoint costs is the (multiplicative)
	// derivative proxy. PCM makes the endpoints the extremes.
	n := coarse.NumPoints()
	for flat := 0; flat < n; flat++ {
		coord := coarse.Coord(flat)
		for d := 0; d < coarse.Dims(); d++ {
			if coord[d] != 0 {
				continue // visit each line once, from its low end
			}
			loSels := coarse.Sels(coarse.PointAtCoord(coord))
			coord[d] = res - 1
			hiSels := coarse.Sels(coarse.PointAtCoord(coord))
			coord[d] = 0
			for _, p := range diagram.Plans() {
				lo := coster.Cost(p, loSels)
				hi := coster.Cost(p, hiSels)
				if r := hi.Over(lo).F(); lo > 0 && r > out[d].MaxRatio {
					out[d].MaxRatio = r
				}
			}
		}
	}
	return out, nil
}

// Partition splits dimensions into keep (impact ≥ 1+threshold) and drop
// sets given measured sensitivities.
func Partition(sens []Sensitivity, threshold float64) (keep, drop []int) {
	for _, s := range sens {
		if s.MaxRatio >= 1+threshold {
			keep = append(keep, s.Dim)
		} else {
			drop = append(drop, s.Dim)
		}
	}
	return keep, drop
}
