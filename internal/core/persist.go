package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/contour"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/posp"
)

// Bouquet persistence. The paper notes that for canned (form-based) query
// workloads the entire POSP identification can be precomputed offline
// (§4.2); Save/Load make that concrete: a compiled bouquet round-trips
// through JSON, so the expensive compile phase runs once and every later
// session reuses it.
//
// The serialized artifact is bound to a query *shape* (name, predicate
// count, error dimensions); Load revalidates against the Coster it is
// given, which supplies the catalog, cost model, and plan pricing.

type bouquetJSON struct {
	// QueryName and NumPreds bind the artifact to its query shape.
	QueryName string `json:"query"`
	NumPreds  int    `json:"numPreds"`
	// Lambda and Ratio are the compile options used.
	Lambda float64 `json:"lambda"`
	Ratio  float64 `json:"ratio"`
	// Steps are the raw ladder budgets.
	Steps []float64 `json:"steps"`
	// Dims reconstruct the ESS.
	Dims []dimJSON `json:"dims"`
	// Contours are the compiled contours.
	Contours []contourJSON `json:"contours"`
	// Diagram is the dense plan diagram.
	Diagram posp.Snapshot `json:"diagram"`
}

type dimJSON struct {
	PredID int     `json:"predId"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Res    int     `json:"res"`
}

type contourJSON struct {
	K           int     `json:"k"`
	RawBudget   float64 `json:"rawBudget"`
	Budget      float64 `json:"budget"`
	Flats       []int   `json:"flats"`
	PlanIDs     []int   `json:"planIds"`
	AssignFlats []int   `json:"assignFlats"`
	AssignPlans []int   `json:"assignPlans"`
}

// Save writes the compiled bouquet as JSON.
func (b *Bouquet) Save(w io.Writer) error {
	out := bouquetJSON{
		QueryName: b.Query.Name,
		NumPreds:  b.Query.NumPredicates(),
		Lambda:    b.Lambda.F(),
		Ratio:     b.Ladder.R.F(),
		Steps:     costsToFloats(b.Ladder.Steps),
		Diagram:   b.Diagram.Snapshot(),
	}
	for d := 0; d < b.Space.Dims(); d++ {
		dim := b.Space.Dim(d)
		out.Dims = append(out.Dims, dimJSON{PredID: dim.PredID, Lo: dim.Lo, Hi: dim.Hi, Res: dim.Res})
	}
	for _, c := range b.Contours {
		cj := contourJSON{
			K: c.K, RawBudget: c.RawBudget.F(), Budget: c.Budget.F(),
			Flats:   append([]int{}, c.Flats...),
			PlanIDs: append([]int{}, c.PlanIDs...),
		}
		// The wire keeps the assignment as two parallel arrays,
		// AssignFlats repeating Flats; empty ones encode as null.
		cj.AssignFlats = append(cj.AssignFlats, c.Flats...)
		cj.AssignPlans = append(cj.AssignPlans, c.PlanAt...)
		out.Contours = append(out.Contours, cj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reconstructs a bouquet from JSON. The Coster must be built for the
// same query the bouquet was compiled for; the artifact's query binding and
// internal consistency are validated before use.
func Load(r io.Reader, coster *cost.Coster) (*Bouquet, error) {
	var in bouquetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding bouquet: %w", err)
	}
	q := coster.Query()
	if in.QueryName != q.Name {
		return nil, fmt.Errorf("core: bouquet compiled for query %q, coster is for %q", in.QueryName, q.Name)
	}
	if in.NumPreds != q.NumPredicates() {
		return nil, fmt.Errorf("core: bouquet has %d predicates, query has %d", in.NumPreds, q.NumPredicates())
	}
	if len(in.Dims) != q.Dims() {
		return nil, fmt.Errorf("core: bouquet has %d dimensions, query has %d", len(in.Dims), q.Dims())
	}
	if !(in.Ratio > 1) {
		return nil, fmt.Errorf("core: invalid ladder ratio %g", in.Ratio)
	}

	dims := make([]ess.Dim, len(in.Dims))
	for d, dj := range in.Dims {
		dims[d] = ess.Dim{PredID: dj.PredID, Lo: dj.Lo, Hi: dj.Hi, Res: dj.Res}
	}
	space, err := ess.NewSpaceWithDims(q, dims)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding ESS: %w", err)
	}
	diagram, err := posp.FromSnapshot(space, in.Diagram)
	if err != nil {
		return nil, err
	}

	b := &Bouquet{
		Query:   q,
		Space:   space,
		Coster:  coster,
		Diagram: diagram,
		Ladder:  contour.Ladder{R: cost.Ratio(in.Ratio), Steps: floatsToCosts(in.Steps)},
		Lambda:  cost.Ratio(in.Lambda),
	}
	union := map[int]bool{}
	n := space.NumPoints()
	for _, cj := range in.Contours {
		if len(cj.AssignFlats) != len(cj.AssignPlans) {
			return nil, fmt.Errorf("core: contour %d assignment arrays mismatched", cj.K)
		}
		c := Contour{
			K: cj.K, RawBudget: cost.Cost(cj.RawBudget), Budget: cost.Cost(cj.Budget),
			Flats:   cj.Flats,
			PlanIDs: cj.PlanIDs,
		}
		// The assignment arrays may list locations in any order (Save
		// writes Flats' order); the lookup is dropped once PlanAt is
		// laid out parallel to Flats.
		assigned := make(map[int]int, len(cj.AssignFlats))
		for i, f := range cj.AssignFlats {
			if f < 0 || f >= n {
				return nil, fmt.Errorf("core: contour %d references location %d of %d", cj.K, f, n)
			}
			pid := cj.AssignPlans[i]
			if pid < 0 || pid >= diagram.NumPlans() {
				return nil, fmt.Errorf("core: contour %d references plan %d of %d", cj.K, pid, diagram.NumPlans())
			}
			assigned[f] = pid
		}
		c.PlanAt = make([]int, len(c.Flats))
		for i, f := range c.Flats {
			pid, ok := assigned[f]
			if !ok {
				return nil, fmt.Errorf("core: contour %d location %d unassigned", cj.K, f)
			}
			c.PlanAt[i] = pid
		}
		for _, pid := range c.PlanIDs {
			if pid < 0 || pid >= diagram.NumPlans() {
				return nil, fmt.Errorf("core: contour %d plan set references plan %d", cj.K, pid)
			}
			union[pid] = true
		}
		b.Contours = append(b.Contours, c)
	}
	for pid := range union {
		b.PlanIDs = append(b.PlanIDs, pid)
	}
	sort.Ints(b.PlanIDs)
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded bouquet fails validation: %w", err)
	}
	return b, nil
}

// costsToFloats unwraps a cost vector for the JSON wire format (which
// stays plain float64 so artifacts remain readable across versions).
func costsToFloats(cs []cost.Cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.F()
	}
	return out
}

// floatsToCosts re-types a decoded wire vector into cost units.
func floatsToCosts(fs []float64) []cost.Cost {
	out := make([]cost.Cost, len(fs))
	for i, f := range fs {
		out[i] = cost.Cost(f)
	}
	return out
}
