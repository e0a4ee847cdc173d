package posp

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
)

// Snapshot is a serializable image of a plan diagram: the per-location
// optimal plan IDs and costs, plus the distinct plans. Uncovered locations
// carry PlanIDs −1 and are restored as uncovered (costs serialize NaN-free
// as 0 for those slots).
type Snapshot struct {
	// PlanIDs per flat index (−1 = uncovered).
	PlanIDs []int `json:"planIds"`
	// Costs per flat index (meaningful only where PlanIDs ≥ 0).
	Costs []float64 `json:"costs"`
	// Plans indexed by diagram plan ID.
	Plans []*plan.Node `json:"plans"`
}

// Snapshot captures the diagram.
func (d *Diagram) Snapshot() Snapshot {
	s := Snapshot{
		PlanIDs: make([]int, len(d.planID)),
		Costs:   make([]float64, len(d.cost)),
		Plans:   append([]*plan.Node{}, d.plans...),
	}
	for i, id := range d.planID {
		s.PlanIDs[i] = int(id)
		if id >= 0 {
			s.Costs[i] = d.cost[i].F()
		}
	}
	return s
}

// FromSnapshot rebuilds a diagram over space. It validates shape and plan
// references, and rejects a plan list that holds one plan twice, as one
// pointer or as two structurally equal ones.
func FromSnapshot(space *ess.Space, s Snapshot) (*Diagram, error) {
	n := space.NumPoints()
	if len(s.PlanIDs) != n || len(s.Costs) != n {
		return nil, fmt.Errorf("posp: snapshot covers %d locations, space has %d", len(s.PlanIDs), n)
	}
	// The fingerprints are built in scratch, not memoized: the set goes
	// when the check is done, and the plans stay in the diagram.
	seen := make(map[string]int, len(s.Plans))
	var buf []byte
	for i, p := range s.Plans {
		if p == nil {
			return nil, fmt.Errorf("posp: snapshot contains nil plan")
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("posp: snapshot plan invalid: %w", err)
		}
		buf = p.AppendFingerprint(buf[:0])
		if j, ok := seen[string(buf)]; ok {
			return nil, fmt.Errorf("posp: snapshot plans %d and %d are duplicates", j, i)
		}
		seen[string(buf)] = i
	}
	d := NewDiagram(space)
	// Pre-register plans so snapshot IDs are preserved regardless of the
	// order locations were originally filled (the focused generator
	// interns plans in recursion order, not flat order). The plans are
	// distinct, so each gets the next ID.
	for _, p := range s.Plans {
		d.registerPlan(p)
	}
	for i, pid := range s.PlanIDs {
		if pid < 0 {
			continue
		}
		if pid >= len(s.Plans) {
			return nil, fmt.Errorf("posp: snapshot references plan %d of %d", pid, len(s.Plans))
		}
		if !(s.Costs[i] > 0) || math.IsInf(s.Costs[i], 0) {
			return nil, fmt.Errorf("posp: snapshot cost %v at location %d invalid", s.Costs[i], i)
		}
		d.Set(i, s.Plans[pid], cost.Cost(s.Costs[i]))
	}
	d.Compact()
	return d, nil
}
