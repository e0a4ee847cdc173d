package posp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/ess"
)

// matrixChunk is the target number of (plan, location) pricings per task in
// CostMatrix. Chunking over locations as well as plans keeps all workers
// busy even when the diagram holds fewer plans than cores.
const matrixChunk = 4096

// CostMatrix prices every diagram plan at every grid location:
// m[planID][flat] = cost of plan planID at location flat. It is the shared
// input of the anorexic reducer, the SEER baseline, and the sub-optimality
// metrics — all of which compare foreign plan costs across the ESS.
//
// Computation parallelises over (plan, location-range) chunks rather than
// whole plans, so few-plan diagrams still saturate every worker; each plan
// is prepared once and priced at every location (the paper's abstract-plan-
// costing capability) through the allocation-free Coster.PricePlan path.
func CostMatrix(d *Diagram, coster *cost.Coster, workers int) [][]cost.Cost {
	space := d.Space()
	n := space.NumPoints()
	plans := d.Plans()
	m := make([][]cost.Cost, len(plans))
	for pid := range m {
		m[pid] = make([]cost.Cost, n)
	}
	if n == 0 || len(plans) == 0 {
		return m
	}

	// Pre-materialize the selectivity assignment per location and prepare
	// every plan for pricing, so worker goroutines share both read-only.
	sels := make([]cost.Selectivities, n)
	space.ForEach(func(flat int, p ess.Point) {
		sels[flat] = space.Sels(p)
	})
	prepared := make([]*cost.PreparedPlan, len(plans))
	for pid, p := range plans {
		prepared[pid] = coster.PreparePlan(p)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Split each plan's location row into equal spans of at most matrixChunk
	// locations; a task index encodes (plan, span) in row-major order.
	spans := (n + matrixChunk - 1) / matrixChunk
	tasks := len(plans) * spans
	if workers > tasks {
		workers = tasks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(cursor.Add(1)) - 1
				if t >= tasks {
					return
				}
				pid := t / spans
				lo := (t % spans) * matrixChunk
				hi := lo + matrixChunk
				if hi > n {
					hi = n
				}
				row, pp := m[pid], prepared[pid]
				for flat := lo; flat < hi; flat++ {
					row[flat] = coster.PricePlan(pp, sels[flat]).Cost
				}
			}
		}()
	}
	wg.Wait()
	return m
}
