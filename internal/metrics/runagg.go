package metrics

import "repro/internal/trace"

// RunAggregate condenses one traced bouquet run into the counters the
// server exports (bouquetd_trace_* series): how many executions ran, how
// many were jettisoned at budget exhaustion, how much of the charged cost
// produced the final result versus paid for exploration, and the per-step
// wall-clock spread. The "wasted" cost is exactly the paper's exploration
// overhead — the Σ budgets of partial executions that MSO bounds (§3).
type RunAggregate struct {
	// Execs counts exec spans (generic and spilled plan executions).
	Execs int `json:"execs"`
	// Completed counts exec spans that ran to completion.
	Completed int `json:"completed"`
	// Spills counts spilled executions (pipeline broken above an error
	// node, §5.3).
	Spills int `json:"spills"`
	// Aborts counts budget-abort spans (steps jettisoned at exhaustion).
	Aborts int `json:"aborts"`
	// Learns counts discovered-selectivity updates; ExactLearns the
	// subset where the dimension became exactly known (§5.2).
	Learns      int `json:"learns"`
	ExactLearns int `json:"exactLearns"`
	// UsefulCost is the summed Spent of completed exec steps; WastedCost
	// the summed Spent of jettisoned ones, in model cost units.
	UsefulCost float64 `json:"usefulCost"`
	WastedCost float64 `json:"wastedCost"`
	// WallNanos sums exec-span wall time; MaxStepWallNanos is the
	// slowest single step.
	WallNanos        int64 `json:"wallNs"`
	MaxStepWallNanos int64 `json:"maxStepWallNs"`
	// Rows is the final result cardinality (the last completed exec
	// span's row count).
	Rows int64 `json:"rows"`
	// ReuseHits counts operator-state reuse-cache hits across exec
	// steps; SalvagedCost is the charged model cost those hits covered
	// without re-executing the work. DiscardedCost refines WastedCost:
	// the portion of jettisoned charges whose work actually ran on the
	// hardware (WastedCost minus the salvaged share of aborted steps) —
	// the true robustness tax after reuse.
	ReuseHits     int     `json:"reuseHits"`
	SalvagedCost  float64 `json:"salvagedCost"`
	DiscardedCost float64 `json:"discardedCost"`
}

// WastedRatio returns WastedCost / (UsefulCost + WastedCost), the
// exploration-overhead fraction of the run's total charged cost; 0 for an
// empty run.
func (a RunAggregate) WastedRatio() float64 {
	total := a.UsefulCost + a.WastedCost
	if !(total > 0) {
		return 0
	}
	return a.WastedCost / total
}

// Aggregate folds a traced run's span sequence into a RunAggregate.
func Aggregate(spans []trace.Span) RunAggregate {
	var a RunAggregate
	for i := range spans {
		a.Add(&spans[i])
	}
	return a
}

// Add folds one span into a. Aggregate is Add over a whole run, in record
// order; a caller with more to do per span folds with Add in its own pass.
func (a *RunAggregate) Add(s *trace.Span) {
	switch s.Kind {
	case trace.KindExec:
		a.Execs++
		a.WallNanos += s.WallNanos
		if s.WallNanos > a.MaxStepWallNanos {
			a.MaxStepWallNanos = s.WallNanos
		}
		a.ReuseHits += s.ReuseHits
		a.SalvagedCost += s.SalvagedCost
		if s.Completed {
			a.Completed++
			a.UsefulCost += s.Spent
			if s.Rows > 0 {
				a.Rows = s.Rows
			}
		} else {
			a.WastedCost += s.Spent
			if d := s.Spent - s.SalvagedCost; d > 0 {
				a.DiscardedCost += d
			}
		}
	case trace.KindSpill:
		a.Spills++
	case trace.KindBudgetAbort:
		a.Aborts++
	case trace.KindLearn:
		a.Learns++
		if s.Completed {
			a.ExactLearns++
		}
	}
}
