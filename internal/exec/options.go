package exec

import (
	"errors"
	"fmt"

	"repro/internal/cost"
)

// DefaultBatchSize is the column-batch row count the vectorized engine
// uses when callers have no reason to pick another: large enough to
// amortize per-batch dispatch and metering, small enough that a batch of
// a few columns stays L1/L2-resident.
const DefaultBatchSize = 1024

// MorselRows is the fixed number of base-table rows in one scan morsel.
// Morsels are issued in epochs (see vecEngine.parallelFor); within an
// epoch workers claim whole morsels from a shared atomic cursor and cut
// them into batches locally. The first two epochs are one morsel wide, so
// the morsel is also the least work a budgeted step commits or discards.
const MorselRows = 1024

// MaxParallelism is the largest morsel worker count a run accepts. Every
// ingress (library, CLI flag, /run's parallelism field) reaches the engine
// through Options, so this is the one place a hostile or mistyped worker
// count is stopped before it becomes that many goroutines. Morsel workers
// are CPU-bound, so counts beyond a large machine's cores buy nothing.
const MaxParallelism = 256

// ErrInvalidOptions is wrapped by every error Run returns for an Options
// value it refuses to interpret, so ingresses can tell a caller's mistake
// from a plan-contract violation.
var ErrInvalidOptions = errors.New("exec: invalid options")

// Options configure one execution.
type Options struct {
	// Budget is the cost limit in model units; +Inf or 0 means
	// unlimited.
	Budget cost.Cost
	// Spill selects spill mode: only the subtree up to and including
	// the node applying SpillPred executes; downstream operators are
	// starved (§5.3).
	Spill bool
	// SpillPred is the predicate whose node the spilled execution
	// drives (meaningful only when Spill is set).
	SpillPred int

	// Vectorized selects the batch-at-a-time morsel-parallel engine
	// instead of the tuple-at-a-time Volcano interpreter. Both engines
	// honour the same contract (counters, budgeted abort in cost units,
	// spill-mode starvation); the vectorized engine commits work in
	// epochs, so an aborted run reports CostUsed == Budget and the
	// counters of its last committed epoch (see Engine.Run).
	Vectorized bool
	// BatchSize is the column-batch row count for a vectorized run.
	// Required (≥ 1) when Vectorized is set; DefaultBatchSize is the
	// recommended value. Must be zero otherwise.
	BatchSize int
	// Parallelism is the morsel worker count for a vectorized run.
	// Required (1 … MaxParallelism) when Vectorized is set; 1 executes
	// the batched plan serially. Completion, CostUsed, RowsOut and every
	// counter are the same at every count. Must be zero otherwise.
	Parallelism int
	// Collect, when non-nil, receives a copy of every row the driven
	// node emits. The engine serializes calls, but parallel vectorized
	// runs deliver rows in a nondeterministic order.
	Collect func(row []int64)

	// Reuse, when non-nil, lets the execution salvage completed operator
	// state (join build tables, sorted merge inputs, anti-join inner
	// sets) cached by earlier executions of the same bouquet run, and
	// contribute its own completed state back. Budget accounting is
	// unchanged — reused subtrees are lump-charged their full model cost
	// — so step outcomes match a no-reuse run; see reuse.go.
	Reuse *ReuseCache
}

// validate rejects option combinations Run must not silently reinterpret:
// a vectorized run with a non-positive batch size or a worker count outside
// 1 … MaxParallelism (which earlier drafts either panicked on, silently
// serialized, or spawned without bound), and batch or parallelism settings
// without Vectorized (which would silently run the tuple-at-a-time engine).
// Every error wraps ErrInvalidOptions.
func (o Options) validate() error {
	switch {
	case !o.Vectorized && (o.BatchSize != 0 || o.Parallelism != 0):
		return fmt.Errorf("%w: BatchSize/Parallelism (%d/%d) set without Vectorized", ErrInvalidOptions, o.BatchSize, o.Parallelism)
	case !o.Vectorized:
		return nil
	case o.BatchSize <= 0:
		return fmt.Errorf("%w: vectorized run with non-positive batch size %d", ErrInvalidOptions, o.BatchSize)
	case o.Parallelism <= 0 || o.Parallelism > MaxParallelism:
		return fmt.Errorf("%w: vectorized run with worker count %d outside 1..%d", ErrInvalidOptions, o.Parallelism, MaxParallelism)
	}
	return nil
}
