// Package exec executes physical plans over the synthetic tables of
// internal/data, providing the three run-time capabilities the bouquet
// mechanism needs from an engine (paper §5.4):
//
//   - cost-limited partial execution: every operator charges its work in
//     the *same cost units as the optimizer's cost model*, and execution
//     aborts as soon as the accumulated charge exceeds the budget;
//   - node-granularity instrumentation: per-operator tuple counters,
//     including per-predicate pass counts, from which running selectivity
//     lower bounds are derived (§5.2);
//   - spilled execution: the pipeline is broken immediately after a chosen
//     predicate's node, starving all downstream operators, so the entire
//     budget is spent learning that predicate's selectivity (§5.3).
//
// Charging in model units makes the engine a "perfect cost model" engine
// by construction: every price it charges is one internal/cost computes
// (cost.Rates). §3.4's bounded modeling errors are reproduced on the
// model side instead, by a perturbed coster standing in for the actual
// costs (core.Bouquet.SetActualCoster).
//
// Two engines share one Engine front door and those contracts. The
// default is a Volcano-style tuple-at-a-time iterator tree — the
// reference implementation, deliberately simple. Options.Vectorized
// selects the batch engine instead: operators exchange column batches
// of Options.BatchSize rows carrying selection vectors, scans are split
// into fixed-size morsels claimed by Options.Parallelism workers, and
// pipeline breakers (hash build, sort, aggregation) collect per-worker
// partitions merged at the stage barrier. Its kernels count events in
// integers; cost is priced from the counts in one place and committed
// epoch by epoch, so a budgeted vectorized run reports the same verdict,
// cost, rows and counters at every worker count, and a run the budget
// cuts short is charged exactly its budget (see Engine.Run).
//
// The two engines are counter-compatible: a completed run reports
// identical Result counters (RowsOut, per-node Out/InTuples/Matches/
// PassBy) on either engine, and costs equal up to float summation
// order (bit for bit between vectorized runs). The differential tests
// in vector_workload_test.go pin that equivalence across all ten paper
// workloads; EXECUTION.md at the
// repository root documents the batch layout, the morsel scheduler, and
// the budget metering in detail.
//
// The engine records no trace spans, and Options has no Trace,
// TraceContour or TracePlan field. A Result reports what a run did —
// verdict, spend, counters, batches, workers — and Result.TraceNodes
// renders its counters as a span payload; the bouquet run driver in
// internal/core records the spill, exec and budget-abort spans around each
// step, in that order, for engine and simulated runs alike.
package exec
