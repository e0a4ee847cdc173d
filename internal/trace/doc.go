// Package trace provides flag-gated, low-overhead structured execution
// traces for the bouquet runtime.
//
// The paper's §5 evidence — MSO/ASO, per-step budgeted executions, spill
// behaviour — is only as trustworthy as the visibility into what the
// run-time actually did. A Recorder captures that as an ordered sequence
// of fixed-shape Spans: contour entries, budgeted plan executions (with
// per-operator counters), spilled executions, budget aborts, and
// discovered-selectivity updates. Only the run drivers in internal/core
// emit spans, and only when a Recorder is supplied: the driver records the
// contour, spill, budget-abort and learn spans, and each stepper the exec
// span of the step it ran. The simulated stepper's node stats come from
// the step's own pricing walk; the concrete stepper's from the engine's
// per-operator counters, and on the vectorized engine it also stamps the
// exec span with the batch count and morsel worker count. The engines in
// internal/exec record nothing.
//
// Design constraints, in order:
//
//   - disabled tracing must be free: a nil *Recorder is the "off" state,
//     every method is nil-safe, and the hot loops guard span construction
//     behind Enabled() — internal/core pins this with an AllocsPerRun
//     parity test;
//   - enabled tracing must cost what it records: spans land in a
//     power-of-two ring via a single atomic slot claim (lock-free: no
//     mutex on the record path), overwriting the oldest entries when the
//     run outgrows the ring. The ring's slots come in segments of 32
//     spans (4.75 KiB of pointerful memory), each made on its first write
//     and published with a compare-and-swap, so a ring holds the segments
//     its runs wrote — a served run, about 30 spans, one segment; a full
//     ring, 608 KiB. Runs borrow their ring (see the lifecycle below), and
//     giving it back clears only the slots the run wrote and keeps the
//     segments, so a run no longer than the ring's earlier ones records
//     without allocating. What a traced run allocates is its spans' Nodes
//     slices, the Spans snapshot, and any segment it is first to write;
//   - spans must survive the wire: they marshal to JSON (served by the
//     bouquetd /runs/{id}/trace endpoint) with non-finite budgets
//     sanitized at record time, since encoding/json rejects ±Inf.
//
// The lifecycle of a traced run is Acquire → run → Spans → Release.
// Acquire hands out an empty DefaultCapacity recorder from a pool, with
// the segments earlier runs made in it; the run records into it, making
// any segment it writes first; Spans copies the retained spans out;
// Release resets the recorder and returns it to the pool. Two rules keep
// a recycled ring from leaking one run into another. Nothing may Record
// into, or read, a recorder after its Release — so Release comes after
// everything the recorder was handed to has returned, and a run that
// panicked, failed or was abandoned drops its recorder to the collector
// instead. And Spans stays a copy: a snapshot kept after the run (the
// server retains them for /runs/{id}/trace) never aliases a slot the next
// run will write. New remains for a recorder of an explicit capacity that
// lives as long as its owner, and makes its segments as it fills too;
// Reset empties any recorder in place, keeping its segments, for an owner
// that traces several runs in a row.
//
// Snapshotting with Spans is meant for after the traced run completes;
// concurrent Record calls are safe against each other, but a snapshot
// taken mid-run may observe partially ordered history.
package trace
