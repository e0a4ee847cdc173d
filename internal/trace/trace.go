package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kind classifies a Span.
type Kind uint8

const (
	// KindCompile marks a bouquet compilation (one span per compile).
	KindCompile Kind = iota + 1
	// KindContour marks the run entering an isocost contour.
	KindContour
	// KindExec is one (possibly partial) plan execution step: generic or
	// spilled, budgeted or terminal. Completed=false means the whole
	// budget was spent and the intermediate results jettisoned.
	KindExec
	// KindSpill marks a spilled execution breaking the pipeline above a
	// chosen predicate's node, starving downstream operators (§5.3).
	// Recorded by the run driver before the spilled step's exec span.
	KindSpill
	// KindBudgetAbort marks an execution aborting at budget exhaustion.
	// Recorded by the run driver after the aborted step's exec span, with
	// the step's Spent.
	KindBudgetAbort
	// KindLearn is a discovered-selectivity update: q_run moved along Dim
	// to Sel (Completed=true when the value is exact, §5.2).
	KindLearn
)

var kindNames = [...]string{
	KindCompile:     "compile",
	KindContour:     "contour",
	KindExec:        "exec",
	KindSpill:       "spill",
	KindBudgetAbort: "budget-abort",
	KindLearn:       "learn",
}

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown span kind %q", s)
}

// PredCount is one predicate's pass count at an operator (the counter
// selectivity learning divides by the input cardinality, §5.2).
type PredCount struct {
	Pred  int   `json:"pred"`
	Count int64 `json:"count"`
}

// NodeStat is one operator's counters within an executed step: real
// tuple counts surfaced from the engine's instrumentation for concrete
// runs, or the cost model's realized cardinalities for simulated runs.
type NodeStat struct {
	// Op is the operator name (plan.Op.String()).
	Op string `json:"op"`
	// Relation is the base relation for scan-like operators.
	Relation string `json:"relation,omitempty"`
	// Out is the number of tuples the operator emitted.
	Out int64 `json:"out"`
	// In is the number of tuples consumed from the outer/left input.
	In int64 `json:"in,omitempty"`
	// Matches counts join-predicate matches before residual filters.
	Matches int64 `json:"matches,omitempty"`
	// Pass holds per-predicate pass counts, ascending by predicate ID.
	Pass []PredCount `json:"pass,omitempty"`
	// EstCost is the cost model's subtree cost estimate (simulated runs;
	// zero for engine-surfaced stats, whose charges are metered globally).
	EstCost float64 `json:"estCost,omitempty"`
	// Done reports whether the operator ran to completion.
	Done bool `json:"done"`
	// Starved marks operators never built because a spilled execution
	// broke the pipeline below them (§5.3).
	Starved bool `json:"starved,omitempty"`
}

// Span is one structured event of a traced run. All fields are plain
// values so a Span costs nothing to construct on the stack; only Nodes
// (attached exclusively in enabled mode) touches the allocator.
type Span struct {
	// Seq is the record order, assigned by the Recorder.
	Seq uint64 `json:"seq"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Contour is the 1-based isocost step index (0 when not applicable).
	Contour int `json:"contour"`
	// PlanID is the diagram plan ID (-1 when not applicable).
	PlanID int `json:"plan"`
	// Dim is the ESS dimension a spilled execution learns, -1 otherwise.
	Dim int `json:"dim"`
	// Pred is the predicate ID a spill/learn span concerns, -1 otherwise.
	Pred int `json:"pred"`
	// Budget is the cost limit the step ran under (0 = unbudgeted).
	Budget float64 `json:"budget"`
	// Spent is the cost actually charged.
	Spent float64 `json:"spent"`
	// Rows is the row count the driven node produced.
	Rows int64 `json:"rows"`
	// Sel is the discovered selectivity value (KindLearn).
	Sel float64 `json:"sel,omitempty"`
	// Completed reports step completion (KindExec) or exact learning
	// (KindLearn).
	Completed bool `json:"completed"`
	// WallNanos is the step's wall-clock duration in nanoseconds.
	WallNanos int64 `json:"wallNs,omitempty"`
	// Batches is the number of column batches a vectorized execution
	// metered (0 for tuple-at-a-time runs).
	Batches int64 `json:"batches,omitempty"`
	// Workers is the morsel worker count of a vectorized execution (0
	// for tuple-at-a-time runs).
	Workers int `json:"workers,omitempty"`
	// ReuseHits counts operator-state reuse-cache hits inside an
	// executed step (0 when the cache is disabled or cold).
	ReuseHits int `json:"reuseHits,omitempty"`
	// SalvagedCost is the model cost those hits charged without
	// re-executing the work — part of Spent, saved on the wall clock.
	SalvagedCost float64 `json:"salvagedCost,omitempty"`
	// Nodes carries per-operator counters for executed steps.
	Nodes []NodeStat `json:"nodes,omitempty"`
}

// SafeCost sanitizes a cost value for span fields: non-finite budgets
// (the +Inf "unbudgeted" sentinel of the terminal execution) become 0,
// which Span documents as "no limit" — and which encoding/json accepts.
func SafeCost(c float64) float64 {
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return 0
	}
	return c
}

// DefaultCapacity is the ring size New selects for capacity <= 0 and the
// size of every pooled ring: roomy enough for every step of a deep bouquet
// run (contours × ρ × a few spans per step; a served run emits about 30).
// The ring is not allocated up front: its slots come in segments of segLen
// spans, each made on its first write, so a run holds the segments it
// wrote — one 4.75 KiB segment for a served run — and a full ring 608 KiB.
const DefaultCapacity = 4096

// segLen is the number of spans in one segment of a ring (a power of two).
const segLen = 32

// segment is the unit in which a ring's slots are allocated.
type segment [segLen]Span

// Recorder collects spans into a lock-free ring buffer. The zero state
// for callers is a nil *Recorder, which disables tracing entirely; every
// method is nil-safe.
//
// Slot i lives at segs[i/segLen][i%segLen]. A ring smaller than segLen has
// one segment and uses its first capacity slots.
type Recorder struct {
	segs []atomic.Pointer[segment]
	mask uint64
	pos  atomic.Uint64
}

// New builds a Recorder retaining the last capacity spans (rounded up to
// a power of two; capacity <= 0 selects DefaultCapacity). Its segments are
// made as the ring fills; code that traces run after run uses Acquire,
// whose recorders keep theirs.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{segs: make([]atomic.Pointer[segment], (n+segLen-1)/segLen), mask: uint64(n - 1)}
}

// pool holds empty DefaultCapacity recorders between runs.
var pool = sync.Pool{New: func() any { return New(0) }}

// Acquire returns an empty DefaultCapacity Recorder, recycled from an
// earlier run's Release when one is at hand. The caller owns it until it
// calls Release.
func Acquire() *Recorder { return pool.Get().(*Recorder) }

// capacity returns the number of spans r retains.
func (r *Recorder) capacity() int { return int(r.mask + 1) }

// Reset empties r for another run: Seq restarts at 0 and Dropped at 0.
// It clears the slots the last run wrote and no others, so it costs what
// that run recorded, not what the ring could hold; the segments stay, so
// a run no longer than the last records without allocating. Nothing may
// be recording into r.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i, n := 0, r.Len(); i < n; i += segLen {
		clear(r.segs[i/segLen].Load()[:min(n-i, segLen)])
	}
	r.pos.Store(0)
}

// Release resets r and hands it to the next Acquire; a recorder of another
// capacity is reset and left to the collector. Nothing may Record into r,
// or read it, after Release: take the Spans snapshot first, and call
// Release only when everything that was handed r has returned. A run that
// panicked, failed or was abandoned drops its recorder without a Release —
// a goroutine the run left behind may still hold it, and a fresh ring costs
// less than a span landing in another run's trace.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	r.Reset()
	if r.capacity() == DefaultCapacity {
		pool.Put(r)
	}
}

// Enabled reports whether spans are being collected. Hot loops guard
// span construction (and any time.Now calls) behind it so the disabled
// path stays allocation- and syscall-free.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one span: a single atomic claims the next slot, the
// span is copied in, and its Seq is the claim order. When the ring is
// full the oldest span is overwritten. Safe for concurrent use, and takes
// no lock; no-op on a nil Recorder. It allocates only on the first write
// to a segment (see claim); allocation-freedom otherwise is pinned by
// TestRecordAllocFree. claim is split out so that Record stays small
// enough to inline, and a span is copied once, into its slot.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	slot := r.claim(&s)
	// A plain write into a slot another writer may claim after the ring
	// wraps: the overwrite-oldest ring tolerates torn slot writes by
	// contract, and Spans documents that a snapshot taken mid-run may see
	// partially written spans.
	*slot = s
}

// claim takes the next sequence number for s and returns the slot s goes
// into. On a segment's first write it makes the segment and publishes it
// with a compare-and-swap; a writer that loses that race drops its own
// segment and writes into the winner's.
func (r *Recorder) claim(s *Span) *Span {
	s.Seq = r.pos.Add(1) - 1
	i := s.Seq & r.mask
	p := &r.segs[i/segLen]
	seg := p.Load()
	if seg == nil {
		seg = new(segment)
		if !p.CompareAndSwap(nil, seg) {
			seg = p.Load()
		}
	}
	return &seg[i%segLen]
}

// Len returns the number of retained spans (at most the ring capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.pos.Load()
	if n > uint64(r.capacity()) {
		return r.capacity()
	}
	return int(n)
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.pos.Load()
	if n <= uint64(r.capacity()) {
		return 0
	}
	return n - uint64(r.capacity())
}

// Spans snapshots the retained spans in record order (oldest first). The
// result is a copy: it shares no slot with the ring, so it stays as it is
// when r is Reset or Released and the ring serves another run. Intended
// for use after the traced run completes; see the package comment for
// mid-run caveats (a slot whose segment is not yet published reads as a
// zero Span). Returns nil on a nil Recorder.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	n := r.pos.Load()
	if n == 0 {
		return nil
	}
	// Oldest first: from slot n-len, wrapping to slot 0 past the end.
	out := make([]Span, min(n, uint64(r.capacity())))
	first := n - uint64(len(out))
	for i := range out {
		slot := (first + uint64(i)) & r.mask
		if seg := r.segs[slot/segLen].Load(); seg != nil {
			out[i] = seg[slot%segLen]
		}
	}
	return out
}
