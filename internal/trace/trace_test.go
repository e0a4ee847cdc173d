package trace

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilRecorderIsDisabledAndSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Span{Kind: KindExec}) // must not panic
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans %v", got)
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil recorder Len/Dropped = %d/%d", r.Len(), r.Dropped())
	}
	r.Reset()
	r.Release()
}

func TestRecordOrderAndSeq(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Span{Kind: KindExec, PlanID: i})
	}
	spans := r.Spans()
	if len(spans) != 5 || r.Len() != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Seq != uint64(i) || s.PlanID != i {
			t.Fatalf("span %d = seq %d plan %d", i, s.Seq, s.PlanID)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(4) // power of two already
	for i := 0; i < 11; i++ {
		r.Record(Span{Kind: KindExec, PlanID: i})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := 7 + i; s.PlanID != want || s.Seq != uint64(want) {
			t.Fatalf("span %d = plan %d seq %d, want plan/seq %d", i, s.PlanID, s.Seq, want)
		}
	}
	if got := r.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
}

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	r := New(5)
	if len(r.buf) != 8 {
		t.Fatalf("capacity 5 rounded to %d, want 8", len(r.buf))
	}
	if d := New(0); len(d.buf) != DefaultCapacity {
		t.Fatalf("default capacity %d, want %d", len(d.buf), DefaultCapacity)
	}
}

// TestRecordAllocFree pins the enabled-mode record path at zero
// allocations: the ring is preallocated, the slot claim is one atomic,
// and a node-free Span is a stack value.
func TestRecordAllocFree(t *testing.T) {
	r := New(64)
	s := Span{Kind: KindExec, Contour: 3, PlanID: 7, Dim: -1, Budget: 12.5, Spent: 12.5}
	if got := testing.AllocsPerRun(100, func() { r.Record(s) }); got > 0 {
		t.Errorf("enabled Record allocates %.1f/op, want 0", got)
	}
	var nilRec *Recorder
	if got := testing.AllocsPerRun(100, func() { nilRec.Record(s) }); got > 0 {
		t.Errorf("disabled Record allocates %.1f/op, want 0", got)
	}
}

// TestRecycledRecorderHoldsOneRun pins the recorder lifecycle: a long run
// that wraps the ring, with Nodes on every span, then a short run on the same
// ring — reset in place, or released and acquired again — yields exactly the
// short run's spans, Seq from 0, nothing dropped; and the first run's
// snapshot, taken before the ring was handed on, still reads as it did.
func TestRecycledRecorderHoldsOneRun(t *testing.T) {
	const wrapped, short = 100, 7
	run := func(r *Recorder, n int, op string) {
		for i := 0; i < n; i++ {
			r.Record(Span{Kind: KindExec, PlanID: i, Nodes: []NodeStat{{Op: op, Out: int64(i)}}})
		}
	}
	check := func(t *testing.T, spans []Span, first int, op string) {
		t.Helper()
		for i, s := range spans {
			want := first + i
			if s.Seq != uint64(want) || s.PlanID != want || len(s.Nodes) != 1 || s.Nodes[0].Op != op || s.Nodes[0].Out != int64(want) {
				t.Fatalf("%s span %d = %+v, want seq/plan/out %d", op, i, s, want)
			}
		}
	}
	// scenario reports whether the short run got the long run's ring.
	scenario := func(t *testing.T, recycle func(*Recorder) *Recorder) bool {
		r := Acquire()
		run(r, DefaultCapacity+wrapped, "long")
		if r.Dropped() != wrapped {
			t.Fatalf("long run dropped %d spans, want %d", r.Dropped(), wrapped)
		}
		long := r.Spans()
		again := recycle(r)
		if again.Len() != 0 || again.Dropped() != 0 || again.Spans() != nil {
			t.Fatalf("recycled recorder holds %d spans, %d dropped", again.Len(), again.Dropped())
		}
		run(again, short, "short")
		got := again.Spans()
		if len(got) != short || again.Dropped() != 0 {
			t.Fatalf("short run retained %d spans (%d dropped), want %d (0)", len(got), again.Dropped(), short)
		}
		again.Release() // before the checks: a snapshot is a copy, not a view
		check(t, got, 0, "short")
		if len(long) != DefaultCapacity {
			t.Fatalf("long run's snapshot has %d spans, want %d", len(long), DefaultCapacity)
		}
		check(t, long, wrapped, "long")
		return again == r
	}

	t.Run("reset", func(t *testing.T) {
		scenario(t, func(r *Recorder) *Recorder { r.Reset(); return r })
	})
	t.Run("pool", func(t *testing.T) {
		// A sync.Pool may drop what it is given (under -race it does so
		// at random), so every attempt checks the run and one of them has
		// to have been served the released ring.
		for try := 0; try < 64; try++ {
			if scenario(t, func(r *Recorder) *Recorder { r.Release(); return Acquire() }) {
				return
			}
		}
		t.Fatal("Acquire never returned a released recorder")
	})
}

// TestReleaseKeepsOddSizesOutOfThePool checks a recorder of an explicit
// capacity is reset by Release but never handed out by Acquire.
func TestReleaseKeepsOddSizesOutOfThePool(t *testing.T) {
	small := New(8)
	small.Record(Span{Kind: KindExec})
	small.Release()
	if small.Len() != 0 {
		t.Fatalf("released recorder still holds %d spans", small.Len())
	}
	for i := 0; i < 4; i++ {
		r := Acquire()
		if len(r.buf) != DefaultCapacity {
			t.Fatalf("Acquire returned a %d-slot ring", len(r.buf))
		}
		defer r.Release()
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(1024)
	var wg sync.WaitGroup
	const writers, each = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Span{Kind: KindExec})
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != writers*each {
		t.Fatalf("retained %d spans, want %d", got, writers*each)
	}
	seen := make(map[uint64]bool)
	for _, s := range r.Spans() {
		if seen[s.Seq] {
			t.Fatalf("duplicate seq %d", s.Seq)
		}
		seen[s.Seq] = true
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		Seq: 3, Kind: KindLearn, Contour: 2, PlanID: 5, Dim: 1, Pred: 4,
		Budget: 10, Spent: 10, Rows: 42, Sel: 0.25, Completed: true, WallNanos: 1500,
		Nodes: []NodeStat{{Op: "SeqScan", Relation: "part", Out: 10, Pass: []PredCount{{Pred: 0, Count: 7}}, Done: true}},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindLearn || out.Sel != in.Sel || len(out.Nodes) != 1 || out.Nodes[0].Pass[0].Count != 7 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}

func TestSafeCost(t *testing.T) {
	if got := SafeCost(math.Inf(1)); got != 0 {
		t.Fatalf("SafeCost(+Inf) = %g", got)
	}
	if got := SafeCost(math.Inf(-1)); got != 0 {
		t.Fatalf("SafeCost(-Inf) = %g", got)
	}
	if got := SafeCost(math.NaN()); got != 0 {
		t.Fatalf("SafeCost(NaN) = %g", got)
	}
	if got := SafeCost(12.5); got != 12.5 {
		t.Fatalf("SafeCost(12.5) = %g", got)
	}
	// Every span field reaching JSON must survive encoding.
	if _, err := json.Marshal(Span{Budget: SafeCost(math.Inf(1))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecord measures the per-span cost of the hot recording path
// (the numbers quoted in ARCHITECTURE.md's Observability section).
func BenchmarkRecord(b *testing.B) {
	r := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Span{Kind: KindExec, Contour: 1, PlanID: i, Spent: 12.5})
	}
}

// BenchmarkRecordDisabled measures the nil-recorder fast path.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Record(Span{Kind: KindExec})
		}
	}
}
