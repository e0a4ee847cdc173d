package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
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
	if r.capacity() != 8 {
		t.Fatalf("capacity 5 rounded to %d, want 8", r.capacity())
	}
	if d := New(0); d.capacity() != DefaultCapacity {
		t.Fatalf("default capacity %d, want %d", d.capacity(), DefaultCapacity)
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
		if r.capacity() != DefaultCapacity {
			t.Fatalf("Acquire returned a %d-slot ring", r.capacity())
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

// segments counts the segments r holds.
func (r *Recorder) segments() int {
	n := 0
	for i := range r.segs {
		if r.segs[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestConcurrentRecordAcrossSegments races eight writers over every
// segment's first write, then past the wrap. Each phase checks the ring
// holds exactly the newest spans, each once and as its writer wrote it: a
// writer that lost a segment's publication race and wrote into its own
// copy would leave a zero slot, and a duplicate or missing Seq.
func TestConcurrentRecordAcrossSegments(t *testing.T) {
	const writers = 8
	// record has every writer record spans Pred = from, …, from+each-1.
	record := func(r *Recorder, from, each int) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := from; i < from+each; i++ {
					r.Record(Span{Kind: KindExec, Dim: w, Pred: i})
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	check := func(t *testing.T, r *Recorder, total int) {
		t.Helper()
		keep := min(total, DefaultCapacity)
		if r.Len() != keep || r.Dropped() != uint64(total-keep) {
			t.Fatalf("Len/Dropped = %d/%d after %d spans, want %d/%d", r.Len(), r.Dropped(), total, keep, total-keep)
		}
		spans := r.Spans()
		if len(spans) != keep {
			t.Fatalf("snapshot has %d spans, want %d", len(spans), keep)
		}
		last := make([]int, writers) // each writer's last Pred seen, in Seq order
		for i := range last {
			last[i] = -1
		}
		for i, s := range spans {
			if want := uint64(total - keep + i); s.Seq != want {
				t.Fatalf("span %d has seq %d, want %d", i, s.Seq, want)
			}
			if s.Kind != KindExec || s.Dim < 0 || s.Dim >= writers || s.Pred <= last[s.Dim] {
				t.Fatalf("span %d = %+v: not the next span of a writer (last %v)", i, s, last)
			}
			last[s.Dim] = s.Pred
		}
	}
	for _, c := range []struct {
		name string
		r    *Recorder
	}{{"new", New(0)}, {"acquired", Acquire()}} {
		r := c.r
		t.Run(c.name, func(t *testing.T) {
			record(r, 0, DefaultCapacity/writers)
			check(t, r, DefaultCapacity)
			if got := r.segments(); got != DefaultCapacity/segLen {
				t.Fatalf("full ring holds %d segments, want %d", got, DefaultCapacity/segLen)
			}
			const more = 3*segLen + 5 // per writer, past the wrap
			record(r, DefaultCapacity/writers, more)
			check(t, r, DefaultCapacity+writers*more)
		})
	}
}

// TestRecorderHoldsTheSegmentsItWrote pins the lazy ring: k spans hold
// ⌈k/segLen⌉ segments, and once a ring holds them a run of at most k spans
// — after Reset, or after Release and Acquire — allocates nothing.
func TestRecorderHoldsTheSegmentsItWrote(t *testing.T) {
	run := func(r *Recorder, k int) {
		for i := 0; i < k; i++ {
			r.Record(Span{Kind: KindExec, PlanID: i})
		}
	}
	// fewestMallocs recycles r and times a k-span run into it, three
	// times, and returns the fewest allocations a run made: the runtime
	// may allocate for itself during one reading, but a ring that lost its
	// segments allocates during every one.
	fewestMallocs := func(r *Recorder, recycle func(), k int) uint64 {
		var m runtime.MemStats
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			recycle()
			runtime.ReadMemStats(&m)
			before := m.Mallocs
			run(r, k)
			runtime.ReadMemStats(&m)
			least = min(least, m.Mallocs-before)
			if r.Len() != k {
				t.Fatalf("recorded %d spans, want %d", r.Len(), k)
			}
		}
		return least
	}
	for _, k := range []int{0, 1, segLen - 1, segLen, segLen + 1, 30, 100, DefaultCapacity} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			r := New(0)
			want := (k + segLen - 1) / segLen
			run(r, k)
			if got := r.segments(); got != want {
				t.Fatalf("%d spans hold %d segments, want %d", k, got, want)
			}
			for _, again := range []int{k, k / 2} {
				if n := fewestMallocs(r, r.Reset, again); n != 0 {
					t.Errorf("a %d-span run after Reset allocates %d times, want 0", again, n)
				}
			}
			// A sync.Pool may drop what it is given (under -race it does
			// so at random), so keep trying until Acquire hands r back.
			pooled := func() {
				for try := 0; ; try++ {
					r.Release()
					if Acquire() == r {
						break
					}
					if try == 64 {
						t.Fatal("Acquire never returned a released recorder")
					}
				}
				if got := r.segments(); got != want {
					t.Fatalf("recycled ring holds %d segments, want %d", got, want)
				}
			}
			if n := fewestMallocs(r, pooled, k); n != 0 {
				t.Errorf("a %d-span run after Release and Acquire allocates %d times, want 0", k, n)
			}
			r.Release()
		})
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
