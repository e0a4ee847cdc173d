package exec

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

// TestRunLeavesNoGoroutines: every morsel worker a vectorized run forks is
// joined before Run returns — after a completed run, a budget abort and a
// run budgeted at exactly its cost — so the goroutine count is back at its
// start value once the runs are done. It is the package's first test on
// purpose: a goroutine leaked per run piles up over the tests after it
// until the package times out, so a check placed behind them would never
// run.
func TestRunLeavesNoGoroutines(t *testing.T) {
	fx := newFixture(t)
	before := runtime.NumGoroutine()
	for _, name := range []string{"hj", "mj", "nl"} {
		p := fx.plans[name]
		full := fx.eng.MustRun(p, vopts(8))
		for _, frac := range []cost.Ratio{0.3, 1} {
			o := vopts(8)
			o.Budget = full.CostUsed.Scale(frac)
			if res := fx.eng.MustRun(p, o); frac < 1 && res.Completed {
				t.Fatalf("%s: completed at %v of its cost", name, frac)
			}
		}
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1 s after the runs, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// The vectorized engine's per-batch kernels promise an allocation-free
// warm path: after one warm-up batch sizes the per-worker scratch
// buffers, every subsequent batch must run without touching the heap.
// These tests are that contract.

func TestFilterBatchAllocFree(t *testing.T) {
	const n = 1024
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i)
	}
	preds := []scanPred{{id: 0, col: col, bound: n / 2}}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(n - 1 - i)
	}
	st := &NodeStats{}
	ws := &wslot{}
	// Warm-up batch: sizes the failure bitmap, the selection vector, and
	// the lazy pass-count map.
	filterBatch(st, ws, preds, 0, n, nil)
	if got := testing.AllocsPerRun(100, func() { filterBatch(st, ws, preds, 0, n, nil) }); got > 0 {
		t.Errorf("filterBatch allocates %.0f/batch warm, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { filterBatch(st, ws, preds, 0, n, rows) }); got > 0 {
		t.Errorf("filterBatch over gathered rows allocates %.0f/batch warm, want 0", got)
	}
}

// TestScanGatherAllocFree pins the scans' gather: widening a batch's live
// rows into the slot's owned buffers allocates nothing, whether the batch
// is a heap range or index-ordered rows, filtered or not, and the dense
// batch holds exactly the live rows' values.
func TestScanGatherAllocFree(t *testing.T) {
	const n = 1024
	cols := [][]int32{make([]int32, 2*n), make([]int32, 2*n)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int32(i), int32(-i)
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(2*n - 1 - i)
	}
	sel := []int32{0, 5, n - 1}
	ws := &wslot{}
	ws.b.cols = make([][]int64, len(cols))
	ws.owned(len(cols), n)
	cases := []struct {
		name        string
		base, nrows int
		rows, sel   []int32
		want        func(k int) int32 // the table row of live row k
		live        int
	}{
		{"heap", n, n, nil, nil, func(k int) int32 { return int32(n + k) }, n},
		// Not a multiple of widen's unrolling.
		{"heap/tail", 3, 13, nil, nil, func(k int) int32 { return int32(3 + k) }, 13},
		{"heap/sel", n, n, nil, sel, func(k int) int32 { return int32(n) + sel[k] }, len(sel)},
		{"index", 0, n, rows, nil, func(k int) int32 { return rows[k] }, n},
		{"index/sel", 0, n, rows, sel, func(k int) int32 { return rows[sel[k]] }, len(sel)},
	}
	for _, c := range cases {
		b := gather(ws, cols, c.base, c.nrows, c.rows, c.sel)
		if b.n != c.live || b.sel != nil {
			t.Fatalf("%s: batch of %d rows, sel %v; want %d dense", c.name, b.n, b.sel, c.live)
		}
		for k := 0; k < b.n; k++ {
			if r := c.want(k); b.cols[0][k] != int64(r) || b.cols[1][k] != -int64(r) {
				t.Fatalf("%s: live row %d reads %d/%d, want row %d", c.name, k, b.cols[0][k], b.cols[1][k], r)
			}
		}
		if got := testing.AllocsPerRun(100, func() { gather(ws, cols, c.base, c.nrows, c.rows, c.sel) }); got > 0 {
			t.Errorf("%s: gather allocates %.0f/batch warm, want 0", c.name, got)
		}
	}
}

func TestGatherAllocFree(t *testing.T) {
	const buildN, probeN = 256, 512
	build := make([]int64, buildN)
	for i := range build {
		build[i] = int64(i % 64) // duplicate keys exercise the next chains
	}
	jt := newJoinTable(build)
	mat := [][]int64{build}
	probe := make([]int64, probeN)
	for i := range probe {
		probe[i] = int64(i % 128) // half the probe keys miss
	}
	b := &vbatch{cols: [][]int64{probe}, n: probeN}
	ws := &wslot{}
	run := func(resid []joinKey) {
		lidx, ridx, _ := jt.gather(b, b.cols[0], resid, mat, ws.idxa[:0], ws.idxb[:0])
		ws.idxa, ws.idxb = lidx, ridx
	}
	run(nil) // warm-up: grows idxa/idxb to the match high-water mark
	if got := testing.AllocsPerRun(100, func() { run(nil) }); got > 0 {
		t.Errorf("gather (no residual keys) allocates %.0f/batch warm, want 0", got)
	}
	resid := []joinKey{{id: 1, leftOff: 0, rightOff: 0}}
	if got := testing.AllocsPerRun(100, func() { run(resid) }); got > 0 {
		t.Errorf("gather (residual keys) allocates %.0f/batch warm, want 0", got)
	}
}

// volcanoTree builds p's Volcano iterator tree the way a collecting,
// unbudgeted run does, and returns its root unopened.
func volcanoTree(t *testing.T, eng *Engine, p *plan.Node) iterator {
	t.Helper()
	b := &builder{e: eng, shapes: eng.shapes(p, true), m: &meter{budget: math.Inf(1)},
		stats: make(map[*plan.Node]*NodeStats), tally: &reuseTally{}}
	it, _, err := b.build(p)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// TestVolcanoRowAllocs: a Volcano operator carves its rows from slabs of
// slabRows rows. A seq scan of N rows allocates its ⌈N/slabRows⌉ slabs
// and nothing else; a hash build of N rows allocates those, the arena's
// and key column's O(log N) growth and the joinTable; every row a scan
// hands out has no spare capacity; and a 3-row scan allocates 3 rows, not
// a whole slab.
func TestVolcanoRowAllocs(t *testing.T) {
	fx := newFixtureScaled(t, 8)
	n := fx.db.Table("lineitem").NumRows()
	// fewest builds a fresh tree over p, runs work on it, three times,
	// and returns the fewest allocations and bytes a reading saw: the
	// runtime may allocate for itself during one reading, but a per-row
	// allocation shows in every one.
	fewest := func(eng *Engine, p *plan.Node, work func(it iterator)) (mallocs, bytes uint64) {
		var m runtime.MemStats
		mallocs, bytes = ^uint64(0), ^uint64(0)
		for try := 0; try < 3; try++ {
			it := volcanoTree(t, eng, p)
			runtime.ReadMemStats(&m)
			m0, b0 := m.Mallocs, m.TotalAlloc
			work(it)
			runtime.ReadMemStats(&m)
			mallocs, bytes = min(mallocs, m.Mallocs-m0), min(bytes, m.TotalAlloc-b0)
		}
		return mallocs, bytes
	}
	rows, spare := 0, 0
	drain := func(it iterator) {
		rows, spare = 0, 0
		if err := it.open(); err != nil {
			t.Fatal(err)
		}
		for {
			r, ok, err := it.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			rows++
			if cap(r) != len(r) {
				spare++
			}
		}
	}
	open := func(it iterator) {
		if err := it.open(); err != nil {
			t.Fatal(err)
		}
	}

	slabs := uint64((n + slabRows - 1) / slabRows)
	if got, _ := fewest(fx.eng, plan.NewSeqScan("lineitem", nil), drain); got != slabs {
		t.Errorf("a seq scan of %d rows allocates %d times, want its %d slabs", n, got, slabs)
	}
	if rows != n || spare != 0 {
		t.Errorf("the scan handed out %d rows, %d with spare capacity; want %d, none", rows, spare, n)
	}
	build := plan.NewHashJoin(plan.NewSeqScan("orders", nil), plan.NewSeqScan("lineitem", nil), []int{2})
	if got, _ := fewest(fx.eng, build, open); got > 2*slabs+64 {
		t.Errorf("a hash build of %d rows allocates %d times, want at most %d", n, got, 2*slabs+64)
	}

	// A 3-row table: its scan's one slab holds its 3 rows.
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "tiny", Card: 3, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "t_a", Type: catalog.TypeInt, DistinctCount: 10},
			{Name: "t_b", Type: catalog.TypeInt, DistinctCount: 10},
		},
	})
	q := query.NewBuilder("tiny", cat).Relation("tiny").MustBuild()
	eng, err := NewEngine(q, data.Generate(cat, nil, nil, 1), cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, bytes := fewest(eng, plan.NewSeqScan("tiny", nil), drain); got != 1 || bytes != 3*2*8 {
		t.Errorf("a 3-row scan allocates %d times, %d bytes; want one slab of 3 rows, 48 bytes", got, bytes)
	}
}
