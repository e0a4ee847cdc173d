package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

// Tests for cross-execution operator-state reuse (reuse.go): cache hits
// must never change an execution's observable outcome — result multiset,
// tuple counters, completion, charged cost (bit for bit on the vectorized
// engine, whose hits replay integer counts; up to float summation order
// on Volcano, whose hits are one float lump) — only its wall-clock and
// allocation profile.

// engineConfigs enumerates the option sets the reuse contract covers:
// the Volcano interpreter and the vectorized engine serially and with
// more workers than there is work.
func engineConfigs() map[string]Options {
	return map[string]Options{
		"volcano": {},
		"vec-w1":  vopts(1),
		"vec-w8":  vopts(8),
	}
}

// withReuse returns opts with the cache attached.
func withReuse(opts Options, c *ReuseCache) Options {
	opts.Reuse = c
	return opts
}

// TestReuseWarmRunsIdentical: a cold cached run matches a cache-free run,
// and a warm run (same cache) takes hits on every join-build plan while
// remaining counter-identical and cost-identical (to summation order).
func TestReuseWarmRunsIdentical(t *testing.T) {
	fx := newFixture(t)
	for cfg, base := range engineConfigs() {
		for name, p := range fx.plans {
			plain := runCollected(t, fx.eng, p, base)
			cache := NewReuseCache()
			cold := runCollected(t, fx.eng, p, withReuse(base, cache))
			if cold.res.ReuseHits != 0 {
				t.Fatalf("%s/%s: cold run reported %d hits", cfg, name, cold.res.ReuseHits)
			}
			assertParity(t, fmt.Sprintf("%s/%s cold", cfg, name), plain, cold)

			warm := runCollected(t, fx.eng, p, withReuse(base, cache))
			assertParity(t, fmt.Sprintf("%s/%s warm", cfg, name), plain, warm)
			switch name {
			case "hj", "mj":
				// hj salvages both build sides; mj takes one root hit whose
				// whole-node entry subsumes the inner join's (it never opens).
				want := 2
				if name == "mj" {
					want = 1
				}
				if warm.res.ReuseHits != want {
					t.Errorf("%s/%s: warm run took %d hits, want %d", cfg, name, warm.res.ReuseHits, want)
				}
				if !(warm.res.SalvagedCost > 0) {
					t.Errorf("%s/%s: warm hits salvaged no cost", cfg, name)
				}
				if !(warm.res.SalvagedCost < warm.res.CostUsed) {
					t.Errorf("%s/%s: salvaged %g not below total %g", cfg, name, warm.res.SalvagedCost, warm.res.CostUsed)
				}
			default:
				// Index NL joins pipeline through the index — nothing to cache.
				if warm.res.ReuseHits != 0 || cache.Len() != 0 {
					t.Errorf("%s/%s: pipelined plan cached state (hits=%d, entries=%d)",
						cfg, name, warm.res.ReuseHits, cache.Len())
				}
			}
		}
	}
}

// TestReuseSalvageAcrossBudgetAbort pins the headline salvage path: an
// execution that aborts during its probe phase still contributes the
// build state it completed, and the next step reuses it.
func TestReuseSalvageAcrossBudgetAbort(t *testing.T) {
	fx := newFixture(t)
	for cfg, base := range engineConfigs() {
		for _, name := range []string{"hj", "mj"} {
			p := fx.plans[name]
			full := runCollected(t, fx.eng, p, base)

			cache := NewReuseCache()
			under := base
			under.Budget = cost.Cost(math.Nextafter(full.res.CostUsed.F(), 0))
			under.Reuse = cache
			// The warm run below collects rows, so it carries every column;
			// the aborted step must too for its state to be the same state
			// (reuse keys carry the column list).
			under.Collect = func([]int64) {}
			aborted, err := fx.eng.Run(p, under)
			if err != nil {
				t.Fatal(err)
			}
			if aborted.Completed {
				t.Fatalf("%s/%s: completed one ULP under full cost", cfg, name)
			}
			if cache.Len() == 0 {
				t.Fatalf("%s/%s: abort salvaged no completed build state", cfg, name)
			}

			warm := runCollected(t, fx.eng, p, withReuse(base, cache))
			if warm.res.ReuseHits == 0 {
				t.Fatalf("%s/%s: no hits on state salvaged across the abort", cfg, name)
			}
			assertParity(t, fmt.Sprintf("%s/%s salvaged", cfg, name), full, warm)
		}
	}
}

// TestReuseBudgetSweepOutcomesUnchanged is the abort-equivalence
// invariant: at every budget, a warm-cache run completes or aborts
// exactly as the cache-free run does, with the same rows and the same
// charged cost (hits replay the full build window and are only taken
// when the whole of it fits — the condition under which the rebuild
// would have completed too). On the vectorized engine that is every
// counter and the cost bit for bit, at one worker and at eight.
func TestReuseBudgetSweepOutcomesUnchanged(t *testing.T) {
	fx := newFixture(t)
	for cfg, base := range engineConfigs() {
		for _, name := range []string{"hj", "mj"} {
			p := fx.plans[name]
			full := fx.eng.MustRun(p, base)
			cache := NewReuseCache()
			fx.eng.MustRun(p, withReuse(base, cache)) // warm every entry

			for _, frac := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0} {
				opts := base
				opts.Budget = full.CostUsed * cost.Cost(frac)
				plain := fx.eng.MustRun(p, opts)
				warm := fx.eng.MustRun(p, withReuse(opts, cache))
				label := fmt.Sprintf("%s/%s@%.2f", cfg, name, frac)
				if warm.Completed != plain.Completed {
					t.Fatalf("%s: completed %v with cache, %v without", label, warm.Completed, plain.Completed)
				}
				if base.Vectorized {
					if d := outcomeDiff(plain, warm); d != "" {
						t.Fatalf("%s: warm run differs from the cache-free one: %s", label, d)
					}
					continue
				}
				cw, cp := warm.CostUsed.F(), plain.CostUsed.F()
				if math.Abs(cw-cp) > 1e-9*math.Max(1, math.Abs(cp)) {
					t.Fatalf("%s: cost %g with cache, %g without", label, cw, cp)
				}
				if warm.RowsOut != plain.RowsOut {
					t.Fatalf("%s: rows %d with cache, %d without", label, warm.RowsOut, plain.RowsOut)
				}
			}
		}
	}
}

// TestReuseDiscardedEpochNeverCached: state is cached only by a build
// whose every epoch committed. A step whose budget runs out inside the
// build leaves nothing behind — the next step rebuilds, stores, and
// reports exactly what a cache-free run does.
func TestReuseDiscardedEpochNeverCached(t *testing.T) {
	fx := newFixture(t)
	p := plan.NewHashJoin(plan.NewSeqScan("orders", nil), plan.NewSeqScan("lineitem", nil), []int{2})
	for _, workers := range []int{1, 8} {
		base := vopts(workers)
		cold := fx.eng.MustRun(p, base)
		build := fx.eng.MustRun(p.Right, base).CostUsed // the lineitem scan alone; the build charges more on top

		cache := NewReuseCache()
		under := withReuse(base, cache)
		under.Budget = build
		aborted := fx.eng.MustRun(p, under)
		if aborted.Completed || aborted.Stats[p.Right].Done {
			t.Fatalf("w%d: budget %v did not abort inside the build (completed=%v, build done=%v)",
				workers, build, aborted.Completed, aborted.Stats[p.Right].Done)
		}
		if aborted.Stats[p.Right].InTuples == 0 {
			t.Fatalf("w%d: no build epoch committed before the abort — the test needs a partial build", workers)
		}
		if cache.Len() != 0 {
			t.Fatalf("w%d: %d entries cached by an aborted build", workers, cache.Len())
		}

		rebuilt := fx.eng.MustRun(p, withReuse(base, cache))
		if rebuilt.ReuseHits != 0 {
			t.Fatalf("w%d: %d hits on a cache the aborted build should have left empty", workers, rebuilt.ReuseHits)
		}
		if d := outcomeDiff(cold, rebuilt); d != "" {
			t.Fatalf("w%d: rebuild after the aborted build differs from the cold run: %s", workers, d)
		}
		warm := fx.eng.MustRun(p, withReuse(base, cache))
		if warm.ReuseHits != 1 {
			t.Fatalf("w%d: warm run took %d hits, want 1", workers, warm.ReuseHits)
		}
		if d := outcomeDiff(cold, warm); d != "" {
			t.Fatalf("w%d: warm run differs from the cold run: %s", workers, d)
		}
	}
}

// TestReuseSpillTaintedStateNeverCached: builds and sorts that overflow
// work memory charge spill I/O entangled with the probe phase, so their
// state must never enter the cache.
func TestReuseSpillTaintedStateNeverCached(t *testing.T) {
	fx := newFixture(t)
	tiny := cost.Postgres()
	tiny.P.WorkMemBytes = 1
	eng, err := NewEngine(fx.q, fx.db, tiny, fx.bindings)
	if err != nil {
		t.Fatal(err)
	}
	for cfg, base := range engineConfigs() {
		for _, name := range []string{"hj", "mj"} {
			p := fx.plans[name]
			plain := runCollected(t, eng, p, base)
			cache := NewReuseCache()
			cold := runCollected(t, eng, p, withReuse(base, cache))
			if cache.Len() != 0 {
				t.Fatalf("%s/%s: %d spill-tainted entries cached", cfg, name, cache.Len())
			}
			warm := runCollected(t, eng, p, withReuse(base, cache))
			if warm.res.ReuseHits != 0 {
				t.Fatalf("%s/%s: %d hits on spill-tainted state", cfg, name, warm.res.ReuseHits)
			}
			assertParity(t, fmt.Sprintf("%s/%s spill cold", cfg, name), plain, cold)
			assertParity(t, fmt.Sprintf("%s/%s spill warm", cfg, name), plain, warm)
		}
	}
}

// TestReuseAntiJoinInnerSet: the NOT EXISTS inner set depends only on the
// base relation, is shared across both engines under one key, and its
// open-time charge is levied identically whether built or reused.
func TestReuseAntiJoinInnerSet(t *testing.T) {
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "o", Card: 800, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 800},
			{Name: "o_c", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "blk", Card: 60, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "b_c", Type: catalog.TypeInt, DistinctCount: 100}},
	})
	cat.IndexAllColumns()
	db := data.Generate(cat, nil, nil, 3)
	q := query.NewBuilder("antireuse", cat).
		Relation("o").Relation("blk").
		AntiJoinPred("o", "o_c", "blk", "b_c", 0.5, true).
		MustBuild()
	eng, err := NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.NewAntiJoin(plan.NewSeqScan("o", nil), "blk", "b_c", 0)

	cache := NewReuseCache()
	for cfg, base := range engineConfigs() {
		plain := runCollected(t, eng, p, base)
		warm := runCollected(t, eng, p, withReuse(base, cache))
		assertParity(t, fmt.Sprintf("anti/%s", cfg), plain, warm)
	}
	// One shared entry; every run after the first (across engines) hit it.
	if cache.Len() != 1 {
		t.Fatalf("anti-join inner set cached as %d entries, want 1", cache.Len())
	}
	res := eng.MustRun(p, withReuse(Options{}, cache))
	if res.ReuseHits != 1 || !(res.SalvagedCost > 0) {
		t.Fatalf("warm anti-join run: hits=%d salvaged=%g", res.ReuseHits, res.SalvagedCost)
	}
}
