package core

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/query"
)

// bouquetBenchFixture compiles the reuse workload once per process:
// go test -bench re-enters each benchmark at increasing b.N, and data
// generation plus compilation would dominate the measurement.
//
// The workload is shaped so the bouquet ladder exercises the salvage
// paths the reuse cache exists for: an error-prone indexed selection
// keeps the origin cheap (six contours), a NOT EXISTS filter whose
// inner map is expensive to build (400k rows) but cheap in model units
// rides below every plan, and the realized selectivities sit high in
// the ESS so five budgeted steps abort — each paying the full anti-join
// build wall again unless the cache salvages it — before a hash-join
// plan completes on the sixth.
type bouquetBenchFixture struct {
	b   *Bouquet
	eng *exec.Engine
}

var (
	bouquetBenchOnce sync.Once
	bouquetBenchFx   *bouquetBenchFixture
)

func newBouquetBenchFixture(b *testing.B) *bouquetBenchFixture {
	b.Helper()
	bouquetBenchOnce.Do(func() {
		cat := catalog.NewCatalog()
		cat.AddRelation(&catalog.Relation{
			Name: "orders", Card: 150000, TupleWidth: 24,
			Columns: []catalog.Column{
				{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 150000},
				{Name: "o_cust", Type: catalog.TypeInt, DistinctCount: 1000000},
				{Name: "o_total", Type: catalog.TypeInt, DistinctCount: 500},
			},
		})
		// lineitem is deliberately large: its seq-scan cost keeps
		// hash-join plans off the low contours, so the ladder climbs
		// through nested-loop steps that abort cheaply in wall time.
		cat.AddRelation(&catalog.Relation{
			Name: "lineitem", Card: 2800000, TupleWidth: 40,
			Columns: []catalog.Column{
				{Name: "l_order", Type: catalog.TypeForeignKey, Refs: "orders", DistinctCount: 150000},
			},
		})
		cat.AddRelation(&catalog.Relation{
			Name: "blocked", Card: 400000, TupleWidth: 16,
			Columns: []catalog.Column{
				{Name: "b_cust", Type: catalog.TypeInt, DistinctCount: 1000000},
			},
		})
		cat.IndexAllColumns()
		db := data.Generate(cat, nil, map[string]data.Spec{
			"lineitem": {MatchFrac: map[string]float64{"l_order": 0.15}},
		}, 77)
		bound, realized := db.SelectionBound("orders", "o_total", 0.55)
		q := query.NewBuilder("reusebench", cat).
			Relation("orders").Relation("lineitem").Relation("blocked").
			SelectionPred("orders", "o_total", realized, true).
			JoinPred("orders", "o_id", "lineitem", "l_order", query.PKFKSel(cat, "orders"), true).
			AntiJoinPred("orders", "o_cust", "blocked", "b_cust", 0.5, true).
			MustBuild()
		dims := make([]ess.Dim, q.Dims())
		for d, predID := range q.ErrorDims() {
			hi := query.MaxLegalSel(cat, q.Predicate(predID))
			dims[d] = ess.Dim{PredID: predID, Lo: hi * ess.DefaultLoFraction, Hi: hi, Res: 12}
		}
		space, err := ess.NewSpaceWithDims(q, dims)
		if err != nil {
			panic(err)
		}
		model := cost.Postgres()
		opt := optimizer.New(cost.NewCoster(q, model))
		bq, err := Compile(opt, space, CompileOptions{Lambda: 0.2})
		if err != nil {
			panic(err)
		}
		eng, err := exec.NewEngine(q, db, model, map[int]int64{0: bound})
		if err != nil {
			panic(err)
		}
		// Guard the geometry the benchmark's headline ratio depends on:
		// several aborting steps before completion. If a cost-model or
		// optimizer change flattens the ladder, fail loudly rather than
		// silently benchmarking a one-step run.
		out := (&ConcreteRunner{B: bq, Engine: eng}).RunBasic()
		if !out.Completed || len(out.Steps) < 4 {
			panic("bouquet bench fixture degenerated: want a completed run of >=4 steps")
		}
		bouquetBenchFx = &bouquetBenchFixture{b: bq, eng: eng}
	})
	return bouquetBenchFx
}

// benchBouquetRun measures one whole multi-step RunBasic — the sequence
// of budgeted executions the bouquet protocol pays for robustness — so
// the reuse cache's wall-clock and allocation savings surface directly
// in the reuse/noreuse pair.
func benchBouquetRun(b *testing.B, workers int, reuse bool) {
	fx := newBouquetBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ConcreteRunner{B: fx.b, Engine: fx.eng, Parallelism: workers, Reuse: reuse}
		out := r.RunBasic()
		if !out.Completed {
			b.Fatal("bouquet run did not complete")
		}
	}
}

// BenchmarkBouquetRun drives the full bouquet protocol on real rows
// across both engines with operator-state reuse on and off. The
// reuse/noreuse ratio is the headline number; `make bench-exec` records it
// in BENCH_exec.json against bench/bouquet_seed.txt.
func BenchmarkBouquetRun(b *testing.B) {
	b.Run("Volcano/reuse", func(b *testing.B) { benchBouquetRun(b, 0, true) })
	b.Run("Volcano/noreuse", func(b *testing.B) { benchBouquetRun(b, 0, false) })
	b.Run("Vector8/reuse", func(b *testing.B) { benchBouquetRun(b, 8, true) })
	b.Run("Vector8/noreuse", func(b *testing.B) { benchBouquetRun(b, 8, false) })
}
