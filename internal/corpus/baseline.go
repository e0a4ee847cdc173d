package corpus

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/anorexic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Baseline is the golden behavioral record of one generated query: every
// field is a deterministic function of the corpus seed and the planning
// stack, so any drift between a stored baseline and a freshly computed one
// is a behavioral change in the stack.
type Baseline struct {
	// ID is the query identifier ("q0000" …).
	ID string `json:"id"`
	// Geometry is the exact join-graph shape string (e.g. "chain(4)").
	Geometry string `json:"geometry"`
	// Dims is the ESS dimensionality.
	Dims int `json:"dims"`
	// Model names the cost model.
	Model string `json:"model"`
	// Res is the per-dimension grid resolution.
	Res int `json:"res"`
	// CatalogSpec reproduces the generated catalog compactly.
	CatalogSpec string `json:"catalog"`
	// SQL is the generated query text.
	SQL string `json:"sql"`

	// POSPPlans is the POSP cardinality (distinct optimal plans over the
	// grid).
	POSPPlans int `json:"pospPlans"`
	// BouquetSize is |B|, the bouquet plan-set cardinality after the
	// anorexic reduction.
	BouquetSize int `json:"bouquetSize"`
	// CostMin and CostMax bound the optimal-cost surface.
	CostMin float64 `json:"costMin"`
	CostMax float64 `json:"costMax"`
	// MSO is the Eq. 8 bound on the compiled contours; TheoreticalMSO the
	// closed-form ρ·r²/(r−1)·(1+λ) guarantee.
	MSO            float64 `json:"mso"`
	TheoreticalMSO float64 `json:"theoreticalMso"`
	// ASO is the average sub-optimality of the basic driver over the
	// sampled run locations below (not the full-grid Eq. 4 sweep, which
	// would dominate generation time).
	ASO float64 `json:"aso"`
	// Contours are the compiled isocost steps with their plan sets.
	Contours []ContourBaseline `json:"contours"`
	// Runs are abstract-driver executions at sampled q_a locations.
	Runs []RunBaseline `json:"runs"`
}

// ContourBaseline pins one compiled contour: its raw budget and the
// fingerprints of its (reduced) plan set. Fingerprints rather than diagram
// plan IDs make the record independent of plan numbering.
type ContourBaseline struct {
	K      int      `json:"k"`
	Budget float64  `json:"budget"`
	Plans  []string `json:"plans"`
}

// RunBaseline pins one abstract-driver execution at a sampled actual
// location: the step sequence summary plus the traced run's aggregates
// (wall-clock fields excluded — they are the only nondeterministic spans).
type RunBaseline struct {
	// Driver is "basic" or "optimized".
	Driver string `json:"driver"`
	// QA is the actual selectivity location.
	QA []float64 `json:"qa"`
	// Steps counts plan executions (partial + final); TotalCost and
	// SubOpt are the run's charged cost and sub-optimality.
	Steps     int     `json:"steps"`
	TotalCost float64 `json:"totalCost"`
	SubOpt    float64 `json:"subOpt"`
	// Execs/Aborts/Spills/Learns and the useful/wasted cost split are the
	// trace aggregates of the run (metrics.Aggregate).
	Execs      int     `json:"execs"`
	Aborts     int     `json:"aborts"`
	Spills     int     `json:"spills"`
	Learns     int     `json:"learns"`
	UsefulCost float64 `json:"usefulCost"`
	WastedCost float64 `json:"wastedCost"`
}

// modelFor resolves a Spec's cost-model name.
func modelFor(name string) (cost.Model, error) {
	switch name {
	case "postgres":
		return cost.Postgres(), nil
	case "commercial":
		return cost.Commercial(), nil
	default:
		return cost.Model{}, fmt.Errorf("corpus: unknown cost model %q", name)
	}
}

// Compile takes spec through the real front door — sqlparse over the
// generated catalog, ESS discretization, the DP optimizer, core.Compile —
// and returns the bouquet; the optimizer is not kept.
func Compile(spec Spec) (*core.Bouquet, error) {
	q, err := sqlparse.Parse(spec.ID, spec.Catalog, spec.SQL)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: parse: %w", spec.ID, err)
	}
	if q.Dims() != spec.Dims {
		return nil, fmt.Errorf("corpus: %s: parsed %d error dims, spec has %d", spec.ID, q.Dims(), spec.Dims)
	}
	model, err := modelFor(spec.Model)
	if err != nil {
		return nil, err
	}
	space, err := ess.NewSpace(q, []int{spec.Res})
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: space: %w", spec.ID, err)
	}
	opt := optimizer.New(cost.NewCoster(q, model))
	b, err := core.Compile(opt, space, core.CompileOptions{Lambda: anorexic.DefaultLambda, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: compile: %w", spec.ID, err)
	}
	return b, nil
}

// Compute compiles spec (see Compile) and records the golden baseline.
func Compute(spec Spec) (Baseline, error) {
	b, err := Compile(spec)
	if err != nil {
		return Baseline{}, err
	}
	space := b.Space

	cmin, cmax := b.Diagram.CostBounds()
	base := Baseline{
		ID:             spec.ID,
		Geometry:       b.Query.JoinGraphShape(),
		Dims:           spec.Dims,
		Model:          spec.Model,
		Res:            spec.Res,
		CatalogSpec:    spec.CatalogSpec,
		SQL:            spec.SQL,
		POSPPlans:      b.Diagram.NumPlans(),
		BouquetSize:    b.Cardinality(),
		CostMin:        cmin.F(),
		CostMax:        cmax.F(),
		MSO:            b.BoundMSO().F(),
		TheoreticalMSO: b.TheoreticalMSO().F(),
	}
	for _, c := range b.Contours {
		cb := ContourBaseline{K: c.K, Budget: c.RawBudget.F()}
		for _, pid := range c.PlanIDs {
			cb.Plans = append(cb.Plans, b.Diagram.Plan(pid).Fingerprint())
		}
		sort.Strings(cb.Plans)
		base.Contours = append(base.Contours, cb)
	}

	// Sampled run locations: the space terminus (worst case for the
	// ladder climb), the origin (best case), and the grid midpoint.
	points := []ess.Point{space.Terminus(), space.Origin(), space.PointAt(space.NumPoints() / 2)}
	var sumSubOpt float64
	var basicRuns int
	// One recorder serves the six runs, reset after each; a run that fails
	// leaves it to the collector.
	rec := trace.Acquire()
	for _, qa := range points {
		for _, driver := range []string{"basic", "optimized"} {
			e, rerr := b.Run(context.Background(), core.Run{Optimized: driver == "optimized", QA: qa, Trace: rec})
			if rerr != nil {
				return Baseline{}, fmt.Errorf("corpus: %s: %s run: %w", spec.ID, driver, rerr)
			}
			agg := metrics.Aggregate(rec.Spans())
			rec.Reset()
			base.Runs = append(base.Runs, RunBaseline{
				Driver:     driver,
				QA:         append([]float64(nil), qa...),
				Steps:      e.NumExecs(),
				TotalCost:  e.TotalCost.F(),
				SubOpt:     e.SubOpt(),
				Execs:      agg.Execs,
				Aborts:     agg.Aborts,
				Spills:     agg.Spills,
				Learns:     agg.Learns,
				UsefulCost: agg.UsefulCost,
				WastedCost: agg.WastedCost,
			})
			if driver == "basic" {
				sumSubOpt += e.SubOpt()
				basicRuns++
			}
		}
	}
	rec.Release()
	base.ASO = sumSubOpt / float64(basicRuns)
	return base, nil
}

// Generate derives and compiles the whole corpus for cfg, in parallel
// across workers (0 = GOMAXPROCS), returning baselines in index order.
// only, when non-nil, restricts generation to the listed query indices (the
// sampled `check` mode); the result preserves index order.
func Generate(cfg Config, workers int, only []int) ([]Baseline, error) {
	idx := only
	if idx == nil {
		idx = make([]int, cfg.Count)
		for i := range idx {
			idx[i] = i
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]Baseline, len(idx))
	errs := make([]error, len(idx))
	var cursor int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := int(cursor)
				cursor++
				mu.Unlock()
				if j >= len(idx) {
					return
				}
				spec := GenerateSpec(cfg.Seed, idx[j])
				out[j], errs[j] = Compute(spec)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SampleIndices returns at most n query indices of a count-sized corpus,
// evenly spaced and deterministic — the `check -sample` smoke subset.
func SampleIndices(count, n int) []int {
	if n <= 0 || n >= count {
		out := make([]int, count)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*count/n)
	}
	return out
}
