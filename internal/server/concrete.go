package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/trace"
)

// Concrete execution support for /run: instead of simulating a bouquet
// run on the cost surfaces, a request with "concrete": true generates a
// deterministic database for the bouquet's relations, binds its
// selection predicates, and drives core.ConcreteRunner over real rows —
// tuple-at-a-time by default, or on the vectorized morsel-parallel
// engine when a worker count is configured (Config.ExecWorkers /
// bouquetd's -exec-workers) or requested per run ("parallelism").
//
// Data generation cost scales with the catalog's scale factor, so
// concrete runs are intended for servers started at small -sf. Engines
// are cached per (bouquet, dataSeed) in a small FIFO cache. An engine is
// a cheap view — query, bindings and cost model — over the data package's
// shared tables, which are immutable once published: any number of runs,
// on one engine or on several, proceed in parallel.

// DefaultEngineCacheSize bounds the concrete-run engine cache. An entry
// retains its engine's selection bindings and, through its database, the
// tables of the bouquet's relations: 4 B per row per non-key column any
// run has read (columns are int32 vectors, generated on first read), plus
// 4–12 B per row for every non-key column index any run has built. The data package holds
// one table per (relation, spec, seed), so an entry over the same catalog
// and seed as another entry retains only its bindings. Key columns and
// their indexes cost nothing per table: they alias the data package's
// shared row-id vector.
const DefaultEngineCacheSize = 4

// engineCache is a bounded FIFO cache of concrete-run engines keyed by
// "bouquetID#dataSeed". Builds run outside the cache lock: two requests
// that miss on one key both build, over the same shared tables, and the
// first to finish is cached.
type engineCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*exec.Engine
	order   []string
}

func newEngineCache(capacity int) *engineCache {
	if capacity < 1 {
		capacity = DefaultEngineCacheSize
	}
	return &engineCache{cap: capacity, entries: make(map[string]*exec.Engine)}
}

func (c *engineCache) getOrBuild(key string, build func() (*exec.Engine, error)) (*exec.Engine, error) {
	c.mu.Lock()
	eng, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return eng, nil
	}
	eng, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.entries[key]; ok {
		return cached, nil
	}
	if len(c.order) >= c.cap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = eng
	c.order = append(c.order, key)
	return eng, nil
}

// engineFor returns (building and caching if needed) the execution
// engine for bouquet id at the given data seed.
func (s *Server) engineFor(id string, b *core.Bouquet, seed int64) (*exec.Engine, error) {
	return s.engines.getOrBuild(fmt.Sprintf("%s#%d", id, seed), func() (*exec.Engine, error) {
		// A catalog the data package cannot represent answers an error,
		// not Generate's panic.
		if err := data.Check(s.cat, b.Query.Relations(), nil); err != nil {
			return nil, err
		}
		db := data.Generate(s.cat, b.Query.Relations(), nil, seed)
		// Bind every selection predicate to the constant realizing its
		// declared selectivity on the generated (uniform) column.
		bindings := map[int]int64{}
		for _, p := range b.Query.Predicates() {
			if p.Kind != query.Selection {
				continue
			}
			target := p.DefaultSel
			if p.Negated {
				target = 1 - target
			}
			bound, _ := db.SelectionBound(p.Left.Relation, p.Left.Column, target)
			bindings[p.ID] = bound
		}
		// Charges are priced with the model the bouquet's budgets were
		// compiled under — one source for both.
		return exec.NewEngine(b.Query, db, b.Coster.Model(), bindings)
	})
}

// handleRunConcrete executes a /run request with "concrete": true on
// real generated rows. The actual selectivities are whatever the data
// realizes — the runner discovers them from tuple counters, so the
// request's qa field is ignored. ctx is checked between executions: a
// cancelled request answers 503 like a simulated one. An engine that
// cannot be built — a catalog data.Check rejects, whose tables would not
// fit int32 columns — answers 422. A worker count the engine refuses
// (outside 0 … exec.MaxParallelism) answers 400, any other engine error
// 500.
func (s *Server) handleRunConcrete(ctx context.Context, w http.ResponseWriter, req runRequest, b *core.Bouquet) {
	workers := s.cfg.ExecWorkers
	if req.Parallelism != nil {
		workers = *req.Parallelism
	}
	reuse := s.cfg.ExecReuse
	if req.Reuse != nil {
		reuse = *req.Reuse
	}
	seed := req.DataSeed
	if seed == 0 {
		seed = 1
	}
	eng, err := s.engineFor(req.ID, b, seed)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, "building execution engine: %v", err)
		return
	}

	var rec *trace.Recorder
	if req.Trace {
		rec = trace.Acquire()
	}
	runner := &core.ConcreteRunner{B: b, Engine: eng, Trace: rec, Parallelism: workers, Reuse: reuse}
	e, err := runner.Run(ctx, req.Optimized)
	if err != nil {
		switch {
		case errors.Is(err, exec.ErrInvalidOptions):
			jsonError(w, http.StatusBadRequest, "parallelism %d: %v", workers, err)
		case ctx.Err() != nil:
			s.metrics.timeouts.Add(1)
			jsonError(w, http.StatusServiceUnavailable, "run abandoned: %v", err)
		default:
			jsonError(w, http.StatusInternalServerError, "concrete run failed: %v", err)
		}
		return
	}

	// Concrete runs never consult ground truth, so there is no SubOpt to
	// observe — count the run and its steps, and record its cost.
	s.metrics.runsTotal.Add(1)
	s.metrics.runSteps.Add(int64(e.NumExecs()))
	s.metrics.lastRunCost.Set(e.TotalCost.F())
	s.metrics.reuseHits.Add(int64(e.ReuseHits))
	s.metrics.lastSalvagedCost.Set(e.SalvagedCost.F())

	out := runResponse{
		TotalCost:    e.TotalCost.F(),
		Execs:        e.NumExecs(),
		ResultRows:   e.ResultRows,
		Workers:      workers,
		Concrete:     true,
		Reuse:        reuse,
		ReuseHits:    e.ReuseHits,
		SalvagedCost: e.SalvagedCost.F(),
	}
	for _, st := range e.Steps {
		out.Steps = append(out.Steps, runStep{
			Contour: st.Contour, Plan: st.PlanID, Dim: st.Dim,
			Budget: trace.SafeCost(st.Budget.F()), Spent: st.Spent.F(), Completed: st.Completed,
		})
	}
	if rec.Enabled() {
		out.RunID = s.retainTrace(req.ID, rec)
	}
	writeJSON(w, out)
}
