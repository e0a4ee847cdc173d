package server

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
)

// Concrete execution support for /run: instead of simulating a bouquet
// run on the cost surfaces, a request with "concrete": true generates a
// deterministic database for the bouquet's relations, binds its
// selection predicates, and hands the engine over them to Bouquet.Run as
// core.Run's Engine — tuple-at-a-time by default, or on the vectorized
// morsel-parallel engine when a worker count is configured
// (Config.ExecWorkers / bouquetd's -exec-workers) or requested per run
// ("parallelism"). handleRun serves both substrates on one path.
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
// engine for bouquet id at the given data seed, 0 meaning seed 1.
func (s *Server) engineFor(id string, b *core.Bouquet, seed int64) (*exec.Engine, error) {
	if seed == 0 {
		seed = 1
	}
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
