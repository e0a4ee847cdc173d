package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
)

// cacheEntry is one cached compile outcome: the id the bouquet was
// published under and the bouquet itself. Nothing else in the server
// holds the bouquet: the entry's eviction retires the id, and only a run
// already in flight keeps its own reference until it finishes. The
// bouquet is all an entry keeps of its compile: the optimizer that built it goes once
// core.Compile returns, and the bouquet holds what its runs read — the
// diagram's plan IDs, costs and plans (no plan index, no fingerprint
// strings), the contours' budgets, plan sets and per-location plans, and a
// contour-nearest memo that grows with the optimized runs it serves, up to
// one entry per contour and grid location: the ladder and the grid are
// both bounded (contour.NewLadder, ess.NewSpaceWithDims).
type cacheEntry struct {
	id string
	b  *core.Bouquet
}

// inflightCall tracks one in-progress compile so that concurrent requests
// for the same fingerprint wait for it instead of recompiling (a
// single-flight guard against cache stampedes).
type inflightCall struct {
	done  chan struct{}
	entry cacheEntry
	err   error
}

// compileCache is a bounded LRU cache of compile outcomes keyed by a
// canonical fingerprint of the compile request, and the server's one
// store of compiled bouquets: each inserted entry gets the next id b1,
// b2, …, and an id lookup finds it. A compile hit and an id lookup both
// make an entry the most recently used. It deduplicates concurrent misses
// on the same key: the first caller computes, later callers block on the
// in-flight result and are accounted as hits. Failed computes are never
// inserted, so transient errors (including cancelled deadlines) do not
// poison the cache.
type compileCache struct {
	capacity int

	mu       sync.Mutex
	order    *list.List               // front = most recently used
	byKey    map[string]*list.Element // key -> element holding *lruItem
	byID     map[string]*list.Element // entry id -> the same element
	inflight map[string]*inflightCall
	lastID   int // ids issued so far: b1 … b<lastID>

	hits, misses, evictions int64
}

type lruItem struct {
	key   string
	entry cacheEntry
}

// newCompileCache builds a cache holding at most capacity entries
// (capacity < 1 is clamped to 1 — the single-flight guard alone is worth
// having).
func newCompileCache(capacity int) *compileCache {
	if capacity < 1 {
		capacity = 1
	}
	return &compileCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
		byID:     make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
	}
}

// getOrCompute returns the entry for key, computing its bouquet with
// compute on a miss and publishing it under a new id. The boolean reports
// whether the entry was served from cache (or from another request's
// in-flight compute). compute runs outside the cache lock; at most one
// compute per key is in flight at a time.
func (c *compileCache) getOrCompute(key string, compute func() (*core.Bouquet, error)) (cacheEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		entry := el.Value.(*lruItem).entry
		c.mu.Unlock()
		return entry, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		c.mu.Lock()
		if call.err != nil {
			c.misses++
			c.mu.Unlock()
			return cacheEntry{}, false, call.err
		}
		c.hits++
		c.mu.Unlock()
		return call.entry, true, nil
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	b, err := compute()

	c.mu.Lock()
	delete(c.inflight, key)
	call.err = err
	if err == nil {
		c.lastID++
		call.entry = cacheEntry{id: "b" + strconv.Itoa(c.lastID), b: b}
		el := c.order.PushFront(&lruItem{key: key, entry: call.entry})
		c.byKey[key], c.byID[call.entry.id] = el, el
		for c.order.Len() > c.capacity {
			oldest := c.order.Remove(c.order.Back()).(*lruItem)
			delete(c.byKey, oldest.key)
			delete(c.byID, oldest.entry.id)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(call.done)
	return call.entry, false, call.err
}

// lookup returns the bouquet published under id and makes its entry the
// most recently used. When no entry holds id, b is nil and evicted
// reports whether id is one the cache issued, whose entry the LRU bound
// has since dropped.
func (c *compileCache) lookup(id string) (b *core.Bouquet, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruItem).entry.b, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "b"))
	return nil, err == nil && id == "b"+strconv.Itoa(n) && n >= 1 && n <= c.lastID
}

// entries snapshots the cached entries.
func (c *compileCache) entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem).entry)
	}
	return out
}

// CacheStats is a point-in-time snapshot of the compile cache's counters.
type CacheStats struct {
	// Hits counts requests served from the cache, including requests
	// that waited on another request's in-flight compile.
	Hits int64
	// Misses counts requests that had to compile (or waited on a compile
	// that failed).
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the current cache population.
	Entries int
}

// stats snapshots the counters.
func (c *compileCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}

// canonicalQuery renders the *parsed* query for the cache key (so whitespace
// and formatting differences in the SQL text collapse): Query.String, which
// prints no constants, followed by every predicate's selectivity — the
// sel(…) of a selection, the sel(…) override or PK-FK default of a join —
// since two queries that differ in one of them compile to different
// bouquets.
func canonicalQuery(q *query.Query) string {
	var sb strings.Builder
	sb.WriteString(q.String())
	for _, p := range q.Predicates() {
		sb.WriteString("|sel=")
		sb.WriteString(strconv.FormatFloat(p.DefaultSel, 'g', -1, 64))
	}
	return sb.String()
}

// compileFingerprint canonicalizes a compile request into a cache key: the
// query's canonical rendering together with the resolved resolution,
// lambda, ratio and focus mode — every knob that can change the compiled
// bouquet.
func compileFingerprint(canonicalQuery string, res int, lambda, ratio float64, focused bool) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|res=%d|lambda=%g|ratio=%g|focused=%t",
		canonicalQuery, res, lambda, ratio, focused)))
	return hex.EncodeToString(h[:16])
}
