package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// fresh is a compute that returns a new, distinct bouquet.
func fresh() (*core.Bouquet, error) { return new(core.Bouquet), nil }

// waitOrFail waits for wg, failing the test after 10 s instead of letting
// the package time out: a getOrCompute caller blocked that long is stuck in
// the single-flight wait on call.done, which only returns if the cache lock
// is free for the computing caller to publish its result.
func waitOrFail(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("getOrCompute callers still blocked after 10 s: the single-flight wait on call.done never returned (is mu held across it?)")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCompileCache(2)
	for _, k := range []string{"a", "b", "c"} {
		if _, hit, err := c.getOrCompute(k, fresh); hit || err != nil {
			t.Fatalf("fresh key %q: hit=%v err=%v", k, hit, err)
		}
	}
	// "a" is the LRU victim of inserting "c".
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats after fill = %+v", st)
	}
	if _, hit, _ := c.getOrCompute("a", fresh); hit {
		t.Fatal("evicted key served from cache")
	}
	// "b" was evicted by re-inserting "a"; "c" survived as recently used.
	if _, hit, _ := c.getOrCompute("c", fresh); !hit {
		t.Fatal("recently used key was evicted")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	c := newCompileCache(2)
	c.getOrCompute("a", fresh)
	c.getOrCompute("b", fresh)
	c.getOrCompute("a", fresh) // touch "a": "b" becomes the victim
	c.getOrCompute("c", fresh)
	if _, hit, _ := c.getOrCompute("a", fresh); !hit {
		t.Fatal("touched key evicted")
	}
	if _, hit, _ := c.getOrCompute("b", fresh); hit {
		t.Fatal("untouched key survived over touched one")
	}
}

// TestCacheIDs pins the cache as the bouquet store: each insert publishes
// the next id, an id lookup makes its entry the most recently used, and an
// eviction retires the id, which lookup then tells apart from one never
// issued.
func TestCacheIDs(t *testing.T) {
	c := newCompileCache(2)
	a, _, _ := c.getOrCompute("a", fresh)
	b, _, _ := c.getOrCompute("b", fresh)
	if a.id != "b1" || b.id != "b2" {
		t.Fatalf("ids %s, %s; want b1, b2", a.id, b.id)
	}
	if got, _ := c.lookup("b1"); got != a.b {
		t.Fatal("lookup b1 did not return the first bouquet")
	}
	// The lookup touched b1, so inserting "c" evicts "b" (b2).
	cc, _, _ := c.getOrCompute("c", fresh)
	if cc.id != "b3" {
		t.Fatalf("third id %s, want b3", cc.id)
	}
	if got, evicted := c.lookup("b2"); got != nil || !evicted {
		t.Fatalf("lookup b2 after its eviction = %v, evicted %t; want nil, true", got, evicted)
	}
	if got, _ := c.lookup("b1"); got != a.b {
		t.Fatal("looked-up entry b1 was evicted instead of the untouched b2")
	}
	for _, id := range []string{"b4", "b0", "b01", "x1", ""} {
		if got, evicted := c.lookup(id); got != nil || evicted {
			t.Errorf("lookup %q = %v, evicted %t; want nil, false", id, got, evicted)
		}
	}
	// A recompile of an evicted key is a new entry under a new id.
	if again, hit, _ := c.getOrCompute("b", fresh); hit || again.id != "b4" {
		t.Fatalf("recompile of evicted key: id %s hit %t; want b4, false", again.id, hit)
	}
	if st := c.stats(); st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCompileCache(8)
	var computes atomic.Int64
	only := new(core.Bouquet)
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry, _, err := c.getOrCompute("k", func() (*core.Bouquet, error) {
				computes.Add(1)
				close(started)
				<-release
				return only, nil
			})
			if err != nil || entry.b != only || entry.id != "b1" {
				t.Errorf("got entry %s (own bouquet %t) err %v", entry.id, entry.b == only, err)
			}
		}()
	}
	// Let the first caller claim the in-flight slot, then release. The
	// other goroutines either wait on the call or hit the cached entry.
	<-started
	close(release)
	waitOrFail(t, &wg)

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := c.stats()
	if st.Hits+st.Misses != waiters || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d requests with 1 miss", st, waiters)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCompileCache(4)
	boom := errors.New("boom")
	if _, _, err := c.getOrCompute("k", func() (*core.Bouquet, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not poison the key, nor use up an id: the next call
	// recomputes and publishes b1.
	entry, hit, err := c.getOrCompute("k", fresh)
	if err != nil || hit || entry.b == nil || entry.id != "b1" {
		t.Fatalf("after failure: entry=%q hit=%v err=%v", entry.id, hit, err)
	}
	if st := c.stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompileFingerprintCanonical(t *testing.T) {
	a := compileFingerprint("Q", 10, 0.2, 2, false)
	if b := compileFingerprint("Q", 10, 0.2, 2, false); b != a {
		t.Fatal("identical inputs produced different fingerprints")
	}
	distinct := []string{
		compileFingerprint("Q2", 10, 0.2, 2, false),
		compileFingerprint("Q", 11, 0.2, 2, false),
		compileFingerprint("Q", 10, 0.3, 2, false),
		compileFingerprint("Q", 10, 0.2, 3, false),
		compileFingerprint("Q", 10, 0.2, 2, true),
	}
	seen := map[string]bool{a: true}
	for i, fp := range distinct {
		if seen[fp] {
			t.Fatalf("variant %d collided: %s", i, fp)
		}
		seen[fp] = true
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := newCompileCache(4)
	var owner sync.Map // *core.Bouquet -> the key it was computed for
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", i%8)
			entry, _, err := c.getOrCompute(k, func() (*core.Bouquet, error) {
				b := new(core.Bouquet)
				owner.Store(b, k)
				return b, nil
			})
			if got, _ := owner.Load(entry.b); err != nil || got != k {
				t.Errorf("key %s: entry %s computed for %v, err=%v", k, entry.id, got, err)
			}
		}(i)
	}
	waitOrFail(t, &wg)
	if st := c.stats(); st.Entries != 4 || st.Hits+st.Misses != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBoundedBouquetStore cycles four distinct compiles fifty times
// through a two-entry cache, reading one hot bouquet by id between every
// two misses. The server holds at most CacheSize bouquets throughout (the
// bouquetd_bouquets gauge), live heap stays flat after the first cycle, the
// hot id never answers 404, and an evicted id answers a 404 that says it
// was evicted.
func TestBoundedBouquetStore(t *testing.T) {
	const size, cycles = 2, 50
	h := NewWithConfig(catalog.TPCHLike(0.05), Config{CacheSize: size}).Handler()
	hot := handlerCompile(t, h, benchSQL, 12)
	run := runRequest{ID: hot, QA: []float64{0.05, 2e-6}}
	gauge := func() int {
		body := serve(h, "GET", "/metrics", nil).Body.String()
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "bouquetd_bouquets "); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("bouquetd_bouquets %q: %v", rest, err)
				}
				return n
			}
		}
		t.Fatal("no bouquetd_bouquets in /metrics")
		return 0
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var first string
	var base uint64
	for c := 0; c < cycles; c++ {
		for res := 24; res < 28; res++ {
			id := handlerCompile(t, h, benchSQL, res)
			if first == "" {
				first = id
			}
			if rec := serve(h, "POST", "/run", run); rec.Code != http.StatusOK {
				t.Fatalf("cycle %d: hot /run answered %d: %s", c, rec.Code, rec.Body)
			}
			if n := gauge(); n > size {
				t.Fatalf("cycle %d: bouquetd_bouquets %d exceeds CacheSize %d", c, n, size)
			}
		}
		if c == 0 {
			base = liveHeap()
		}
	}
	if grown := int64(liveHeap()) - int64(base); grown >= 1<<20 {
		t.Fatalf("live heap grew %d B over %d cycles after the first, want < 1 MiB", grown, cycles-1)
	}

	rec := serve(h, "GET", "/bouquets/"+first, nil)
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "evicted") {
		t.Fatalf("evicted id %s answered %d: %s", first, rec.Code, rec.Body)
	}
	rec = serve(h, "GET", "/bouquets/b999999", nil)
	if rec.Code != http.StatusNotFound || strings.Contains(rec.Body.String(), "evicted") {
		t.Fatalf("never-issued id answered %d: %s", rec.Code, rec.Body)
	}
}
