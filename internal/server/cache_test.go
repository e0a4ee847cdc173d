package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func entryFor(id string) cacheEntry { return cacheEntry{id: id} }

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
		k := k
		if _, hit, err := c.getOrCompute(k, func() (cacheEntry, error) { return entryFor(k), nil }); hit || err != nil {
			t.Fatalf("fresh key %q: hit=%v err=%v", k, hit, err)
		}
	}
	// "a" is the LRU victim of inserting "c".
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats after fill = %+v", st)
	}
	if _, hit, _ := c.getOrCompute("a", func() (cacheEntry, error) { return entryFor("a2"), nil }); hit {
		t.Fatal("evicted key served from cache")
	}
	// "b" was evicted by re-inserting "a"; "c" survived as recently used.
	if _, hit, _ := c.getOrCompute("c", func() (cacheEntry, error) { return entryFor("x"), nil }); !hit {
		t.Fatal("recently used key was evicted")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	c := newCompileCache(2)
	compute := func(id string) func() (cacheEntry, error) {
		return func() (cacheEntry, error) { return entryFor(id), nil }
	}
	c.getOrCompute("a", compute("a"))
	c.getOrCompute("b", compute("b"))
	c.getOrCompute("a", compute("a")) // touch "a": "b" becomes the victim
	c.getOrCompute("c", compute("c"))
	if _, hit, _ := c.getOrCompute("a", compute("a")); !hit {
		t.Fatal("touched key evicted")
	}
	if _, hit, _ := c.getOrCompute("b", compute("b")); hit {
		t.Fatal("untouched key survived over touched one")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCompileCache(8)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry, _, err := c.getOrCompute("k", func() (cacheEntry, error) {
				computes.Add(1)
				close(started)
				<-release
				return entryFor("only"), nil
			})
			if err != nil || entry.id != "only" {
				t.Errorf("got entry %q err %v", entry.id, err)
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
	if _, _, err := c.getOrCompute("k", func() (cacheEntry, error) { return cacheEntry{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not poison the key: the next call recomputes.
	entry, hit, err := c.getOrCompute("k", func() (cacheEntry, error) { return entryFor("ok"), nil })
	if err != nil || hit || entry.id != "ok" {
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
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", i%8)
			entry, _, err := c.getOrCompute(k, func() (cacheEntry, error) { return entryFor(k), nil })
			if err != nil || entry.id != k {
				t.Errorf("key %s: entry=%q err=%v", k, entry.id, err)
			}
		}(i)
	}
	waitOrFail(t, &wg)
	if st := c.stats(); st.Entries != 4 || st.Hits+st.Misses != 64 {
		t.Fatalf("stats = %+v", st)
	}
}
