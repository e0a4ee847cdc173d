package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
)

const benchSQL = `
	SELECT * FROM part, lineitem, orders
	WHERE part.p_retailprice < sel(0.10)?
	  AND part.p_partkey = lineitem.l_partkey sel(0.000005)?
	  AND lineitem.l_orderkey = orders.o_orderkey`

func benchCompile(b *testing.B, url, sql string, res int) {
	b.Helper()
	body, _ := json.Marshal(compileRequest{SQL: sql, Res: res})
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("compile status %d", resp.StatusCode)
	}
}

// BenchmarkCompileCold measures the uncached compile path: every
// iteration uses a distinct selectivity constant, so every request is a
// fresh fingerprint and runs POSP generation end to end.
func BenchmarkCompileCold(b *testing.B) {
	srv := httptest.NewServer(New(catalog.TPCHLike(0.05)).Handler())
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`SELECT * FROM part, lineitem
			WHERE part.p_retailprice < sel(0.%04d)?
			  AND part.p_partkey = lineitem.l_partkey sel(0.000005)?`, i%9000+100)
		benchCompile(b, srv.URL, sql, 12)
	}
}

// BenchmarkCompileCached measures the cache-hit path: one cold compile,
// then identical requests served from the LRU cache.
func BenchmarkCompileCached(b *testing.B) {
	srv := httptest.NewServer(New(catalog.TPCHLike(0.05)).Handler())
	defer srv.Close()
	benchCompile(b, srv.URL, benchSQL, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompile(b, srv.URL, benchSQL, 12)
	}
}

// handlerCompile compiles sql through h with no listener in between and
// returns the bouquet's ID.
func handlerCompile(tb testing.TB, h http.Handler, sql string, res int) string {
	tb.Helper()
	rec := serve(h, "POST", "/compile", compileRequest{SQL: sql, Res: res})
	var sum compileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("compile status %d (%s): %v", rec.Code, rec.Body, err)
	}
	return sum.ID
}

// simRun returns a func that serves one simulated optimized /run of benchSQL
// through a fresh server's Handler() — middleware, JSON both ways, the
// driver, and for a traced run the fold and the retained snapshot — with no
// socket under it.
func simRun(tb testing.TB, traced bool) func() {
	h := New(catalog.TPCHLike(0.05)).Handler()
	body, _ := json.Marshal(runRequest{ID: handlerCompile(tb, h, benchSQL, 12), QA: []float64{0.05, 2e-6}, Optimized: true, Trace: traced})
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("run status %d (%s)", rec.Code, rec.Body)
		}
	}
}

// BenchmarkRunSimPlain and BenchmarkRunSimTraced are the two sides of
// serve_mix's gated ratio at the handler: the same run without and with
// "trace":true. Developer tools — benchmark/ owns the gate.
func BenchmarkRunSimPlain(b *testing.B)  { benchRunSim(b, false) }
func BenchmarkRunSimTraced(b *testing.B) { benchRunSim(b, true) }

func benchRunSim(b *testing.B, traced bool) {
	run := simRun(b, traced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestCacheHitSpeedup checks, without a clock, what a cache hit skips:
// after one cold compile, five identical requests each answer
// cached:true with the cold compile's ID, and the server's fresh-compile
// counter stays at one. How much faster a hit answers is a timing, so it
// is measured where timings are — corpus_compile's compile_cold_p50_ms
// against compile_cached_p50_ms — not asserted here.
func TestCacheHitSpeedup(t *testing.T) {
	s := New(catalog.TPCHLike(0.05))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func() compileResponse {
		body, _ := json.Marshal(compileRequest{SQL: benchSQL, Res: 12})
		resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile status %d", resp.StatusCode)
		}
		var got compileResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	cold := post()
	if cold.Cached {
		t.Fatal("first compile answered cached:true")
	}
	for i := 0; i < 5; i++ {
		if hit := post(); !hit.Cached || hit.ID != cold.ID {
			t.Fatalf("hit %d answered id %s cached:%t, want id %s cached:true", i, hit.ID, hit.Cached, cold.ID)
		}
	}
	if n := s.metrics.compiles.Value(); n != 1 {
		t.Fatalf("%d fresh compiles across one cold compile and five hits, want 1", n)
	}
}
