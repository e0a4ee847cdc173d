package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// promLine matches one Prometheus text-format sample:
// name{labels} value  (labels optional, value a float/int).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+(Inf|NaN)?$`)

// TestMetricsParseable exercises the server (a compile, a cache hit, a
// run) and then checks every /metrics sample line against the Prometheus
// exposition grammar, plus the presence of the headline series the
// acceptance criteria name: request latency, cache hit/miss, and per-run
// SubOpt.
func TestMetricsParseable(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 8)
	compileOne(t, srv, apiEQ2D, 8) // cache hit
	postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable metrics line: %q", line)
		}
	}
	for _, want := range []string{
		"bouquetd_request_duration_seconds_bucket",
		"bouquetd_request_duration_seconds_count",
		"bouquetd_requests_total{path=\"/compile\",code=\"200\"}",
		"bouquetd_compile_cache_hits_total 1",
		"bouquetd_compile_cache_misses_total 1",
		"bouquetd_last_run_subopt ",
		"bouquetd_run_subopt_bucket",
		"bouquetd_run_steps_total",
		"bouquetd_optimizer_calls_total",
		"bouquetd_bouquets 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if subOpt := fetchMetric(t, srv.URL, "bouquetd_last_run_subopt"); subOpt < 1 {
		t.Fatalf("last_run_subopt = %g, want >= 1", subOpt)
	}
}

// TestCompileDeadline503 configures a compile timeout no real compile can
// meet and checks the request answers 503 promptly — and that the server
// keeps serving afterwards (the abandoned compile cannot wedge it).
func TestCompileDeadline503(t *testing.T) {
	s := NewWithConfig(catalog.TPCHLike(0.05), Config{CompileTimeout: time.Nanosecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(compileRequest{SQL: apiEQ2D, Res: 8})
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("deadline-bound compile status %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline-bound compile wedged the request")
	}

	// The process still serves: healthz answers and the timeout counter
	// recorded the abandonment.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout: %v %v", resp, err)
	}
	resp.Body.Close()
	if n := fetchMetric(t, srv.URL, "bouquetd_request_timeouts_total"); n < 1 {
		t.Fatalf("timeouts_total = %g, want >= 1", n)
	}

	// The abandoned compile saw the request's expired deadline and
	// stopped: once it has left the cache's in-flight set, the cache holds
	// nothing. A compile handed a context of its own would have run to the
	// end and been cached.
	inflight := func() int {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		return len(s.cache.inflight)
	}
	for deadline := time.Now().Add(10 * time.Second); s.metrics.compiles.Value() == 0 || inflight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned compile did not finish within 10 s")
		}
	}
	if n := s.cache.stats().Entries; n != 0 {
		t.Fatalf("the cache holds %d bouquets after an abandoned compile, want 0: the compile ran past its deadline", n)
	}
}

// TestRequestMetricLabelsAreBounded checks request metrics are labelled by
// the route the mux matched, never by the request path: run ids and junk
// paths must not add label sets (each one is a map entry plus a histogram
// that every later /metrics scrape renders).
func TestRequestMetricLabelsAreBounded(t *testing.T) {
	s := New(catalog.TPCHLike(0.05))
	h := s.Handler()
	get := func(path string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	labels := func() int {
		keys, _ := s.metrics.requests.snapshot()
		return len(keys)
	}
	// One request per route and outcome the sweep below produces.
	get("/runs/r0/trace")
	get("/bouquets/b0")
	get("/junk")
	before := labels()
	for i := 1; i <= 1000; i++ {
		get(fmt.Sprintf("/runs/r%d/trace", i))
		get(fmt.Sprintf("/bouquets/b%d", i))
		get(fmt.Sprintf("/junk/%d", i))
		get(fmt.Sprintf("/runs/r%d/nope/%d", i, i))
	}
	if after := labels(); after != before {
		t.Fatalf("request label sets grew from %d to %d over 1000 distinct ids and junk paths", before, after)
	}
	keys, _ := s.metrics.requests.snapshot()
	for _, want := range []string{
		`path="/runs/{id}/trace",code="404"`, `path="/bouquets/{id}",code="404"`, `path="unmatched",code="404"`,
	} {
		if !slices.Contains(keys, want) {
			t.Errorf("label set %s missing from %v", want, keys)
		}
	}
}

// TestPanicRecovery drives a panicking handler through the middleware and
// checks the client sees a JSON 500 while the counter increments.
func TestPanicRecovery(t *testing.T) {
	s := New(catalog.TPCHLike(0.05))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bouquets", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	h := s.instrument(mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/bouquets", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
		t.Fatalf("panic response body %q (err %v)", rec.Body.String(), err)
	}
	if got := s.metrics.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

// TestBodyLimit413 checks oversized request bodies are rejected with 413
// rather than read to completion.
func TestBodyLimit413(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(catalog.TPCHLike(0.05), Config{MaxBodyBytes: 64}).Handler())
	defer srv.Close()
	big, _ := json.Marshal(compileRequest{SQL: strings.Repeat("SELECT ", 64)})
	resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

// TestPprofGated checks /debug/pprof/ is absent by default and mounted
// under Config.EnablePprof.
func TestPprofGated(t *testing.T) {
	off := httptest.NewServer(New(catalog.TPCHLike(0.05)).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without the flag")
	}

	on := httptest.NewServer(NewWithConfig(catalog.TPCHLike(0.05), Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d with the flag on", resp.StatusCode)
	}
}

// TestCachedCompileIsIdempotent checks the canonicalized fingerprint:
// whitespace-different SQL for the same query hits the same cache entry
// and returns the same bouquet id, while changed knobs and changed
// selectivity constants miss (a request differing only in a sel(…) used to
// be served the other's bouquet).
func TestCachedCompileIsIdempotent(t *testing.T) {
	srv := newTestServer(t)
	a := compileOne(t, srv, apiEQ2D, 8)
	b := compileOne(t, srv, strings.Join(strings.Fields(apiEQ2D), " "), 8)
	if a.ID != b.ID || !b.Cached {
		t.Fatalf("whitespace variant recompiled: %q vs %q (cached=%t)", a.ID, b.ID, b.Cached)
	}
	c := compileOne(t, srv, apiEQ2D, 9) // different resolution
	if c.ID == a.ID {
		t.Fatal("different resolution served from cache")
	}
	seen := map[string]bool{a.ID: true, c.ID: true}
	for _, variant := range []string{
		strings.Replace(apiEQ2D, "sel(0.10)?", "sel(0.20)?", 1),                             // selection constant
		strings.Replace(apiEQ2D, "sel(0.000005)?", "sel(0.000004)?", 1),                     // join override
		strings.Replace(apiEQ2D, "orders.o_orderkey", "orders.o_orderkey sel(0.000001)", 1), // override of a PK-FK default
	} {
		if variant == apiEQ2D {
			t.Fatal("variant does not differ from the base query")
		}
		v := compileOne(t, srv, variant, 8)
		if v.Cached || seen[v.ID] {
			t.Fatalf("query differing only in a selectivity constant was served bouquet %s from the cache:\n%s", v.ID, variant)
		}
		seen[v.ID] = true
	}
	stats := struct{ hits, misses float64 }{
		fetchMetric(t, srv.URL, "bouquetd_compile_cache_hits_total"),
		fetchMetric(t, srv.URL, "bouquetd_compile_cache_misses_total"),
	}
	if stats.hits != 1 || stats.misses != 5 {
		t.Fatalf("cache stats hits=%g misses=%g, want 1/5", stats.hits, stats.misses)
	}
}
