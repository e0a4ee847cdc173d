package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"
)

// statusRecorder captures the status code a handler writes so the metrics
// middleware can label request counters by outcome.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// unmatchedRoute labels every request no route matched (unknown paths,
// wrong methods), so that junk traffic cannot grow the metric label set.
const unmatchedRoute = "unmatched"

// routeLabel names the route mux matched for r, for use as a metric label:
// the pattern without its method ("/bouquets/{id}", "/runs/{id}/trace"),
// with "*" appended to a subtree pattern ("/debug/pprof/*"). Labelling by
// registered route rather than by request path is what keeps the label set
// — and /metrics scrape time — constant under traffic.
func routeLabel(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" {
		return unmatchedRoute
	}
	if _, path, ok := strings.Cut(pattern, " "); ok {
		pattern = path
	}
	if strings.HasSuffix(pattern, "/") {
		pattern += "*"
	}
	return pattern
}

// instrument is the server's outermost middleware: it bounds the request
// body, recovers panics into a 500 response, and records per-route
// request counts and latency histograms.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		}

		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if rec.status == 0 {
					jsonError(rec, http.StatusInternalServerError, "internal error")
				}
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			pattern := routeLabel(mux, r)
			s.metrics.requests.Add(fmt.Sprintf("path=%q,code=\"%d\"", pattern, status), 1)
			s.metrics.latency.Observe(fmt.Sprintf("path=%q", pattern), time.Since(start).Seconds())
		}()

		mux.ServeHTTP(rec, r)
	})
}

// logf routes middleware diagnostics through the configured logger,
// defaulting to silence (tests) when none is set.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
