// Command bouquetd serves the plan-bouquet library over HTTP (see
// internal/server for the API and API.md for the endpoint reference):
// compile bouquets from SQL text, execute traced runs, inspect contours,
// export artifacts, render plan diagrams, and observe it all via
// /metrics and /healthz.
//
//	bouquetd -addr :8080 -catalog tpch -sf 1.0
//
//	curl -s localhost:8080/compile -d '{"sql":"SELECT * FROM part, lineitem
//	  WHERE part.p_retailprice < sel(0.1)?
//	  AND part.p_partkey = lineitem.l_partkey"}'
//	curl -s localhost:8080/run -d '{"id":"b1","qa":[0.05]}'
//	curl -s localhost:8080/metrics
//
// The process is production-shaped: the http.Server carries read/write
// timeouts, each /compile runs under a deadline that cancels the
// compilation cooperatively, repeated compiles are served from a bounded
// LRU cache, and SIGTERM/SIGINT drain in-flight requests before exiting 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	schema := flag.String("catalog", "tpch", "catalog shape: tpch or tpcds")
	sf := flag.Float64("sf", 1.0, "catalog scale factor")
	cacheSize := flag.Int("cache-size", server.DefaultCacheSize, "compile cache capacity (LRU entries)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body limit in bytes")
	compileTimeout := flag.Duration("compile-timeout", time.Minute, "per-request compile deadline (0 = none)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server read timeout")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "http.Server write timeout (must exceed compile-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
	grace := flag.Duration("shutdown-grace", 30*time.Second, "drain window for in-flight requests on SIGTERM")
	execWorkers := flag.Int("exec-workers", 0, "default worker count for concrete /run executions (0 = tuple-at-a-time engine, n>0 = vectorized with n morsel workers)")
	execReuse := flag.Bool("exec-reuse", true, "salvage completed operator state (hash builds, sorted runs) across the steps of a concrete /run (per-request \"reuse\" overrides)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	runHistory := flag.Int("run-history", server.DefaultRunHistory, "traced runs retained for /runs/{id}/trace")
	flag.Parse()

	if err := run(*addr, *schema, *sf, server.Config{
		CacheSize:      *cacheSize,
		MaxBodyBytes:   *maxBody,
		CompileTimeout: *compileTimeout,
		ExecWorkers:    *execWorkers,
		ExecReuse:      *execReuse,
		EnablePprof:    *enablePprof,
		RunHistory:     *runHistory,
		Logf:           log.Printf,
	}, *readTimeout, *writeTimeout, *idleTimeout, *grace); err != nil {
		log.Fatalf("bouquetd: %v", err)
	}
}

// run builds the catalog and server, serves until a termination signal or
// listener error, then drains in-flight requests. A nil return means a
// clean shutdown (the process exits 0).
func run(addr, schema string, sf float64, cfg server.Config, readTimeout, writeTimeout, idleTimeout, grace time.Duration) error {
	var cat *catalog.Catalog
	switch schema {
	case "tpch":
		cat = catalog.TPCHLike(catalog.ScaleFactor(sf))
	case "tpcds":
		cat = catalog.TPCDSLike(catalog.ScaleFactor(sf))
	default:
		return fmt.Errorf("unknown catalog %q (tpch or tpcds)", schema)
	}

	srv := server.NewWithConfig(cat, cfg)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	// The one-slot buffer lets the send complete; the drain-incomplete path
	// exits the process without collecting the listener's error.
	go func() {
		fmt.Printf("bouquetd: serving %s-shaped catalog on %s\n", schema, addr)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // ListenAndServe never returns nil
	case <-ctx.Done():
		stop() // restore default signal behaviour: a second signal kills hard
		log.Printf("bouquetd: shutdown signal received, draining for up to %s", grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			hs.Close()
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("bouquetd: drained, exiting")
		return nil
	}
}
