package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// loopback is a real net/http.Server on 127.0.0.1:0 plus the keep-alive
// client that drives it from the same process. The handler can be swapped
// between rounds, which is how a workload gets fresh (cold-cache) servers
// without paying for a new listener.
type loopback struct {
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	handler atomic.Pointer[http.Handler]
}

// serveLoopback starts the listener; clients bounds the keep-alive
// connection pool so load never exceeds that many concurrent requests.
func serveLoopback(clients int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &loopback{served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	l.mount(http.NotFoundHandler())
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.handler.Load()).ServeHTTP(w, r)
	})}
	go func() { l.served <- l.srv.Serve(ln) }()
	l.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     time.Minute,
	}}
	return l, nil
}

func (l *loopback) mount(h http.Handler) { l.handler.Store(&h) }

// close shuts the server down and waits for its accept loop to end.
func (l *loopback) close() {
	l.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		// Shutdown only fails when the drain deadline passes; closing
		// the listener and connections outright is the fallback.
		_ = l.srv.Close() // the error would repeat Shutdown's
	}
	<-l.served
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status  int
	body    []byte
	latency time.Duration
}

// ok reports a 2xx status.
func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

// do sends one request and reads the whole response; latency covers both.
// body may be nil (GET).
func (l *loopback) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return reply{}, fmt.Errorf("build %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	latency := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: data, latency: latency}, nil
}

func (l *loopback) post(path string, body []byte) (reply, error) { return l.do("POST", path, body) }

// The wire shapes below mirror internal/server's JSON; its Go types are
// unexported, and the API is the contract anyway.

type compileReq struct {
	SQL    string  `json:"sql"`
	Res    int     `json:"res"`
	Lambda float64 `json:"lambda"`
}

type compileResp struct {
	ID       string  `json:"id"`
	Dims     int     `json:"dims"`
	Plans    int     `json:"plans"`
	Contours int     `json:"contours"`
	Rho      int     `json:"rho"`
	BoundMSO float64 `json:"boundMso"`
	Cached   bool    `json:"cached"`
}

type runReq struct {
	ID          string    `json:"id"`
	QA          []float64 `json:"qa,omitempty"`
	Optimized   bool      `json:"optimized,omitempty"`
	Trace       bool      `json:"trace,omitempty"`
	Concrete    bool      `json:"concrete,omitempty"`
	DataSeed    int64     `json:"dataSeed,omitempty"`
	Parallelism *int      `json:"parallelism,omitempty"`
	Reuse       *bool     `json:"reuse,omitempty"`
}

type runStepResp struct {
	Completed bool `json:"completed"`
}

type runResp struct {
	TotalCost  float64       `json:"totalCost"`
	SubOpt     float64       `json:"subOpt"`
	Steps      []runStepResp `json:"steps"`
	RunID      string        `json:"runId"`
	ResultRows int64         `json:"resultRows"`
}

// completed reports whether the run's last step ran to completion, which
// is how the wire format says the query finished.
func (r runResp) completed() bool {
	return len(r.Steps) > 0 && r.Steps[len(r.Steps)-1].Completed
}

// mustJSON encodes a request body; the inputs are plain structs of
// strings and finite numbers, so failure is a harness bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode request: %v", err))
	}
	return b
}
