package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// harness side of the boundary. Spans of one request (one query, one
// space, one HTTP exchange) share Req; Parent is the span that caused
// this one, 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory until the pass ends. A nil
// *tracer is the tracing-off state: every method is a no-op, so workload
// code calls it unconditionally.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	reqs atomic.Int64

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// newReq mints a request identifier (0 with tracing off).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// timed runs fn and returns its wall time; with tracing on it also
// records a span around it. fn receives the span's id so it can parent
// its own children (0 with tracing off).
func (t *tracer) timed(req, parent int64, name string, fn func(id int64)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	id := t.ids.Add(1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start)
}

// synth records a span whose interval was measured elsewhere — the
// per-step exec spans are rebuilt from the public ConcreteStep.Wall,
// laid end to end from their parent's start.
func (t *tracer) synth(req, parent int64, name string, startNs, endNs int64) {
	if t == nil {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, StartNs: startNs, EndNs: endNs})
}

// sinceStart converts a wall-clock instant to the tracer's time base.
func (t *tracer) sinceStart(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.t0).Nanoseconds()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds v to a named counter, recorded at the same boundary as the
// spans so ratios are measured where the work happens.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// counter reads a counter back (0 when absent or tracing is off).
func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// layerStat is one span name's roll-up.
type layerStat struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"totalMs"`
	// SelfMs is the time spent in the layer itself: each span's duration
	// minus the part of its interval its child spans cover.
	SelfMs float64 `json:"selfMs"`
}

// selfNanos returns s's duration minus the union of its children's
// intervals, each clipped to s — overlapping or nested children are not
// subtracted twice, and a child leaking past its parent only counts for
// the part inside.
func selfNanos(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNs, c.EndNs
		if lo < s.StartNs {
			lo = s.StartNs
		}
		if hi > s.EndNs {
			hi = s.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, edge int64
	edge = s.StartNs
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		if v.lo > edge {
			edge = v.lo
		}
		covered += v.hi - edge
		edge = v.hi
	}
	return (s.EndNs - s.StartNs) - covered
}

// layers rolls spans up by name, sorted by name.
func layers(spans []span) []layerStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := make(map[string]*layerStat)
	for _, s := range spans {
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerStat{Name: s.Name}
			byName[s.Name] = ls
		}
		ls.Calls++
		ls.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		ls.SelfMs += float64(selfNanos(s, kids[s.ID])) / 1e6
	}
	out := make([]layerStat, 0, len(byName))
	for _, ls := range byName {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerIndex is layers keyed by span name, for metric derivation.
type layerIndex map[string]layerStat

func indexLayers(ls []layerStat) layerIndex {
	idx := make(layerIndex, len(ls))
	for _, l := range ls {
		idx[l.Name] = l
	}
	return idx
}

func (idx layerIndex) ms(name string) float64    { return idx[name].TotalMs }
func (idx layerIndex) calls(name string) float64 { return float64(idx[name].Calls) }
