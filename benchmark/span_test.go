package main

import (
	"math"
	"testing"
)

func TestSelfNanos(t *testing.T) {
	parent := span{ID: 1, StartNs: 100, EndNs: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{StartNs: 110, EndNs: 150}}, 60},
		{"disjoint children", []span{{StartNs: 110, EndNs: 120}, {StartNs: 150, EndNs: 180}}, 60},
		{"overlapping children count once", []span{{StartNs: 110, EndNs: 160}, {StartNs: 140, EndNs: 180}}, 30},
		{"nested children count once", []span{{StartNs: 110, EndNs: 190}, {StartNs: 120, EndNs: 130}}, 20},
		{"out of order", []span{{StartNs: 150, EndNs: 180}, {StartNs: 110, EndNs: 120}}, 60},
		{"child leaking past the parent is clipped", []span{{StartNs: 90, EndNs: 120}, {StartNs: 190, EndNs: 400}}, 70},
		{"child wholly outside", []span{{StartNs: 300, EndNs: 400}}, 100},
		{"children cover everything", []span{{StartNs: 100, EndNs: 150}, {StartNs: 150, EndNs: 200}}, 0},
	} {
		if got := selfNanos(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayersRollUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.compile_staged", StartNs: 0, EndNs: 10e6},
		{ID: 2, Parent: 1, Name: "posp.generate", StartNs: 1e6, EndNs: 7e6},
		{ID: 3, Parent: 1, Name: "contour.identify", StartNs: 7e6, EndNs: 9e6},
		{ID: 4, Name: "core.compile_staged", StartNs: 20e6, EndNs: 24e6},
		{ID: 5, Parent: 4, Name: "posp.generate", StartNs: 20e6, EndNs: 23e6},
	}
	ly := indexLayers(layers(spans))
	staged := ly["core.compile_staged"]
	if staged.Calls != 2 || math.Abs(staged.TotalMs-14) > 1e-9 || math.Abs(staged.SelfMs-3) > 1e-9 {
		t.Errorf("staged = %+v, want 2 calls, 14 ms total, 3 ms self", staged)
	}
	if gen := ly["posp.generate"]; gen.Calls != 2 || math.Abs(gen.TotalMs-9) > 1e-9 || math.Abs(gen.SelfMs-9) > 1e-9 {
		t.Errorf("generate = %+v, want 2 calls, 9 ms total and self", gen)
	}
	if ly.ms("absent") != 0 || ly.calls("absent") != 0 {
		t.Error("an absent layer must read 0")
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.timed(tr.newReq(), 0, "x", func(id int64) { ran = id == 0 }); d < 0 || !ran {
		t.Error("a nil tracer must still run and time fn, handing it id 0")
	}
	tr.count("c", 1)
	tr.synth(0, 0, "x", 0, 1)
	if tr.counter("c") != 0 {
		t.Error("a nil tracer keeps no counters")
	}
}

func TestTracerParentsAndCounters(t *testing.T) {
	tr := newTracer()
	req := tr.newReq()
	tr.timed(req, 0, "outer", func(parent int64) {
		tr.timed(req, parent, "inner", func(int64) {})
	})
	tr.count("n", 2)
	tr.count("n", 3)
	if len(tr.spans) != 2 || tr.counter("n") != 5 {
		t.Fatalf("got %d spans, counter %g", len(tr.spans), tr.counter("n"))
	}
	inner, outer := tr.spans[0], tr.spans[1] // a span is recorded when it ends
	if inner.Name != "inner" || inner.Parent != outer.ID || inner.Req != req || outer.Parent != 0 {
		t.Errorf("inner %+v is not a child of outer %+v", inner, outer)
	}
	if inner.StartNs < outer.StartNs || inner.EndNs > outer.EndNs {
		t.Errorf("inner %+v is not inside outer %+v", inner, outer)
	}
}
