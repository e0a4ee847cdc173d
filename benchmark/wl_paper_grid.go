package main

import (
	"fmt"
	"time"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/optimizer"
	paper "repro/internal/workload"
)

// paperGrid is the paper_grid workload: the ten Table-2 error spaces at
// their default resolutions, in-process. Each space is compiled dense,
// compiled focused, then swept by the simulated drivers: the dense bouquet
// by both at seeded grid locations, and the dense and the focused bouquet
// by the optimized driver at a fixed lattice of locations, from which
// mso_gmean is taken. It is the paper's own
// evaluation (Fig. 14–18) and the only workload where POSP generation
// scaling, focused generation and the simulated drivers do most of the
// work; server, sqlparse and exec do nothing.
type paperGrid struct {
	cfg    config
	spaces []*gridSpace
}

type gridSpace struct {
	w *paper.Workload
	// seeded are the locations the seed draws; lattice are evenly spaced
	// grid indexes from the origin to the terminus, the same for every
	// seed, so that the sub-optimality measured on them is a function of
	// the code alone.
	seeded, lattice []ess.Point
}

// latticeShare is the part of a space's sampled locations that lie on the
// fixed lattice.
const latticeShare = 4

func (w *paperGrid) name() string { return "paper_grid" }

// warmupRes is the resolution of set-up's warm-up compiles: large enough
// to page in every code path a round touches, small enough to be cheap.
const warmupRes = 4

func (w *paperGrid) setup() error {
	res := w.cfg.pick(0, 3) // 0 selects the default resolution per dimensionality
	samples := w.cfg.pick(2048, 24)
	w.spaces = w.spaces[:0]
	for i, wl := range paper.All(res) {
		gs := &gridSpace{w: wl}
		n := wl.Space.NumPoints()
		onLattice := samples / latticeShare
		for s := 0; s < onLattice; s++ {
			gs.lattice = append(gs.lattice, wl.Space.PointAt(s*(n-1)/(onLattice-1)))
		}
		r := newRNG(w.cfg.seed, 100+uint64(i))
		for s := onLattice; s < samples; s++ {
			gs.seeded = append(gs.seeded, wl.Space.PointAt(r.intn(n)))
		}
		w.spaces = append(w.spaces, gs)
	}
	// Warm-up: one small dense and focused compile and a short sweep per
	// space, so the first measured round does not pay first-use costs.
	for _, wl := range paper.All(warmupRes) {
		for _, focused := range []bool{false, true} {
			b, err := core.Compile(newOptimizer(wl.Query), wl.Space, core.CompileOptions{Lambda: lambda, Focused: focused})
			if err != nil {
				return fmt.Errorf("warm-up compile of %s: %w", wl.Name, err)
			}
			b.RunBasic(wl.Space.Terminus())
			b.RunOptimized(wl.Space.Terminus())
		}
	}
	return nil
}

func (w *paperGrid) close() {}

// sweep runs one driver over every sampled location of a space under one
// span, returning the largest SubOpt seen. Every run must complete, and
// the basic driver must stay within Eq. 8's bound.
func sweep(p *pass, req int64, b *core.Bouquet, qas []ess.Point, optimized bool) (worst float64, errs []string) {
	name := "core.run_basic"
	if optimized {
		name = "core.run_optimized"
	}
	bound := b.BoundMSO().F() * (1 + relTol)
	steps := 0
	p.tr.timed(req, 0, name, func(int64) {
		for _, qa := range qas {
			var e core.Execution
			if optimized {
				e = b.RunOptimized(qa)
			} else {
				e = b.RunBasic(qa)
			}
			steps += e.NumExecs()
			s := e.SubOpt()
			if s > worst {
				worst = s
			}
			if !e.Completed {
				errs = append(errs, fmt.Sprintf("%s at %v did not complete", name, qa))
			}
			if !optimized && s > bound {
				errs = append(errs, fmt.Sprintf("basic SubOpt %g at %v exceeds BoundMSO %g", s, qa, bound))
			}
		}
	})
	p.tr.count(name+".calls", float64(len(qas)))
	p.tr.count("core.sim_steps", float64(steps))
	p.maxOf("sim_subopt_max", worst)
	return worst, errs
}

func (w *paperGrid) round(p *pass) error {
	var roundErr error
	p.clock(func() (waited time.Duration) {
		for _, gs := range w.spaces {
			req := p.tr.newReq()
			start := time.Now()
			var errs []string
			var dense, focused *core.Bouquet
			var err error
			denseWall := p.tr.timed(req, 0, "core.compile_dense", func(int64) {
				dense, err = core.Compile(newOptimizer(gs.w.Query), gs.w.Space, core.CompileOptions{Lambda: lambda})
			})
			if err == nil {
				focusedWall := p.tr.timed(req, 0, "core.compile_focused", func(int64) {
					focused, err = core.Compile(newOptimizer(gs.w.Query), gs.w.Space, core.CompileOptions{Lambda: lambda, Focused: true})
				})
				p.sample("dense."+gs.w.Name, denseWall)
				p.sample("focused."+gs.w.Name, focusedWall)
			}
			if err != nil {
				roundErr = fmt.Errorf("compile %s: %w", gs.w.Name, err)
				return waited
			}
			for _, b := range []*core.Bouquet{dense, focused} {
				if verr := b.Validate(); verr != nil {
					errs = append(errs, verr.Error())
				}
			}
			_, e1 := sweep(p, req, dense, gs.seeded, false)
			_, e2 := sweep(p, req, dense, gs.seeded, true)
			_, e3 := sweep(p, req, dense, gs.lattice, false)
			errs = append(append(append(errs, e1...), e2...), e3...)
			// Quality, on the lattice: the worst the optimized driver does
			// with either generator's bouquet. A focused generator that
			// loses plans shows here.
			for _, g := range []struct {
				gen string
				b   *core.Bouquet
			}{{"dense", dense}, {"focused", focused}} {
				worst, e := sweep(p, req, g.b, gs.lattice, true)
				errs = append(errs, e...)
				p.maxOf("mso."+g.gen+"."+gs.w.Name, worst)
			}
			took := time.Since(start)
			p.sample("op", took)
			p.op(gs.w.Name, errs)
			waited += took
		}
		return waited
	})
	if roundErr != nil || p.tr == nil {
		return roundErr
	}
	// Layer probes: the staged compile, the serial generation, and the
	// focused generator called directly so its call count is visible.
	for i, gs := range w.spaces {
		req := p.tr.newReq()
		if err := probeStages(p, req, gs.w.Query, gs.w.Space, (i+p.rounds)%2 == 0); err != nil {
			return err
		}
		var opt *optimizer.Optimizer
		p.tr.timed(req, 0, "optimizer.new", func(int64) { opt = newOptimizer(gs.w.Query) })
		var stats contour.FocusStats
		var err error
		p.tr.timed(req, 0, "contour.focused", func(int64) {
			var ladder contour.Ladder
			ladder, err = contour.LadderForSpace(opt, gs.w.Space, ladderRatio)
			if err == nil {
				_, stats = contour.Focused(opt, gs.w.Space, ladder)
			}
		})
		if err != nil {
			return fmt.Errorf("focused probe for %s: %w", gs.w.Name, err)
		}
		p.tr.count("contour.focused_calls", float64(stats.OptimizerCalls))
		p.tr.count("contour.focused_points", float64(stats.GridPoints))
	}
	return nil
}

func (w *paperGrid) endToEnd(p *pass) []metric {
	var msos []float64
	var names []string
	for _, gs := range w.spaces {
		names = append(names, gs.w.Name)
		msos = append(msos, p.maxes["mso.dense."+gs.w.Name], p.maxes["mso.focused."+gs.w.Name])
	}
	return []metric{
		{Name: "grid_eval_s", Unit: "s", Value: median(p.roundWall), N: len(p.roundWall)},
		// Focused compile over dense compile of the same space: what focused
		// generation costs (above 1) or saves (below 1).
		{Name: "wall_ratio_gmean", Unit: "ratio", Value: wallRatioGmean(p, names, "focused.", "dense."), N: len(names)},
		{Name: "mso_gmean", Unit: "ratio", Value: gmean(msos), N: len(msos)},
	}
}

func (w *paperGrid) perLayer(p *pass, ly layerIndex) []metric {
	out := compileLayerMetrics(p, ly)
	out = append(out, simLayerMetrics(p, ly)...)
	calls := p.tr.counter("contour.focused_calls")
	return append(out,
		metric{Name: "contour.focused_ms", Value: ly.ms("contour.focused"), N: ly["contour.focused"].Calls},
		metric{Name: "contour.focused_calls", Value: calls},
		metric{Name: "contour.focused_savings", Value: ratio(p.tr.counter("contour.focused_points"), calls)},
	)
}
