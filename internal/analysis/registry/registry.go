// Package registry enumerates the bouquetvet analyzer suite: one
// analyzer per paper invariant. Drivers (cmd/bouquetvet, tests) consume
// the suite through All so the set cannot drift between entry points.
package registry

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/goleak"
	"repro/internal/analysis/infguard"
	"repro/internal/analysis/lockheld"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/panicdoc"
	"repro/internal/analysis/pkgdoc"
	"repro/internal/analysis/poollife"
	"repro/internal/analysis/printless"
	"repro/internal/analysis/seededrand"
	"repro/internal/analysis/selbounds"
	"repro/internal/analysis/unitflow"
)

// All returns the full bouquetvet suite in diagnostic-name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		errflow.Analyzer,
		floatcmp.Analyzer,
		goleak.Analyzer,
		infguard.Analyzer,
		lockheld.Analyzer,
		maporder.Analyzer,
		panicdoc.Analyzer,
		pkgdoc.Analyzer,
		poollife.Analyzer,
		printless.Analyzer,
		seededrand.Analyzer,
		selbounds.Analyzer,
		unitflow.Analyzer,
	}
}
