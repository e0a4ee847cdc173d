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
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/panicdoc"
	"repro/internal/analysis/pkgdoc"
	"repro/internal/analysis/printless"
)

// All returns the full bouquetvet suite in diagnostic-name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		errflow.Analyzer,
		floatcmp.Analyzer,
		maporder.Analyzer,
		panicdoc.Analyzer,
		pkgdoc.Analyzer,
		printless.Analyzer,
	}
}
