// Package atomicmix reports calls to sync/atomic's package-level functions
// (AddInt64, LoadPointer, CompareAndSwapUint64, …) in non-test code.
//
// The program holds all of its atomic state in typed atomics (atomic.Int64,
// atomic.Pointer[T], …), and a plain access to a typed atomic does not
// compile. The address-taking functions are the one way left to read a
// location plainly in one place and update it atomically in another, so
// forbidding them rules out the mix. Copying a typed atomic is go vet's
// copylocks check (make vet); a plain field written beside a lock-free
// update is the race targets' (make race-serving).
package atomicmix

import (
	"go/types"

	"repro/internal/analysis"
)

// Analyzer implements the atomicmix invariant.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "report calls to sync/atomic's package-level functions; atomic state lives in typed atomics",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || pass.InTestFile(id.Pos()) {
			continue
		}
		if fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(id.Pos(), "atomic.%s works on plain memory; hold the state in a typed atomic (atomic.Int64, atomic.Pointer[T], …)", fn.Name())
		}
	}
	return nil
}
