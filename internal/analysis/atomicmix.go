package analysis

import "go/types"

// atomicmix reports calls to sync/atomic's package-level functions
// (AddInt64, LoadPointer, CompareAndSwapUint64, …).
//
// The program holds all of its atomic state in typed atomics (atomic.Int64,
// atomic.Pointer[T], …), and a plain access to a typed atomic does not
// compile. The address-taking functions are the one way left to read a
// location plainly in one place and update it atomically in another, so
// forbidding them rules out the mix. Copying a typed atomic is go vet's
// copylocks check (make vet); a plain field written beside a lock-free
// update is the race targets' (make race-serving).
func atomicmix(pass *Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(id.Pos(), "atomic.%s works on plain memory; hold the state in a typed atomic (atomic.Int64, atomic.Pointer[T], …)", fn.Name())
		}
	}
	return nil
}
