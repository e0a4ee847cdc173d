// Package a is the atomicmix fixture: a counter updated through a
// package-level sync/atomic function is reported; typed atomics, their
// methods and a suppressed call are not.
package a

import "sync/atomic"

var hits int64

func bump() {
	atomic.AddInt64(&hits, 1) // want `atomic.AddInt64 works on plain memory; hold the state in a typed atomic`
}

// gauge holds its state in typed atomics: a plain access to n or last
// does not compile, so there is nothing to mix.
type gauge struct {
	n    atomic.Int64
	last atomic.Pointer[string]
}

func (g *gauge) add(d int64, label string) int64 {
	g.last.Store(&label)
	return g.n.Add(d)
}

func (g *gauge) swapped(old, new int64) bool {
	return g.n.CompareAndSwap(old, new)
}

var legacy uint32

func suppressed() uint32 {
	//bouquet:allow atomicmix: fixture for the suppression path
	return atomic.LoadUint32(&legacy)
}
