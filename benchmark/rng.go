package main

// rng is a splitmix64 PRNG. Every generated input (SQL set, q_a samples,
// query order, request schedule) is drawn from one of these, so a seed
// reproduces its inputs byte for byte on any Go release — math/rand's
// stream has changed between releases before.
type rng struct{ state uint64 }

// newRNG derives an independent stream for one purpose (a small integer
// tag) from the benchmark seed.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{state: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float64 returns a value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes the first n indices through swap (Fisher-Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
