package tensor

import "math"

// RNG is a small deterministic xorshift64* generator. Model-zoo weight
// synthesis must be reproducible across runs and platforms, so we avoid
// math/rand (whose stream is not guaranteed stable across Go versions) and
// carry our own.
type RNG struct{ state uint64 }

// NewRNG seeds a generator; a zero seed is remapped to a fixed constant
// because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	// The conversion keeps a caller's add from fusing with the scaling.
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// Intn returns a uniform value in [0,n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns an approximately standard-normal value (Irwin–Hall sum of 12
// uniforms); adequate for synthetic weight initialization.
func (r *RNG) Norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// FillUniform fills t with uniform real-domain values in [lo,hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float64) {
	for i, n := 0, t.Elems(); i < n; i++ {
		t.SetF(i, lo+float64((hi-lo)*r.Float64()))
	}
}

// FillGlorot fills t with Glorot/Xavier-style values scaled by fan-in/out,
// the initialization the synthetic model zoo uses so activations stay in a
// sane numeric range through deep networks.
func (t *Tensor) FillGlorot(r *RNG, fanIn, fanOut int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	if fanOut <= 0 {
		fanOut = 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t.FillUniform(r, -limit, limit)
}
