package topi

import "sync"

// scratchPool recycles kernel-internal scratch buffers of one element type
// (operands widened to (raw − zero point) k-pairs; a fused quantized
// launch's int32 sums; a reduction's float64 sums).
// Output buffers are arena-planned by the executor, but scratch is shaped
// per (kernel, chunk) and so is pooled here instead — keeping the planned
// executor's steady state free of per-run heap allocation. Pooling
// pointers-to-slices avoids boxing a fresh slice header on every Put. What
// a launch derives from its types alone — a convolution's or dense layer's
// indirection table and zero row — is not scratch: it is prepared once per
// launch (indirectTable) and never pooled.
type scratchPool[T any] struct{ pool sync.Pool }

var (
	scratchF64   scratchPool[float64]
	scratchI32   scratchPool[int32]
	scratchPairs scratchPool[i16x2]
)

// get returns a length-n scratch slice with unspecified contents. Return it
// with put when done.
func (s *scratchPool[T]) get(n int) *[]T {
	p, _ := s.pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

func (s *scratchPool[T]) put(p *[]T) { s.pool.Put(p) }
