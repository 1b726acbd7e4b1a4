package tensor

import "fmt"

// Arena is a preallocated pool of storage buffers that the planned graph
// executor's static memory planner hands out to intermediate tensors. Each
// storage is one flat buffer of a fixed dtype and element count; value slots
// bind to a storage through View, which shares the backing store but carries
// the slot's own shape and quantization parameters. Because the planner
// assigns storages by liveness, two views of the same storage are never live
// at the same time, and the arena is allocated once per executor instance —
// steady-state inference performs no heap allocation for intermediates.
type Arena struct {
	storages []*Tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Add allocates one storage buffer and returns its id.
func (a *Arena) Add(dt DType, elems int) int {
	a.storages = append(a.storages, New(dt, Shape{elems}))
	return len(a.storages) - 1
}

// Storages returns the number of allocated storage buffers.
func (a *Arena) Storages() int { return len(a.storages) }

// Bytes returns the total allocated arena size.
func (a *Arena) Bytes() int {
	n := 0
	for _, s := range a.storages {
		n += s.Bytes()
	}
	return n
}

// View binds a tensor of the given shape (and optional quantization params)
// to storage id. The dtype and element count must match the storage exactly;
// the memory planner only coalesces identically-sized slots.
func (a *Arena) View(id int, dt DType, shape Shape, q *QuantParams) (*Tensor, error) {
	if id < 0 || id >= len(a.storages) {
		return nil, fmt.Errorf("tensor: arena view of storage %d, arena has %d", id, len(a.storages))
	}
	s := a.storages[id]
	if s.DType != dt {
		return nil, fmt.Errorf("tensor: arena storage %d is %s, view wants %s", id, s.DType, dt)
	}
	if s.Elems() != shape.Elems() {
		return nil, fmt.Errorf("tensor: arena storage %d holds %d elems, view wants %s", id, s.Elems(), shape)
	}
	v := s.Reshape(shape)
	if q != nil {
		qq := *q
		v.Quant = &qq
	} else {
		v.Quant = nil
	}
	// The storage is rewritten by every value planned onto it: a kernel must
	// not keep what it derives from one of them (a weight's packed panels).
	v.MarkVolatile()
	return v, nil
}

// Zero clears every element to raw zero. Kernels that rely on zero-initialized
// output (padding regions, accumulate-into loops) call this before reusing a
// destination buffer.
func (t *Tensor) Zero() {
	switch t.DType {
	case Float32:
		clearF32(t.f32)
	case Int8:
		for i := range t.i8 {
			t.i8[i] = 0
		}
	case UInt8:
		for i := range t.u8 {
			t.u8[i] = 0
		}
	case Int32:
		for i := range t.i32 {
			t.i32[i] = 0
		}
	}
}

func clearF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// CopyFrom copies src's raw storage into t. The dtype and element count must
// match; shapes may differ (reshape-style kernels copy across shapes sharing
// a flat layout).
func (t *Tensor) CopyFrom(src *Tensor) error {
	if t.DType != src.DType {
		return fmt.Errorf("tensor: CopyFrom %s into %s", src.DType, t.DType)
	}
	if t.Elems() != src.Elems() {
		return fmt.Errorf("tensor: CopyFrom %d elems into %d", src.Elems(), t.Elems())
	}
	switch t.DType {
	case Float32:
		copy(t.f32, src.f32)
	case Int8:
		copy(t.i8, src.i8)
	case UInt8:
		copy(t.u8, src.u8)
	case Int32:
		copy(t.i32, src.i32)
	}
	return nil
}
