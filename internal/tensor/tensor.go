// Package tensor provides the dense n-dimensional array type shared by every
// layer of the stack: frontends deserialize weights into Tensors, the relay
// interpreter and TOPI kernels compute on them, and the Neuron runtime moves
// them between simulated devices.
//
// Layout convention: 4-D activation tensors are NHWC and 4-D convolution
// weights are OHWI (output, height, width, input), matching the tensor layout
// used by NNAPI-style mobile stacks such as NeuroPilot.
package tensor

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// DType enumerates the element types supported by the stack. These mirror the
// types exercised in the paper: float32 models and int8/uint8 quantized
// models (with int32 bias/accumulator tensors).
type DType uint8

const (
	Float32 DType = iota
	Int8
	UInt8
	Int32
)

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	case Int8, UInt8:
		return 1
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", d))
}

// IsQuantized reports whether the dtype is one of the 8-bit quantized types.
func (d DType) IsQuantized() bool { return d == Int8 || d == UInt8 }

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	case UInt8:
		return "uint8"
	case Int32:
		return "int32"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// ParseDType converts a dtype name (as used in serialized model formats) back
// to a DType.
func ParseDType(s string) (DType, error) {
	switch s {
	case "float32", "f32":
		return Float32, nil
	case "int8", "i8":
		return Int8, nil
	case "uint8", "u8":
		return UInt8, nil
	case "int32", "i32":
		return Int32, nil
	}
	return Float32, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Shape is a tensor shape. A nil/empty shape denotes a scalar.
type Shape []int

// Elems returns the total element count, 1 for scalars.
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Valid reports whether every extent is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// QuantParams holds affine per-tensor quantization parameters:
// real = scale * (q - zeroPoint). In relay QNN these live on operators; in
// Neuron IR (and hence across the BYOC boundary) they must be carried on
// every tensor — the mismatch §3.3 of the paper resolves.
type QuantParams struct {
	Scale     float64
	ZeroPoint int32
}

// Quantize maps a real value to the quantized domain (unclamped).
func (q QuantParams) Quantize(real float64) int32 {
	return int32(roundHalfAway(real/q.Scale)) + q.ZeroPoint
}

// Dequantize maps a quantized value back to the real domain. The result is
// an explicit conversion, so an inlined caller's add does not fuse with the
// multiply on a target with fused multiply-add.
func (q QuantParams) Dequantize(qv int32) float64 {
	return float64(q.Scale * float64(qv-q.ZeroPoint))
}

func roundHalfAway(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return float64(int64(x - 0.5))
}

// Tensor is a dense array of one of the supported dtypes. Exactly one of the
// backing slices is non-nil, selected by DType. Quant is non-nil only for
// quantized tensors.
type Tensor struct {
	DType DType
	Shape Shape
	Quant *QuantParams

	f32 []float32
	i8  []int8
	u8  []uint8
	i32 []int32

	// derived holds one value computed from this tensor's data (a weight's
	// packed GEMM panels), so it lives exactly as long as the tensor. Every
	// constructor, view and copy starts without one.
	derived atomic.Pointer[any]
}

// Derived returns the value attached by SetDerived, or nil.
func (t *Tensor) Derived() any {
	if p := t.derived.Load(); p != nil {
		if _, ok := (*p).(volatileMark); !ok {
			return *p
		}
	}
	return nil
}

// SetDerived attaches v to t unless a value is attached already. v must be
// a pure function of t's data, which must not change afterwards: concurrent
// callers may race to attach equal values, and the first one wins.
func (t *Tensor) SetDerived(v any) { t.derived.CompareAndSwap(nil, &v) }

// volatileMark fills the derived slot of a volatile tensor; volatile is the
// one value every volatile tensor shares.
type volatileMark struct{}

var volatile any = volatileMark{}

// MarkVolatile declares that t's data changes between uses — a buffer
// refilled for every request, an arena view, an input an executor binds —
// so nothing may be derived from it once and kept: from then on Derived
// returns nil and SetDerived attaches nothing, and a kernel that packs t (as
// a weight operand) packs it on every call. It does not allocate.
func (t *Tensor) MarkVolatile() { t.derived.Store(&volatile) }

// New allocates a zero-filled tensor.
func New(dt DType, shape Shape) *Tensor {
	t := &Tensor{DType: dt, Shape: shape.Clone()}
	n := shape.Elems()
	switch dt {
	case Float32:
		t.f32 = make([]float32, n)
	case Int8:
		t.i8 = make([]int8, n)
	case UInt8:
		t.u8 = make([]uint8, n)
	case Int32:
		t.i32 = make([]int32, n)
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", dt))
	}
	return t
}

// FromF32 wraps a float32 slice (not copied) as a tensor.
func FromF32(data []float32, shape Shape) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{DType: Float32, Shape: shape.Clone(), f32: data}
}

// FromI8 wraps an int8 slice as a quantized tensor.
func FromI8(data []int8, shape Shape, q QuantParams) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{DType: Int8, Shape: shape.Clone(), f32: nil, i8: data, Quant: &q}
}

// FromU8 wraps a uint8 slice as a quantized tensor.
func FromU8(data []uint8, shape Shape, q QuantParams) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{DType: UInt8, Shape: shape.Clone(), u8: data, Quant: &q}
}

// FromI32 wraps an int32 slice as a tensor (used for quantized biases).
func FromI32(data []int32, shape Shape) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{DType: Int32, Shape: shape.Clone(), i32: data}
}

// Scalar returns a rank-0 float32 tensor holding v.
func Scalar(v float32) *Tensor { return FromF32([]float32{v}, Shape{}) }

// F32 returns the float32 backing slice; panics on dtype mismatch.
func (t *Tensor) F32() []float32 {
	if t.DType != Float32 {
		panic("tensor: F32() on " + t.DType.String())
	}
	return t.f32
}

// I8 returns the int8 backing slice; panics on dtype mismatch.
func (t *Tensor) I8() []int8 {
	if t.DType != Int8 {
		panic("tensor: I8() on " + t.DType.String())
	}
	return t.i8
}

// U8 returns the uint8 backing slice; panics on dtype mismatch.
func (t *Tensor) U8() []uint8 {
	if t.DType != UInt8 {
		panic("tensor: U8() on " + t.DType.String())
	}
	return t.u8
}

// I32 returns the int32 backing slice; panics on dtype mismatch.
func (t *Tensor) I32() []int32 {
	if t.DType != Int32 {
		panic("tensor: I32() on " + t.DType.String())
	}
	return t.i32
}

// Elems returns the element count.
func (t *Tensor) Elems() int { return t.Shape.Elems() }

// Bytes returns the backing-store size in bytes; used by the SoC cost model
// to charge memory traffic.
func (t *Tensor) Bytes() int { return t.Elems() * t.DType.Size() }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{DType: t.DType, Shape: t.Shape.Clone()}
	if t.Quant != nil {
		q := *t.Quant
		c.Quant = &q
	}
	switch t.DType {
	case Float32:
		c.f32 = append([]float32(nil), t.f32...)
	case Int8:
		c.i8 = append([]int8(nil), t.i8...)
	case UInt8:
		c.u8 = append([]uint8(nil), t.u8...)
	case Int32:
		c.i32 = append([]int32(nil), t.i32...)
	}
	return c
}

// Reshape returns a view with a new shape sharing the backing store.
// The element count must match.
func (t *Tensor) Reshape(shape Shape) *Tensor {
	if shape.Elems() != t.Elems() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.Shape, shape))
	}
	return &Tensor{DType: t.DType, Shape: shape.Clone(), Quant: t.Quant,
		f32: t.f32, i8: t.i8, u8: t.u8, i32: t.i32}
}

// GetF returns element i as a float64 in the *real* domain: quantized
// tensors are dequantized through their QuantParams. This is the accessor
// used by accuracy checks that compare quantized against float execution.
func (t *Tensor) GetF(i int) float64 {
	switch t.DType {
	case Float32:
		return float64(t.f32[i])
	case Int8:
		v := int32(t.i8[i])
		if t.Quant != nil {
			return t.Quant.Dequantize(v)
		}
		return float64(v)
	case UInt8:
		v := int32(t.u8[i])
		if t.Quant != nil {
			return t.Quant.Dequantize(v)
		}
		return float64(v)
	case Int32:
		return float64(t.i32[i])
	}
	panic("tensor: unknown dtype")
}

// GetRaw returns element i in the quantized/storage domain without
// dequantization.
func (t *Tensor) GetRaw(i int) int32 {
	switch t.DType {
	case Int8:
		return int32(t.i8[i])
	case UInt8:
		return int32(t.u8[i])
	case Int32:
		return t.i32[i]
	case Float32:
		return int32(t.f32[i])
	}
	panic("tensor: unknown dtype")
}

// SetF stores a real-domain value into element i, quantizing if needed.
func (t *Tensor) SetF(i int, v float64) {
	switch t.DType {
	case Float32:
		t.f32[i] = float32(v)
	case Int8:
		q := int32(v)
		if t.Quant != nil {
			q = t.Quant.Quantize(v)
		}
		t.i8[i] = int8(clampI32(q, -128, 127))
	case UInt8:
		q := int32(v)
		if t.Quant != nil {
			q = t.Quant.Quantize(v)
		}
		t.u8[i] = uint8(clampI32(q, 0, 255))
	case Int32:
		t.i32[i] = int32(v)
	}
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Index computes the flat offset of a row-major multi-index. The panic
// message formats a copy of idx: handing idx itself to fmt would make it
// escape, and every At/Set call in the repository would heap-allocate its
// index list.
//
//np:hotpath
func (t *Tensor) Index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, d := range t.Shape {
		if idx[i] < 0 || idx[i] >= d {
			//np:alloc-ok panic branch only; the copy is what keeps idx on the caller's stack
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", append([]int(nil), idx...), t.Shape))
		}
		off = off*d + idx[i]
	}
	return off
}

// At returns the real-domain value at a multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.GetF(t.Index(idx...)) }

// Set stores a real-domain value at a multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.SetF(t.Index(idx...), v) }

// Fill sets every element to the real-domain value v.
func (t *Tensor) Fill(v float64) {
	for i, n := 0, t.Elems(); i < n; i++ {
		t.SetF(i, v)
	}
}

// ToFloat32 converts (dequantizing if needed) to a float32 tensor.
func (t *Tensor) ToFloat32() *Tensor {
	if t.DType == Float32 {
		return t
	}
	out := New(Float32, t.Shape)
	for i, n := 0, t.Elems(); i < n; i++ {
		out.f32[i] = float32(t.GetF(i))
	}
	return out
}

// QuantizeTo converts a float32 tensor into the given quantized dtype using
// params q.
func (t *Tensor) QuantizeTo(dt DType, q QuantParams) *Tensor {
	if !dt.IsQuantized() {
		panic("tensor: QuantizeTo requires a quantized dtype")
	}
	out := New(dt, t.Shape)
	out.Quant = &q
	out.QuantizeFrom(t.ToFloat32().f32)
	return out
}

// QuantizeFrom overwrites the first len(src) elements of the quantized
// tensor t with src quantized by t's parameters: element i gets exactly what
// SetF(i, float64(src[i])) would store, in one typed loop instead of a dtype
// switch per element.
func (t *Tensor) QuantizeFrom(src []float32) { t.QuantizeFromAt(0, src) }

// QuantizeFromAt is QuantizeFrom into elements [off, off+len(src)) of t:
// disjoint ranges may be quantized concurrently.
func (t *Tensor) QuantizeFromAt(off int, src []float32) { quantizeTensor(t, off, src) }

// QuantizeFromF64 is QuantizeFrom of src's values each narrowed to float32:
// element i gets exactly what QuantizeFrom stores for float32(src[i]),
// without a float32 copy of src.
func (t *Tensor) QuantizeFromF64(src []float64) { quantizeTensor(t, 0, src) }

func quantizeTensor[S float32 | float64](t *Tensor, off int, src []S) {
	if !t.DType.IsQuantized() || t.Quant == nil {
		panic("tensor: QuantizeFrom requires a quantized tensor with quant params")
	}
	switch t.DType {
	case UInt8:
		quantizeInto(t.u8[off:off+len(src)], src, *t.Quant, 0, 255)
	case Int8:
		quantizeInto(t.i8[off:off+len(src)], src, *t.Quant, -128, 127)
	}
}

// quantizeInto narrows each source value to float32 (a no-op for a float32
// source) and quantizes it.
//
//np:hotpath
func quantizeInto[T uint8 | int8, S float32 | float64](dst []T, src []S, q QuantParams, lo, hi int32) {
	for i, v := range src {
		dst[i] = T(clampI32(q.Quantize(float64(float32(v))), lo, hi))
	}
}

func (t *Tensor) String() string {
	q := ""
	if t.Quant != nil {
		q = fmt.Sprintf(" q(scale=%g,zp=%d)", t.Quant.Scale, t.Quant.ZeroPoint)
	}
	return fmt.Sprintf("Tensor[%s %s%s]", t.DType, t.Shape, q)
}

// AllClose reports whether two tensors have equal shape and element-wise
// real-domain values within atol + rtol*|b|.
func AllClose(a, b *Tensor, atol, rtol float64) bool {
	if !a.Shape.Equal(b.Shape) {
		return false
	}
	for i, n := 0, a.Elems(); i < n; i++ {
		av, bv := a.GetF(i), b.GetF(i)
		d := av - bv
		if d < 0 {
			d = -d
		}
		bb := bv
		if bb < 0 {
			bb = -bb
		}
		if d > atol+float64(rtol*bb) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum element-wise absolute difference in the
// real domain; useful for accuracy reporting in tests and EXPERIMENTS.md.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.Shape.Equal(b.Shape) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i, n := 0, a.Elems(); i < n; i++ {
		d := a.GetF(i) - b.GetF(i)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// ArgMax returns the flat index of the maximum real-domain element.
func (t *Tensor) ArgMax() int {
	best, bestV := 0, t.GetF(0)
	for i, n := 1, t.Elems(); i < n; i++ {
		if v := t.GetF(i); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
