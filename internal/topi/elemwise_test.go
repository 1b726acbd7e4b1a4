package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// broadcastCases are broadcasting operand pairs of every output rank 1–4: a
// scalar, a channel vector, a middle axis, a leading axis, both operands
// broadcast, and lower-rank operands.
var broadcastCases = []struct{ a, b tensor.Shape }{
	{tensor.Shape{7}, tensor.Shape{1}},
	{tensor.Shape{7}, tensor.Shape{}},
	{tensor.Shape{5, 6}, tensor.Shape{6}},
	{tensor.Shape{5, 6}, tensor.Shape{5, 1}},
	{tensor.Shape{1, 6}, tensor.Shape{5, 1}},
	{tensor.Shape{3, 4, 5}, tensor.Shape{5}},
	{tensor.Shape{3, 4, 5}, tensor.Shape{4, 1}},
	{tensor.Shape{3, 1, 5}, tensor.Shape{3, 4, 1}},
	{tensor.Shape{2, 7, 9, 8}, tensor.Shape{8}},
	{tensor.Shape{2, 7, 9, 8}, tensor.Shape{1, 1, 1, 1}},
	{tensor.Shape{2, 7, 9, 8}, tensor.Shape{7, 1, 1}},
	{tensor.Shape{2, 1, 9, 1}, tensor.Shape{1, 7, 1, 8}},
	{tensor.Shape{1, 1, 1, 8}, tensor.Shape{2, 7, 9, 8}},
	{tensor.Shape{2, 40, 40, 16}, tensor.Shape{16}}, // past elemGrain: parallel chunks end mid-run
}

// binaryPerElement is the broadcast loop binaryF32 ran before it walked
// innermost runs: one index computation per element.
func binaryPerElement(f func(a, b float32) float32, a, b *tensor.Tensor, out tensor.Shape) []float32 {
	bc := newBroadcaster(a.Shape, b.Shape, out)
	dst := make([]float32, out.Elems())
	for i := range dst {
		ia, ib := bc.index(i)
		dst[i] = f(a.F32()[ia], b.F32()[ib])
	}
	return dst
}

// TestBroadcastRunsMatchPerElement pins the run-wise broadcast of every
// binary float kernel against the per-element loop, on every bit, over
// operands mixing in NaN, ±Inf, −0 and denormals.
func TestBroadcastRunsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ops := map[string]func(a, b float32) float32{
		"add":      func(a, b float32) float32 { return a + b },
		"subtract": func(a, b float32) float32 { return a - b },
		"multiply": func(a, b float32) float32 { return a * b },
		"divide":   func(a, b float32) float32 { return a / b },
	}
	for _, bc := range broadcastCases {
		for _, swap := range []bool{false, true} {
			as, bs := bc.a, bc.b
			if swap {
				as, bs = bs, as
			}
			out, err := relay.BroadcastShapes(as, bs)
			if err != nil {
				t.Fatal(err)
			}
			a, b := drawF32(rng, as), drawF32(rng, bs)
			for name, f := range ops {
				t.Run(fmt.Sprintf("%s/%v_%v", name, as, bs), func(t *testing.T) {
					got, err := Run(name, []*tensor.Tensor{a, b}, nil, &relay.TensorType{Shape: out, DType: tensor.Float32})
					if err != nil {
						t.Fatal(err)
					}
					want := binaryPerElement(f, a, b, out)
					if i, ok := sameF32Bits(got.F32(), want); !ok {
						t.Fatalf("out[%d] = %v (%#08x), per-element %v (%#08x)", i,
							got.F32()[i], math.Float32bits(got.F32()[i]), want[i], math.Float32bits(want[i]))
					}
				})
			}
		}
	}
}

// TestBroadcastMultiplyAllocations bounds a broadcasting multiply into a
// planned destination at the allocations it made before the run-wise loop —
// the broadcaster and its stride tables, the chunk closure — on the serial
// path.
func TestBroadcastMultiplyAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes what escapes")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	a, b := drawF32(rand.New(rand.NewSource(71)), tensor.Shape{1, 12, 12, 16}), tensor.New(tensor.Float32, tensor.Shape{16})
	outTy := &relay.TensorType{Shape: a.Shape, DType: tensor.Float32}
	dst := tensor.New(tensor.Float32, a.Shape)
	allocs := testing.AllocsPerRun(100, func() {
		if err := RunInto("multiply", []*tensor.Tensor{a, b}, nil, outTy, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per launch", allocs)
	if allocs > broadcastMultiplyAllocs {
		t.Errorf("broadcasting multiply allocates %v times per launch, want at most %d", allocs, broadcastMultiplyAllocs)
	}
}

// broadcastMultiplyAllocs is the count TestBroadcastMultiplyAllocations
// measured on the per-element loop.
const broadcastMultiplyAllocs = 7

// concatPerElement is concatenateKernel's copy as it ran before it moved
// whole runs: one copyElem per element.
func concatPerElement(args []*tensor.Tensor, axis int, out *relay.TensorType) *tensor.Tensor {
	res := tensor.New(out.DType, out.Shape)
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= out.Shape[i]
	}
	for i := axis + 1; i < len(out.Shape); i++ {
		inner *= out.Shape[i]
	}
	axisOff := 0
	for _, t := range args {
		ax := t.Shape[axis]
		for o := 0; o < outer; o++ {
			for a := 0; a < ax; a++ {
				for i := 0; i < inner; i++ {
					copyElem(res, (o*out.Shape[axis]+axisOff+a)*inner+i, t, (o*ax+a)*inner+i)
				}
			}
		}
		axisOff += ax
	}
	return res
}

// TestConcatenateRunsMatchPerElement pins concatenate along every axis of
// ranks 1–4, for each dtype and for a mixed-dtype list (which keeps the
// per-element copy), against the per-element loop, raw value by raw value
// (float bits included).
func TestConcatenateRunsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	draw := func(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
		if dt == tensor.Float32 {
			return drawF32(rng, shape)
		}
		x := tensor.New(dt, shape)
		for i := 0; i < x.Elems(); i++ {
			setRaw(x, i, int32(rng.Intn(256))-128*int32(rng.Intn(2)))
		}
		return x
	}
	base := tensor.Shape{2, 3, 4, 5}
	for rank := 1; rank <= 4; rank++ {
		for axis := 0; axis < rank; axis++ {
			for _, dts := range [][]tensor.DType{
				{tensor.Float32, tensor.Float32, tensor.Float32},
				{tensor.UInt8, tensor.UInt8, tensor.UInt8},
				{tensor.Int8, tensor.Int8, tensor.Int8},
				{tensor.Int32, tensor.Int32, tensor.Int32},
				{tensor.Int32, tensor.UInt8, tensor.Int8},
			} {
				var args []*tensor.Tensor
				outShape := base[4-rank:].Clone()
				outShape[axis] = 0
				for j, dt := range dts {
					s := base[4-rank:].Clone()
					s[axis] = j + 1
					outShape[axis] += j + 1
					args = append(args, draw(dt, s))
				}
				out := &relay.TensorType{Shape: outShape, DType: dts[0]}
				// Odd axes are given counted from the end.
				got, err := concatenateKernel(args, relay.Attrs{"axis": axis - rank*(axis%2)}, out, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := concatPerElement(args, axis, out)
				if dts[0] == tensor.Float32 {
					if i, ok := sameF32Bits(got.F32(), want.F32()); !ok {
						t.Fatalf("rank %d axis %d %v: out[%d] = %v, per-element %v", rank, axis, dts, i, got.F32()[i], want.F32()[i])
					}
					continue
				}
				for i := 0; i < want.Elems(); i++ {
					if got.GetRaw(i) != want.GetRaw(i) {
						t.Fatalf("rank %d axis %d %v: out[%d] = %d, per-element %d", rank, axis, dts, i, got.GetRaw(i), want.GetRaw(i))
					}
				}
			}
		}
	}
}
