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
// broadcast, and lower-rank operands. The rows after them are large enough to
// split over two workers, into chunks (a launch cuts four a worker, of
// ceil(n/8) elements) that end inside a row of the channel vector: 2115 of
// 16 920 elements is 3 past a row of 8, 2697 of 21 576 is 9 past a row of
// 12, 2185 of 17 480 is 25 past a row of 40 (a vector too long to be
// repeated), and 2136 of 17 081 is 24 past the 64 a scalar is repeated to.
// The last rows alternate, axis after axis, which operand repeats, so no two
// axes merge: nine axes and twelve, more than a broadcaster's fixed table
// holds, the twelve-axis pair walking rows of 4 against a repeated row, and
// 19 683 elements split into chunks of 2461, 1 past a row of 3.
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
	{tensor.Shape{2, 40, 40, 16}, tensor.Shape{16}},
	{tensor.Shape{1, 45, 47, 8}, tensor.Shape{8}},
	{tensor.Shape{2, 31, 29, 12}, tensor.Shape{1, 1, 1, 12}},
	{tensor.Shape{2, 31, 29, 12}, tensor.Shape{2, 31, 29, 12}},
	{tensor.Shape{2, 31, 29, 12}, tensor.Shape{31, 1, 12}},
	{tensor.Shape{1, 23, 19, 40}, tensor.Shape{40}},
	{tensor.Shape{1, 31, 29, 19}, tensor.Shape{}},
	{tensor.Shape{2, 1, 2, 1, 2, 1, 2, 1, 2}, tensor.Shape{1, 2, 1, 2, 1, 2, 1, 2, 1}},
	{tensor.Shape{2, 1, 3, 1, 2, 1, 2, 1, 2, 1, 2, 4}, tensor.Shape{2, 1, 3, 1, 2, 1, 2, 1, 2, 1, 4}},
	{tensor.Shape{3, 1, 3, 1, 3, 1, 3, 1, 3}, tensor.Shape{1, 3, 1, 3, 1, 3, 1, 3, 1}},
}

// binaryRefs are the six binary float kernels as plain functions.
var binaryRefs = map[string]func(a, b float32) float32{
	"add":      func(a, b float32) float32 { return a + b },
	"subtract": func(a, b float32) float32 { return a - b },
	"multiply": func(a, b float32) float32 { return a * b },
	"divide":   func(a, b float32) float32 { return a / b },
	"maximum": func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	},
	"minimum": func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	},
}

// broadcastIndices is the reference broadcast: for each element of an
// output of shape out, its multi-index, and each operand's flat index at it,
// the operand right-aligned and read at 0 along an axis of extent one.
func broadcastIndices(as, bs, out tensor.Shape) (ia, ib []int) {
	ia, ib = make([]int, out.Elems()), make([]int, out.Elems())
	idx := make([]int, len(out))
	offset := func(s tensor.Shape) int {
		off := 0
		for j, d := range s {
			if d != 1 {
				off = off*d + idx[len(idx)-len(s)+j]
			}
		}
		return off
	}
	for i := range ia {
		rem := i
		for ax := len(out) - 1; ax >= 0; ax-- {
			idx[ax] = rem % out[ax]
			rem /= out[ax]
		}
		ia[i], ib[i] = offset(as), offset(bs)
	}
	return ia, ib
}

// binaryPerElement is the reference the binary kernels are pinned against:
// f of the two operands' elements at each output element's broadcast
// indices.
func binaryPerElement(f func(a, b float32) float32, a, b *tensor.Tensor, out tensor.Shape) []float32 {
	ia, ib := broadcastIndices(a.Shape, b.Shape, out)
	dst := make([]float32, out.Elems())
	for i := range dst {
		dst[i] = f(a.F32()[ia[i]], b.F32()[ib[i]])
	}
	return dst
}

// TestBroadcastRunsMatchPerElement pins every binary float kernel — rows
// both operands advance along, and rows against a channel vector, a scalar
// or a middle axis repeating in either operand position — against the
// per-element loop, on every bit, over operands mixing in NaN, ±Inf, −0 and
// denormals, serially and split over two workers.
func TestBroadcastRunsMatchPerElement(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	rng := rand.New(rand.NewSource(67))
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
			for name, f := range binaryRefs {
				t.Run(fmt.Sprintf("%s/%v_%v", name, as, bs), func(t *testing.T) {
					want := binaryPerElement(f, a, b, out)
					for _, workers := range []int{1, 2} {
						parallel.SetMaxWorkers(workers)
						got, err := Run(name, []*tensor.Tensor{a, b}, nil, &relay.TensorType{Shape: out, DType: tensor.Float32})
						if err != nil {
							t.Fatal(err)
						}
						if i, ok := sameF32Bits(got.F32(), want); !ok {
							t.Fatalf("%d workers: out[%d] = %v (%#08x), per-element %v (%#08x)", workers, i,
								got.F32()[i], math.Float32bits(got.F32()[i]), want[i], math.Float32bits(want[i]))
						}
					}
				})
			}
		}
	}
}

// TestQnnAddBroadcastMatchesPerElement pins qnn.add, which maps each output
// element to its operands through the same broadcaster, against qnn.add's
// arithmetic at the reference broadcast indices, on every broadcastCases
// pair in both operand orders, serially and split over two workers.
func TestQnnAddBroadcastMatchesPerElement(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	rng := rand.New(rand.NewSource(89))
	attrs := relay.Attrs{
		"lhs_scale": 0.07, "lhs_zero_point": 121,
		"rhs_scale": 0.13, "rhs_zero_point": 3,
		"output_scale": 0.11, "output_zero_point": 97,
	}
	draw := func(s tensor.Shape) *tensor.Tensor {
		x := tensor.New(tensor.UInt8, s)
		for i := range x.U8() {
			x.U8()[i] = uint8(rng.Intn(256))
		}
		return x
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
			a, b := draw(as), draw(bs)
			ia, ib := broadcastIndices(as, bs, out)
			want := make([]uint8, out.Elems())
			for i := range want {
				real := float64(0.07*float64(int32(a.U8()[ia[i]])-121)) + float64(0.13*float64(int32(b.U8()[ib[i]])-3))
				want[i] = uint8(clampToDType(roundHalfAwayF(real/0.11)+97, tensor.UInt8))
			}
			for _, workers := range []int{1, 2} {
				parallel.SetMaxWorkers(workers)
				got, err := Run("qnn.add", []*tensor.Tensor{a, b}, attrs, &relay.TensorType{Shape: out, DType: tensor.UInt8})
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got.U8() {
					if v != want[i] {
						t.Fatalf("%v + %v, %d workers: out[%d] = %d, per-element %d", as, bs, workers, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestBroadcastMultiplyAllocations pins a per-channel multiply into a planned
// destination, the shape of an NHWC model's batch-norm scale, at zero
// allocations a launch, serially and split over two workers (it made seven
// while the broadcaster and its stride tables were built per launch).
func TestBroadcastMultiplyAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes what escapes")
	}
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	rng := rand.New(rand.NewSource(71))
	for _, bs := range []tensor.Shape{{16}, {1, 32, 1, 16}} {
		args := []*tensor.Tensor{drawF32(rng, tensor.Shape{1, 32, 32, 16}), drawF32(rng, bs)}
		outTy := &relay.TensorType{Shape: args[0].Shape, DType: tensor.Float32}
		dst := tensor.New(tensor.Float32, outTy.Shape)
		for _, workers := range []int{1, 2} {
			parallel.SetMaxWorkers(workers)
			allocs := testing.AllocsPerRun(100, func() {
				if err := RunInto("multiply", args, nil, outTy, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > broadcastMultiplyAllocs {
				t.Errorf("multiply by %v at %d workers allocates %v times per launch, want at most %d", bs, workers, allocs, broadcastMultiplyAllocs)
			}
		}
	}
}

// broadcastMultiplyAllocs is the count TestBroadcastMultiplyAllocations
// allows: none, for a channel vector and a middle-axis operand alike.
const broadcastMultiplyAllocs = 0

// TestWidenSplitMatchesSerial pins the quantized convolution's data
// widening, a parallel launch over pixel vectors, against a serial
// per-element loop, at one and two workers, for both 8-bit types: pairs
// at vec = 3 (the detector's first convolution; odd, so each vector ends in
// a padded pair) and at vec = 16, and the int32 widening of the direct
// path. The split launch cuts ceil(vectors/8) vectors a chunk — 1 080 for
// the 97×89×3 image, 12 past a row of 89 pixels, and 144 for 37×31×16, 20
// past a row of 31 — so chunks end mid-row.
func TestWidenSplitMatchesSerial(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	rng := rand.New(rand.NewSource(79))
	for _, shape := range []tensor.Shape{{1, 97, 89, 3}, {1, 37, 31, 16}} {
		vec := shape[3]
		for _, dt := range []tensor.DType{tensor.UInt8, tensor.Int8} {
			x := tensor.New(dt, shape)
			for i := 0; i < x.Elems(); i++ {
				setRaw(x, i, int32(rng.Intn(256))-128*int32(rng.Intn(2)))
			}
			if dt == tensor.UInt8 {
				for i, v := range x.U8() {
					x.U8()[i] = v + 128
				}
			}
			zp := int32(rng.Intn(256)) - 128
			if dt == tensor.UInt8 {
				zp += 128
			}
			// The serial reference: one element at a time, each vector's
			// odd last value paired with a zero.
			vp := pairsOf(vec)
			wantI32 := make([]int32, x.Elems())
			for i := range wantI32 {
				wantI32[i] = x.GetRaw(i) - zp
			}
			wantPairs := make([]i16x2, x.Elems()/vec*vp)
			for i := range wantPairs {
				v, j := i/vp, i%vp
				lo, hi := wantI32[v*vec+2*j], int32(0)
				if 2*j+1 < vec {
					hi = wantI32[v*vec+2*j+1]
				}
				wantPairs[i] = pairOf(lo, hi)
			}
			for _, workers := range []int{1, 2} {
				parallel.SetMaxWorkers(workers)
				gotPairs := make([]i16x2, len(wantPairs))
				if err := rawMinusZpPairs(gotPairs, x, zp, vec); err != nil {
					t.Fatal(err)
				}
				for i := range wantPairs {
					if gotPairs[i] != wantPairs[i] {
						t.Fatalf("%s %v, %d workers: pair %d = %#x, serial %#x", dt, shape, workers, i, gotPairs[i], wantPairs[i])
					}
				}
				gotI32 := make([]int32, len(wantI32))
				if err := rawMinusZp(gotI32, x, zp); err != nil {
					t.Fatal(err)
				}
				for i := range wantI32 {
					if gotI32[i] != wantI32[i] {
						t.Fatalf("%s %v, %d workers: element %d = %d, serial %d", dt, shape, workers, i, gotI32[i], wantI32[i])
					}
				}
			}
		}
	}
}

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
