package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// convDirectRowPerCell is the direct row as it ran before depthwiseRow and
// the indirect tile: one accumulator per cell over ky, kx, ic ascending
// against the OHWI filter, whatever the geometry, taps in the padding
// skipped. depthwiseRow must equal it bit for bit, and it is the direct
// strategy the tests run on every other geometry (directConvF32,
// directConvQnn).
func convDirectRowPerCell[T float32 | int32](row, din, wt []T, g *convGeom, job int) {
	h, w, c := g.h, g.w, g.c
	oc, kh, kw, icg := g.oc, g.kh, g.kw, g.icg
	ocg := g.ocg()
	b, oy := job/g.oh, job%g.oh
	for ox := 0; ox < g.ow; ox++ {
		outBase := ox * oc
		for grp := 0; grp < g.groups; grp++ {
			for f := 0; f < ocg; f++ {
				o := grp*ocg + f
				var acc T
				for ky := 0; ky < kh; ky++ {
					iy := oy*g.sh - g.padT + ky*g.dh
					if iy < 0 || iy >= h {
						continue
					}
					x := din[(b*h+iy)*w*c+grp*icg:]
					k := wt[(o*kh+ky)*kw*icg:]
					for kx := 0; kx < kw; kx++ {
						ix := ox*g.sw - g.padL + kx*g.dw
						if ix < 0 || ix >= w {
							continue
						}
						xi, ki := ix*c, kx*icg
						for ic := 0; ic < icg; ic++ {
							acc += T(x[xi+ic] * k[ki+ic])
						}
					}
				}
				row[outBase+o] = acc
			}
		}
	}
}

// forced is a strategy rule that always answers im2col.
func forced(im2col bool) func(tensor.Shape, int) bool {
	return func(tensor.Shape, int) bool { return im2col }
}

// convF32 launches the float convolution of data and weight into dst (nil:
// a fresh output) by the given strategy, through a launch prepared for
// their types with the epilogue ep, its bias included.
func convF32(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, dst *tensor.Tensor, im2col bool, ep epilogueF32) *tensor.Tensor {
	args := []*tensor.Tensor{data, weight}
	c, err := newConvLaunchF32(typesOf(args), out, p, ep, forced(im2col))
	if err != nil {
		panic(err)
	}
	res, err := c.run(args, dst)
	if err != nil {
		panic(err)
	}
	return res
}

// convQnn is convF32 for the quantized convolution: ep nil is qnn.conv2d,
// else its epilogue with the bias bound.
func convQnn(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, dst *tensor.Tensor, im2col bool, ep *epilogue) (*tensor.Tensor, error) {
	args := []*tensor.Tensor{data, weight}
	c, err := newConvLaunchQnn(typesOf(args), out, p, zpIn, zpK, ep, forced(im2col))
	if err != nil {
		return nil, err
	}
	return c.run(args, dst)
}

// directConvF32 is the direct strategy on any geometry: convF32's own on a
// depthwise one, else perCellConvF32 — the loop nn.conv2d ran on every
// other shape until the indirect tile took them all.
func directConvF32(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, ep epilogueF32) *tensor.Tensor {
	if g := newConvGeom(p, data.Shape, weight.Shape, out.Shape); g.depthwise() {
		return convF32(data, weight, p, out, nil, false, ep)
	}
	return perCellConvF32(data, weight, p, out, ep)
}

// directConvQnn is directConvF32 for the quantized convolution.
func directConvQnn(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, ep *epilogue) (*tensor.Tensor, error) {
	if g := newConvGeom(p, data.Shape, weight.Shape, out.Shape); g.depthwise() {
		return convQnn(data, weight, p, zpIn, zpK, out, nil, false, ep)
	}
	return perCellConvQnn(data, weight, p, zpIn, zpK, out, ep)
}

// perCellConvF32 is convDirectRowPerCell over every output row of any
// geometry, each row then through the epilogue.
func perCellConvF32(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, ep epilogueF32) *tensor.Tensor {
	g := newConvGeom(p, data.Shape, weight.Shape, out.Shape)
	res := newOutput(out)
	for job := 0; job < data.Shape[0]*g.oh; job++ {
		row := res.F32()[job*g.rowLen() : (job+1)*g.rowLen()]
		convDirectRowPerCell(row, data.F32(), weight.F32(), &g, job)
		ep.apply(row)
	}
	return res
}

// rawMinusZpI32 is x's raw values minus zp, one int32 each: the operands
// of the per-cell and naive reference loops.
func rawMinusZpI32(x *tensor.Tensor, zp int32) []int32 {
	v := make([]int32, x.Elems())
	for i := range v {
		v[i] = x.GetRaw(i) - zp
	}
	return v
}

// perCellConvQnn is perCellConvF32 for the quantized convolution: operands
// widened to (raw − zero point) int32, each row's sums stored or, with an
// epilogue, narrowed through it.
func perCellConvQnn(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, ep *epilogue) (*tensor.Tensor, error) {
	if data.DType != tensor.UInt8 && data.DType != tensor.Int8 {
		return nil, fmt.Errorf("quantized kernel on %s tensor", data.DType)
	}
	g := newConvGeom(p, data.Shape, weight.Shape, out.Shape)
	din, wt := rawMinusZpI32(data, zpIn), rawMinusZpI32(weight, zpK)
	res := newOutput(out)
	row := make([]int32, g.rowLen())
	for job := 0; job < data.Shape[0]*g.oh; job++ {
		convDirectRowPerCell(row, din, wt, &g, job)
		if ep == nil {
			copy(res.I32()[job*g.rowLen():], row)
		} else {
			ep.apply(res, row, job*g.rowLen())
		}
	}
	return res, nil
}

// depthwiseCases are depthwise geometries beyond convCases' one: stride 2,
// dilation 2, asymmetric padding, a padding wider than the filter reach
// (rows and pixels with no tap at all), a batch of two.
var depthwiseCases = []convCase{
	{name: "3x3-s1", n: 1, h: 9, w: 8, c: 5, oc: 5, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 5, pad: samePad},
	{name: "3x3-s2", n: 2, h: 9, w: 10, c: 6, oc: 6, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 6, pad: samePad},
	{name: "3x3-d2", n: 1, h: 11, w: 9, c: 4, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 4, pad: [4]int{2, 2, 2, 2}},
	{name: "2x3-asym", n: 1, h: 7, w: 10, c: 3, oc: 3, kh: 2, kw: 3, sh: 2, sw: 1, dh: 1, dw: 1, groups: 3, pad: [4]int{0, 1, 2, 1}},
	{name: "3x3-wide-pad", n: 1, h: 4, w: 4, c: 7, oc: 7, kh: 3, kw: 3, sh: 1, sw: 3, dh: 1, dw: 2, groups: 7, pad: [4]int{4, 3, 4, 5}},
}

// TestDepthwiseRowMatchesPerCellLoop pins the float channel-vector
// depthwise row against the per-cell loop on every output row, data and
// filters mixing in NaN, ±Inf, −0 and denormals, compared on every bit, NaN
// payloads included: both loops run the same operations per cell.
func TestDepthwiseRowMatchesPerCellLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, cc := range append(depthwiseCases, convCaseNamed(t, "depthwise")) {
		t.Run(cc.name, func(t *testing.T) {
			g := convCaseGeom(cc)
			if !g.depthwise() {
				t.Fatalf("%s is not depthwise", cc.name)
			}
			din := drawF32(rng, tensor.Shape{cc.n, cc.h, cc.w, cc.c}).F32()
			wt := drawF32(rng, tensor.Shape{cc.oc, cc.kh, cc.kw, 1}).F32()
			taps := make([]float32, len(wt))
			tapMajor(taps, wt, g.oc, g.kh*g.kw)
			want, got := make([]float32, g.rowLen()), make([]float32, g.rowLen())
			for job := 0; job < cc.n*g.oh; job++ {
				for i := range got {
					got[i] = 7
				}
				convDirectRowPerCell(want, din, wt, &g, job)
				depthwiseRow(got, din, taps, &g, job)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("row %d cell %d: depthwise %v, per-cell %v", job, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// depthwiseQnnChannels are the channel counts TestDepthwiseRowQnnMatchesGo
// runs: one either side of each block the assembly body takes (8, 16, 32
// channels), the SSD's widest layer (64) and past it.
var depthwiseQnnChannels = []int{1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 72}

// TestDepthwiseRowQnnMatchesGo pins the quantized depthwise row — on an
// AVX2 host its vector body over the leading multiple of eight channels
// plus the Go tail (depthwiseRowQnn) — against its Go twin over every
// channel (depthwiseRowQnnGo) and against the per-cell loop over int32
// (raw − zp), on every output row: each channel count of
// depthwiseQnnChannels, filters 3×1 to 3×5, stride 1 and 2, dilation 2, and
// a padding that puts whole output rows and pixels past the image. Both
// 8-bit types, each at both extremes of each zero point with every raw
// value at the other end, so |raw − zp| = 255 on both operands at every
// tap, and at random values and zero points. Every cell is written.
func TestDepthwiseRowQnnMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	type operands struct {
		name        string
		dt          tensor.DType
		zpIn, zpK   int32
		rawIn, rawK int32 // the raw value of every element; −1000: random
		lo, hi      int32 // the dtype's range
	}
	var ops []operands
	for _, dt := range []struct {
		dt     tensor.DType
		lo, hi int32
	}{{tensor.UInt8, 0, 255}, {tensor.Int8, -128, 127}} {
		for _, zpIn := range []int32{dt.lo, dt.hi} {
			for _, zpK := range []int32{dt.lo, dt.hi} {
				ops = append(ops, operands{fmt.Sprintf("%s-zp%d,%d", dt.dt, zpIn, zpK), dt.dt, zpIn, zpK,
					dt.lo + dt.hi - zpIn, dt.lo + dt.hi - zpK, dt.lo, dt.hi})
			}
		}
		zpIn, zpK := dt.lo+int32(rng.Intn(256)), dt.lo+int32(rng.Intn(256))
		ops = append(ops, operands{fmt.Sprintf("%s-random", dt.dt), dt.dt, zpIn, zpK, -1000, -1000, dt.lo, dt.hi})
	}
	draw := func(op operands, shape tensor.Shape, raw int32) *tensor.Tensor {
		x := tensor.New(op.dt, shape)
		for i := 0; i < x.Elems(); i++ {
			v := raw
			if v == -1000 {
				v = op.lo + int32(rng.Intn(256))
			}
			setRaw(x, i, v)
		}
		return x
	}
	for _, c := range depthwiseQnnChannels {
		for kw := 1; kw <= 5; kw++ {
			for _, geo := range []struct {
				name string
				s, d int
				pad  [4]int
			}{
				{"s1", 1, 1, [4]int{1, kw / 2, 1, kw / 2}},
				{"s2", 2, 1, [4]int{0, 0, 1, 1}},
				{"d2", 1, 2, [4]int{2, kw - 1, 2, kw - 1}},
				{"padded-rows", 1, 1, [4]int{4, kw + 1, 4, 1}},
			} {
				cc := convCase{n: 1, h: 6, w: 9, c: c, oc: c, kh: 3, kw: kw, sh: geo.s, sw: geo.s,
					dh: geo.d, dw: geo.d, groups: c, pad: geo.pad}
				g := convCaseGeom(cc)
				for _, op := range ops {
					name := fmt.Sprintf("c%d/3x%d/%s/%s", c, kw, geo.name, op.name)
					data := draw(op, tensor.Shape{1, cc.h, cc.w, c}, op.rawIn)
					weight := draw(op, tensor.Shape{c, cc.kh, kw, 1}, op.rawK)
					testDepthwiseRowQnn(t, name, &g, data, weight, op.zpIn, op.zpK)
				}
			}
		}
	}
}

func testDepthwiseRowQnn(t *testing.T, name string, g *convGeom, data, weight *tensor.Tensor, zpIn, zpK int32) {
	t.Helper()
	tab, err := newDepthwiseTable(g, data.DType, zpIn)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wp, err := directWeightQnn(weight, g, zpK)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	din, wt := rawMinusZpI32(data, zpIn), rawMinusZpI32(weight, zpK)
	want, got, twin := make([]int32, g.rowLen()), make([]int32, g.rowLen()), make([]int32, g.rowLen())
	for job := 0; job < g.oh; job++ {
		for i := range got {
			got[i], twin[i] = 7, 7
		}
		convDirectRowPerCell(want, din, wt, g, job)
		tab.row(got, data, wp, g, job)
		offs := tab.offs[int(tab.rows[job%g.oh])*tab.per:][:tab.per]
		base, step := g.origin(job), g.sw*g.c
		if data.DType == tensor.UInt8 {
			depthwiseRowQnnGo(twin, data.U8(), base, tab.zero.U8(), offs, tab.cols, step, tab.taps, g.c, wp, zpIn, 0)
		} else {
			depthwiseRowQnnGo(twin, data.I8(), base, tab.zero.I8(), offs, tab.cols, step, tab.taps, g.c, wp, zpIn, 0)
		}
		for i := range want {
			if got[i] != want[i] || twin[i] != want[i] {
				t.Fatalf("%s: row %d cell %d (pixel %d channel %d): row %d, Go twin %d, per-cell %d",
					name, job, i, i/g.c, i%g.c, got[i], twin[i], want[i])
			}
		}
	}
}

// TestMulAddRowMatchesScalar pins mulAddRow — on an AVX2 host its vector
// body plus the Go tail — against the plain per-element loop for every
// length 0…67 at unaligned offsets, over tileValues' specials (NaN, ±Inf,
// ±0, denormals, overflow). Bitwise, except that a NaN's payload is not
// compared (which operand's survives is the instruction's choice, and the
// compiler's operand order for the reference loop changes under -race);
// nothing past len(out) is written.
func TestMulAddRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 67; n++ {
		off := n % 4
		x, k, out := make([]float32, n+off), make([]float32, n+off), make([]float32, n+off+1)
		for i := range x {
			x[i] = tileValues[rng.Intn(len(tileValues))]
			k[i] = tileValues[rng.Intn(len(tileValues))]
			out[i] = tileValues[rng.Intn(len(tileValues))]
		}
		out[n+off] = 7
		want := append([]float32(nil), out...)
		for i := off; i < n+off; i++ {
			want[i] += float32(x[i] * k[i])
		}
		mulAddRow(out[off:n+off], x[off:], k[off:])
		for i := range want {
			if bothNaN := out[i] != out[i] && want[i] != want[i]; !bothNaN && math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: out[%d] = %v (%#08x), want %v (%#08x)",
					n, i, out[i], math.Float32bits(out[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}
