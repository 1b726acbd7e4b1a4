package topi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// FuzzConvGeometry runs one prepared convolution launch — nn.conv2d or
// qnn.conv2d on uint8 or int8 operands, with and without its fused
// epilogue — over fuzzed geometries: strides, padding, dilation and groups,
// odd channel counts per group, an output row shorter than a tile, a batch
// of one or two. A depthwise draw (one input and one output channel per
// group) takes up to 80 channels and images up to 48×48, so the quantized
// depthwise row's every channel block and tail is reached; every other
// draw up to 8 groups and 16×16. The launch is prepared once from the
// types alone and run twice, on
// two input tensors of the prepared shape, so the second run reads a tensor
// the offsets were not built against. Each run must equal the per-cell loop
// (convDirectRowPerCell) followed by the staged epilogue, bit for bit; the
// float data and bias mix in NaN, ±Inf, −0 and denormals (drawF32), and a
// NaN cell must be NaN in both, its payload not compared.
//
//	go test ./internal/topi -run '^$' -fuzz FuzzConvGeometry -fuzztime 30s
func FuzzConvGeometry(f *testing.F) {
	// n, h, w, icg, ocg, groups, kh, kw, sh, sw, dh, dw, padT, padL, padB,
	// padR, then quantized, fused and unsigned (uint8 rather than int8).
	f.Add(int64(1), uint8(0), uint8(7), uint8(8), uint8(2), uint8(3), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), false, false, false)
	f.Add(int64(2), uint8(1), uint8(8), uint8(6), uint8(2), uint8(4), uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), true, true, false)
	f.Add(int64(3), uint8(0), uint8(10), uint8(2), uint8(0), uint8(0), uint8(4), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(2), uint8(2), uint8(2), uint8(2), false, true, false)
	f.Add(int64(4), uint8(1), uint8(6), uint8(9), uint8(4), uint8(8), uint8(0), uint8(1), uint8(2), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(1), uint8(2), uint8(1), true, false, true)
	f.Add(int64(5), uint8(0), uint8(4), uint8(3), uint8(6), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, true, true)
	// The grouped-ocg1 shape: 16×16×16 in eight groups of two input
	// channels and one output channel.
	f.Add(int64(6), uint8(0), uint8(15), uint8(15), uint8(1), uint8(0), uint8(7), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), false, false, false)
	f.Add(int64(7), uint8(0), uint8(15), uint8(15), uint8(1), uint8(0), uint8(7), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), true, true, false)
	// The lite SSD's six depthwise layers, 3×3 on uint8 with the fused
	// epilogue: 48×48×8 s2, 24×24×16 s1 and s2, 12×12×32 s1 and s2,
	// 6×6×64 s1, the stride-2 ones padded below and right only.
	for _, l := range []struct{ hw, c, s uint8 }{{48, 8, 2}, {24, 16, 1}, {24, 16, 2}, {12, 32, 1}, {12, 32, 2}, {6, 64, 1}} {
		pad := uint8(1)
		if l.s == 2 {
			pad = 0
		}
		f.Add(int64(l.hw)+int64(l.c), uint8(0), l.hw-1, l.hw-1, uint8(0), uint8(0), l.c-1, uint8(2), uint8(2), l.s-1, l.s-1, uint8(0), uint8(0), pad, pad, uint8(1), uint8(1), true, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, h, w, icg, ocg, groups, kh, kw, sh, sw, dh, dw, padT, padL, padB, padR uint8, quantized, fused, unsigned bool) {
		cc := convCase{
			n: 1 + int(n)%2, h: 1 + int(h)%16, w: 1 + int(w)%16,
			kh: 1 + int(kh)%3, kw: 1 + int(kw)%3, sh: 1 + int(sh)%3, sw: 1 + int(sw)%3,
			dh: 1 + int(dh)%2, dw: 1 + int(dw)%2, groups: 1 + int(groups)%8,
			pad: [4]int{int(padT) % 3, int(padL) % 3, int(padB) % 3, int(padR) % 3},
		}
		if icg%7 == 0 && ocg%9 == 0 {
			cc.h, cc.w, cc.groups = 1+int(h)%48, 1+int(w)%48, 1+int(groups)%80
		}
		cc.c, cc.oc = cc.groups*(1+int(icg)%7), cc.groups*(1+int(ocg)%9)
		if cc.h+cc.pad[0]+cc.pad[2] < (cc.kh-1)*cc.dh+1 || cc.w+cc.pad[1]+cc.pad[3] < (cc.kw-1)*cc.dw+1 {
			t.Skip("the dilated filter is larger than the padded image")
		}
		oh, ow := cc.outShape()
		rng := rand.New(rand.NewSource(seed))
		dataShape := tensor.Shape{cc.n, cc.h, cc.w, cc.c}
		weight := tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}
		outShape := tensor.Shape{cc.n, oh, ow, cc.oc}
		if quantized {
			fuzzConvQnn(t, rng, cc, dataShape, weight, outShape, fused, unsigned)
		} else {
			fuzzConvF32(t, rng, cc, dataShape, weight, outShape, fused)
		}
	})
}

// fuzzConvF32 is FuzzConvGeometry's float convolution, fused with a bias
// and relu.
func fuzzConvF32(t *testing.T, rng *rand.Rand, cc convCase, data, weight, out tensor.Shape, fused bool) {
	attrs := cc.attrs()
	// A finite filter: a tap in the padding is skipped by the per-cell loop
	// but multiplied as a zero by the tile, and 0·Inf is NaN.
	w := tensor.New(tensor.Float32, weight)
	for i := range w.F32() {
		w.F32()[i] = rng.Float32()*2 - 1
	}
	args := []*tensor.Tensor{drawF32(rng, data), w}
	if fused {
		attrs["fused_activation"] = "relu"
		args = append(args, drawF32(rng, tensor.Shape{cc.oc}))
	}
	outTy := &relay.TensorType{Shape: out, DType: tensor.Float32}
	l, err := Prepare("nn.conv2d", typesOf(args), attrs, outTy)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := newEpilogueF32("nn.conv2d", typesOf(args), attrs, outTy)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if run == 1 {
			args[0] = drawF32(rng, data)
		}
		dst := tensor.New(tensor.Float32, out)
		if err := l.Run(args, dst); err != nil {
			t.Fatal(err)
		}
		want := perCellConvF32(args[0], args[1], cc.params(), outTy, ep.bind(args))
		for i, w := range want.F32() {
			if got := dst.F32()[i]; math.Float32bits(got) != math.Float32bits(w) && !(got != got && w != w) {
				t.Fatalf("%+v run %d: out[%d] = %v, per-cell loop %v", cc, run, i, got, w)
			}
		}
	}
}

// fuzzConvQnn is FuzzConvGeometry's quantized convolution on int8 or, when
// unsigned, uint8 operands: qnn.conv2d, or fused with a bias, requantize
// and relu into the operands' dtype.
func fuzzConvQnn(t *testing.T, rng *rand.Rand, cc convCase, data, weight, out tensor.Shape, fused, unsigned bool) {
	dt, lo := tensor.Int8, int32(-128)
	if unsigned {
		dt, lo = tensor.UInt8, 0
	}
	draw := func(s tensor.Shape) *tensor.Tensor {
		x := tensor.New(dt, s)
		for i := 0; i < x.Elems(); i++ {
			setRaw(x, i, lo+int32(rng.Intn(256)))
		}
		return x
	}
	attrs := cc.attrs()
	zpIn, zpK := lo+int32(rng.Intn(256)), lo+int32(rng.Intn(256))
	attrs["input_zero_point"], attrs["kernel_zero_point"] = int(zpIn), int(zpK)
	args := []*tensor.Tensor{draw(data), draw(weight)}
	op, outTy := "qnn.conv2d", &relay.TensorType{Shape: out, DType: tensor.Int32}
	if fused {
		op = "qnn.conv2d_fused"
		q := tensor.QuantParams{Scale: 0.5, ZeroPoint: lo + 125}
		outTy = &relay.TensorType{Shape: out, DType: dt, Quant: &q}
		attrs["requant_input_scale"], attrs["requant_output_scale"] = 0.013, q.Scale
		attrs["requant_output_zero_point"], attrs["fused_activation"] = int(q.ZeroPoint), "relu"
		bias := tensor.New(tensor.Int32, tensor.Shape{cc.oc})
		for i := range bias.I32() {
			bias.I32()[i] = int32(rng.Intn(20001) - 10000)
		}
		args = append(args, bias)
	}
	l, err := Prepare(op, typesOf(args), attrs, outTy)
	if err != nil {
		t.Fatal(err)
	}
	var ep *epilogue
	if fused {
		e, err := newEpilogue(op, typesOf(args), attrs, outTy)
		if err != nil {
			t.Fatal(err)
		}
		ep = &e
	}
	for run := 0; run < 2; run++ {
		if run == 1 {
			args[0] = draw(data)
		}
		dst := newOutput(outTy)
		if err := l.Run(args, dst); err != nil {
			t.Fatal(err)
		}
		var bound *epilogue
		if ep != nil {
			e := ep.bind(args)
			bound = &e
		}
		want, err := perCellConvQnn(args[0], args[1], cc.params(), zpIn, zpK, outTy, bound)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < want.Elems(); i++ {
			if got, w := dst.GetRaw(i), want.GetRaw(i); got != w {
				t.Fatalf("%+v run %d: out[%d] = %d, per-cell loop %d", cc, run, i, got, w)
			}
		}
	}
}

// TestPreparedLaunchRefusesOtherShapes: a convolution or dense launch
// prepared for one data shape returns an error, and writes nothing, when
// it is run on data of another shape — of the same element count too — or
// on a weight or bias of another shape: its offset table would send the
// tiles, which check no bounds, outside the image.
func TestPreparedLaunchRefusesOtherShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	i8 := func(s tensor.Shape) *tensor.Tensor { return tensor.New(tensor.Int8, s) }
	convAttrs := relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1, 1, 1}}
	q := tensor.QuantParams{Scale: 0.5}
	for _, c := range []struct {
		op    string
		args  []*tensor.Tensor
		other []*tensor.Tensor // one argument of another shape each
		attrs relay.Attrs
		out   *relay.TensorType
	}{
		{"nn.conv2d",
			[]*tensor.Tensor{drawF32(rng, tensor.Shape{1, 6, 6, 4}), drawF32(rng, tensor.Shape{8, 3, 3, 4}), drawF32(rng, tensor.Shape{8})},
			[]*tensor.Tensor{drawF32(rng, tensor.Shape{1, 4, 9, 4}), drawF32(rng, tensor.Shape{8, 3, 3, 2}), drawF32(rng, tensor.Shape{1, 8})},
			convAttrs, &relay.TensorType{Shape: tensor.Shape{1, 6, 6, 8}, DType: tensor.Float32}},
		{"qnn.conv2d",
			[]*tensor.Tensor{i8(tensor.Shape{1, 6, 6, 4}), i8(tensor.Shape{8, 3, 3, 4})},
			[]*tensor.Tensor{i8(tensor.Shape{1, 12, 3, 4}), i8(tensor.Shape{8, 3, 3, 1})},
			convAttrs, &relay.TensorType{Shape: tensor.Shape{1, 6, 6, 8}, DType: tensor.Int32}},
		{"qnn.conv2d_fused",
			[]*tensor.Tensor{i8(tensor.Shape{1, 6, 6, 4}), i8(tensor.Shape{4, 3, 3, 1}), tensor.New(tensor.Int32, tensor.Shape{4})},
			[]*tensor.Tensor{i8(tensor.Shape{2, 6, 3, 4}), i8(tensor.Shape{4, 1, 9, 1}), tensor.New(tensor.Int32, tensor.Shape{2, 2})},
			relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1, 1, 1}, "groups": 4},
			&relay.TensorType{Shape: tensor.Shape{1, 6, 6, 4}, DType: tensor.Int8, Quant: &q}},
		{"nn.dense",
			[]*tensor.Tensor{drawF32(rng, tensor.Shape{3, 10}), drawF32(rng, tensor.Shape{5, 10})},
			[]*tensor.Tensor{drawF32(rng, tensor.Shape{6, 5}), drawF32(rng, tensor.Shape{1, 50})},
			nil, &relay.TensorType{Shape: tensor.Shape{3, 5}, DType: tensor.Float32}},
		{"qnn.dense",
			[]*tensor.Tensor{i8(tensor.Shape{3, 10}), i8(tensor.Shape{5, 10})},
			[]*tensor.Tensor{i8(tensor.Shape{5, 6}), i8(tensor.Shape{10, 5})},
			nil, &relay.TensorType{Shape: tensor.Shape{3, 5}, DType: tensor.Int32}},
		{"qnn.dense_fused",
			[]*tensor.Tensor{i8(tensor.Shape{3, 10}), i8(tensor.Shape{5, 10}), tensor.New(tensor.Int32, tensor.Shape{5})},
			[]*tensor.Tensor{i8(tensor.Shape{1, 30}), i8(tensor.Shape{5, 2, 5}), tensor.New(tensor.Int32, tensor.Shape{5, 1})},
			nil, &relay.TensorType{Shape: tensor.Shape{3, 5}, DType: tensor.Int8, Quant: &q}},
	} {
		l, err := Prepare(c.op, typesOf(c.args), c.attrs, c.out)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		dst := newOutput(c.out)
		if err := l.Run(c.args, dst); err != nil {
			t.Fatalf("%s on the prepared shapes: %v", c.op, err)
		}
		for i, o := range c.other {
			args := append([]*tensor.Tensor(nil), c.args...)
			args[i] = o
			marked := newOutput(c.out)
			for j := 0; j < marked.Elems(); j++ {
				setRaw(marked, j, 7)
			}
			if err := l.Run(args, marked); err == nil {
				t.Errorf("%s: arg %d of shape %s instead of %s ran without an error", c.op, i, o.Shape, c.args[i].Shape)
			}
			for j := 0; j < marked.Elems(); j++ {
				if v := marked.GetRaw(j); v != 7 {
					t.Fatalf("%s: a refused launch wrote out[%d] = %d", c.op, j, v)
				}
			}
		}
		if err := l.Run(c.args[:1], dst); err == nil {
			t.Errorf("%s: a launch with one arg ran without an error", c.op)
		}
	}
}
