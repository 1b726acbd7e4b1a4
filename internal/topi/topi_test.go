package topi

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// run type-infers the op on the arg types and executes the kernel, failing
// the test on any error. This mirrors exactly what the graph executor does.
func run(t *testing.T, opName string, args []*tensor.Tensor, attrs relay.Attrs) *tensor.Tensor {
	t.Helper()
	op := relay.GetOp(opName)
	types := make([]relay.Type, len(args))
	for i, a := range args {
		tt := &relay.TensorType{Shape: a.Shape, DType: a.DType}
		if a.Quant != nil {
			q := *a.Quant
			tt.Quant = &q
		}
		types[i] = tt
	}
	// Tuple-taking ops receive a TupleType built from all args.
	if opName == "concatenate" || opName == "qnn.concatenate" {
		fields := types
		types = []relay.Type{&relay.TupleType{Fields: fields}}
	}
	if attrs == nil {
		attrs = relay.Attrs{}
	}
	outTy, err := op.Infer(types, attrs)
	if err != nil {
		t.Fatalf("%s type inference: %v", opName, err)
	}
	out, err := Run(opName, args, attrs, outTy.(*relay.TensorType))
	if err != nil {
		t.Fatalf("%s kernel: %v", opName, err)
	}
	return out
}

// referenceConv2D is an independent, maximally-naive convolution used to
// cross-check the optimized kernel.
func referenceConv2D(data, weight *tensor.Tensor, sh, sw int, pad [4]int, groups int) *tensor.Tensor {
	n, h, w := data.Shape[0], data.Shape[1], data.Shape[2]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh := (h+pad[0]+pad[2]-kh)/sh + 1
	ow := (w+pad[1]+pad[3]-kw)/sw + 1
	out := tensor.New(tensor.Float32, tensor.Shape{n, oh, ow, oc})
	ocg := oc / groups
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for o := 0; o < oc; o++ {
					g := o / ocg
					acc := 0.0
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*sh-pad[0]+ky, ox*sw-pad[1]+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for ic := 0; ic < icg; ic++ {
								acc += float64(data.At(b, iy, ix, g*icg+ic) * weight.At(o, ky, kx, ic))
							}
						}
					}
					out.Set(acc, b, oy, ox, o)
				}
			}
		}
	}
	return out
}

func randTensor(shape tensor.Shape, seed uint64) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	t.FillUniform(tensor.NewRNG(seed), -1, 1)
	return t
}

func TestConv2DMatchesReference(t *testing.T) {
	cases := []struct {
		name         string
		dataShape    tensor.Shape
		weightShape  tensor.Shape
		strides, pad []int
		groups       int
	}{
		{"basic3x3", tensor.Shape{1, 8, 8, 3}, tensor.Shape{4, 3, 3, 3}, []int{1, 1}, []int{1, 1}, 1},
		{"stride2", tensor.Shape{2, 9, 9, 2}, tensor.Shape{3, 3, 3, 2}, []int{2, 2}, []int{0, 0}, 1},
		{"1x1", tensor.Shape{1, 5, 5, 8}, tensor.Shape{16, 1, 1, 8}, []int{1, 1}, []int{0, 0}, 1},
		{"depthwise", tensor.Shape{1, 8, 8, 6}, tensor.Shape{6, 3, 3, 1}, []int{1, 1}, []int{1, 1}, 6},
		{"grouped", tensor.Shape{1, 6, 6, 4}, tensor.Shape{8, 3, 3, 2}, []int{1, 1}, []int{1, 1}, 2},
		{"asym-pad", tensor.Shape{1, 7, 7, 2}, tensor.Shape{2, 3, 3, 2}, []int{2, 2}, []int{0, 1, 0, 1}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := randTensor(c.dataShape, 1)
			weight := randTensor(c.weightShape, 2)
			attrs := relay.Attrs{"strides": c.strides, "padding": c.pad, "groups": c.groups}
			got := run(t, "nn.conv2d", []*tensor.Tensor{data, weight}, attrs)
			pad := relay.Attrs{"padding": c.pad}.Pad4("padding")
			want := referenceConv2D(data, weight, c.strides[0], c.strides[1], pad, c.groups)
			if !tensor.AllClose(got, want, 1e-4, 1e-4) {
				t.Errorf("conv2d mismatch, max diff %g", tensor.MaxAbsDiff(got, want))
			}
		})
	}
}

func TestConv2DSerialEqualsParallel(t *testing.T) {
	data := randTensor(tensor.Shape{2, 16, 16, 8}, 3)
	weight := randTensor(tensor.Shape{8, 3, 3, 8}, 4)
	attrs := relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}}
	par := run(t, "nn.conv2d", []*tensor.Tensor{data, weight}, attrs)
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	ser := run(t, "nn.conv2d", []*tensor.Tensor{data, weight}, attrs)
	if !tensor.AllClose(par, ser, 0, 0) {
		t.Error("parallel and serial conv2d disagree bit-for-bit")
	}
}

func TestQnnConv2DMatchesFloat(t *testing.T) {
	// Quantize a float conv problem, run qnn.conv2d, dequantize the int32
	// accumulator, and compare against float conv within quantization error.
	data := randTensor(tensor.Shape{1, 6, 6, 3}, 5)
	weight := randTensor(tensor.Shape{4, 3, 3, 3}, 6)
	qIn := QuantizeLinear(AbsMax(data), tensor.UInt8)
	qW := QuantizeLinear(AbsMax(weight), tensor.Int8)
	qData := data.QuantizeTo(tensor.UInt8, qIn)
	qWeight := weight.QuantizeTo(tensor.Int8, qW)
	attrs := relay.Attrs{
		"strides": []int{1, 1}, "padding": []int{1, 1},
		"input_scale": qIn.Scale, "input_zero_point": int(qIn.ZeroPoint),
		"kernel_scale": qW.Scale, "kernel_zero_point": int(qW.ZeroPoint),
	}
	acc := run(t, "qnn.conv2d", []*tensor.Tensor{qData, qWeight}, attrs)
	if acc.DType != tensor.Int32 {
		t.Fatalf("accumulator dtype %s", acc.DType)
	}
	want := referenceConv2D(data, weight, 1, 1, [4]int{1, 1, 1, 1}, 1)
	// Dequantize accumulator with combined scale.
	deq := tensor.New(tensor.Float32, acc.Shape)
	for i := 0; i < acc.Elems(); i++ {
		deq.F32()[i] = float32(float64(acc.I32()[i]) * qIn.Scale * qW.Scale)
	}
	// Error bound: per-tap quantization error accumulates over K=27 taps.
	if !tensor.AllClose(deq, want, 0.08, 0.05) {
		t.Errorf("qnn.conv2d mismatch, max diff %g", tensor.MaxAbsDiff(deq, want))
	}
}

func TestDenseMatchesManual(t *testing.T) {
	data := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, tensor.Shape{2, 3})
	weight := tensor.FromF32([]float32{1, 0, 0, 0, 1, 0}, tensor.Shape{2, 3})
	got := run(t, "nn.dense", []*tensor.Tensor{data, weight}, nil)
	want := tensor.FromF32([]float32{1, 2, 4, 5}, tensor.Shape{2, 2})
	if !tensor.AllClose(got, want, 0, 0) {
		t.Errorf("dense = %v", got.F32())
	}
}

func TestQnnDenseMatchesFloat(t *testing.T) {
	data := randTensor(tensor.Shape{2, 32}, 7)
	weight := randTensor(tensor.Shape{4, 32}, 8)
	qIn := QuantizeLinear(AbsMax(data), tensor.UInt8)
	qW := QuantizeLinear(AbsMax(weight), tensor.Int8)
	attrs := relay.Attrs{
		"input_scale": qIn.Scale, "input_zero_point": int(qIn.ZeroPoint),
		"kernel_scale": qW.Scale, "kernel_zero_point": int(qW.ZeroPoint),
	}
	acc := run(t, "qnn.dense", []*tensor.Tensor{
		data.QuantizeTo(tensor.UInt8, qIn), weight.QuantizeTo(tensor.Int8, qW)}, attrs)
	want := run(t, "nn.dense", []*tensor.Tensor{data, weight}, nil)
	for i := 0; i < acc.Elems(); i++ {
		got := float64(float64(acc.I32()[i]) * qIn.Scale * qW.Scale)
		if math.Abs(got-float64(want.F32()[i])) > 0.1 {
			t.Fatalf("qnn.dense[%d] = %g, float %g", i, got, want.F32()[i])
		}
	}
}

func TestMaxPool(t *testing.T) {
	in := tensor.FromF32([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, tensor.Shape{1, 4, 4, 1})
	got := run(t, "nn.max_pool2d", []*tensor.Tensor{in},
		relay.Attrs{"pool_size": []int{2, 2}, "strides": []int{2, 2}})
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if got.F32()[i] != w {
			t.Errorf("maxpool[%d] = %g, want %g", i, got.F32()[i], w)
		}
	}
}

func TestMaxPoolQuantizedRawDomain(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.5, ZeroPoint: 10}
	in := tensor.FromU8([]uint8{1, 9, 4, 7}, tensor.Shape{1, 2, 2, 1}, q)
	got := run(t, "nn.max_pool2d", []*tensor.Tensor{in},
		relay.Attrs{"pool_size": []int{2, 2}, "strides": []int{2, 2}})
	if got.DType != tensor.UInt8 || got.U8()[0] != 9 {
		t.Errorf("quantized maxpool = %v", got)
	}
	if got.Quant == nil || *got.Quant != q {
		t.Error("quantized maxpool dropped quant params")
	}
}

func TestAvgPoolExcludesPadding(t *testing.T) {
	in := tensor.FromF32([]float32{4, 4, 4, 4}, tensor.Shape{1, 2, 2, 1})
	got := run(t, "nn.avg_pool2d", []*tensor.Tensor{in},
		relay.Attrs{"pool_size": []int{2, 2}, "strides": []int{1, 1}, "padding": []int{1, 1}})
	// With exclude-pad semantics, every window averages only real elements: 4.
	for i := 0; i < got.Elems(); i++ {
		if got.F32()[i] != 4 {
			t.Errorf("avgpool[%d] = %g, want 4 (padding must be excluded)", i, got.F32()[i])
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := randTensor(tensor.Shape{2, 4, 4, 3}, 11)
	got := run(t, "nn.global_avg_pool2d", []*tensor.Tensor{in}, nil)
	for b := 0; b < 2; b++ {
		for c := 0; c < 3; c++ {
			var sum float64
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					sum += in.At(b, y, x, c)
				}
			}
			want := float64(sum / 16)
			if math.Abs(got.At(b, 0, 0, c)-want) > 1e-5 {
				t.Errorf("gap[%d,%d] = %g, want %g", b, c, got.At(b, 0, 0, c), want)
			}
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	in := randTensor(tensor.Shape{3, 7}, 12)
	got := run(t, "nn.softmax", []*tensor.Tensor{in}, nil)
	for r := 0; r < 3; r++ {
		var sum float64
		for c := 0; c < 7; c++ {
			v := got.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %g", r, sum)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	in := tensor.FromF32([]float32{1000, 1001, 1002}, tensor.Shape{1, 3})
	got := run(t, "nn.softmax", []*tensor.Tensor{in}, nil)
	for i := 0; i < 3; i++ {
		if math.IsNaN(got.At(0, i)) || math.IsInf(got.At(0, i), 0) {
			t.Fatal("softmax overflowed on large inputs")
		}
	}
}

func TestBatchNormFoldsToScaleShift(t *testing.T) {
	c := 4
	data := randTensor(tensor.Shape{1, 2, 2, c}, 13)
	gamma := randTensor(tensor.Shape{c}, 14)
	beta := randTensor(tensor.Shape{c}, 15)
	mean := randTensor(tensor.Shape{c}, 16)
	variance := tensor.New(tensor.Float32, tensor.Shape{c})
	variance.FillUniform(tensor.NewRNG(17), 0.5, 2)
	got := run(t, "nn.batch_norm", []*tensor.Tensor{data, gamma, beta, mean, variance},
		relay.Attrs{"epsilon": 1e-5})
	for i := 0; i < data.Elems(); i++ {
		ch := i % c
		want := float64((data.GetF(i)-mean.GetF(ch))/math.Sqrt(variance.GetF(ch)+1e-5)*gamma.GetF(ch)) + beta.GetF(ch)
		if math.Abs(got.GetF(i)-want) > 1e-4 {
			t.Fatalf("bn[%d] = %g, want %g", i, got.GetF(i), want)
		}
	}
}

func TestBroadcastAdd(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, tensor.Shape{2, 3})
	b := tensor.FromF32([]float32{10, 20, 30}, tensor.Shape{3})
	got := run(t, "add", []*tensor.Tensor{a, b}, nil)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if got.F32()[i] != w {
			t.Errorf("add[%d] = %g, want %g", i, got.F32()[i], w)
		}
	}
}

func TestBroadcastScalar(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2}, tensor.Shape{2})
	s := tensor.Scalar(5)
	got := run(t, "multiply", []*tensor.Tensor{a, s}, nil)
	if got.F32()[0] != 5 || got.F32()[1] != 10 {
		t.Errorf("scalar broadcast = %v", got.F32())
	}
}

func TestTranspose(t *testing.T) {
	in := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, tensor.Shape{2, 3})
	got := run(t, "transpose", []*tensor.Tensor{in}, relay.Attrs{"axes": []int{1, 0}})
	if !got.Shape.Equal(tensor.Shape{3, 2}) {
		t.Fatalf("transpose shape %s", got.Shape)
	}
	if got.At(0, 1) != 4 || got.At(2, 0) != 3 {
		t.Errorf("transpose values wrong: %v", got.F32())
	}
}

func TestConcatenateAxis(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2}, tensor.Shape{1, 2})
	b := tensor.FromF32([]float32{3, 4, 5, 6}, tensor.Shape{1, 4})
	got := run(t, "concatenate", []*tensor.Tensor{a, b}, relay.Attrs{"axis": 1})
	want := []float32{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if got.F32()[i] != w {
			t.Errorf("concat[%d] = %g", i, got.F32()[i])
		}
	}
}

func TestPadQuantizedUsesZeroPoint(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.1, ZeroPoint: 7}
	in := tensor.FromU8([]uint8{50}, tensor.Shape{1, 1, 1, 1}, q)
	got := run(t, "nn.pad", []*tensor.Tensor{in}, relay.Attrs{"pad_width": []int{1, 1}})
	if got.U8()[0] != 7 {
		t.Errorf("quantized pad filled with %d, want zero point 7", got.U8()[0])
	}
	if got.At(0, 1, 1, 0) != in.At(0, 0, 0, 0) {
		t.Error("pad misplaced the payload")
	}
}

func TestUpsampling(t *testing.T) {
	in := tensor.FromF32([]float32{1, 2, 3, 4}, tensor.Shape{1, 2, 2, 1})
	got := run(t, "nn.upsampling", []*tensor.Tensor{in}, relay.Attrs{"scale": 2})
	if !got.Shape.Equal(tensor.Shape{1, 4, 4, 1}) {
		t.Fatalf("upsampling shape %s", got.Shape)
	}
	if got.At(0, 0, 0, 0) != 1 || got.At(0, 1, 1, 0) != 1 || got.At(0, 3, 3, 0) != 4 {
		t.Error("nearest upsampling values wrong")
	}
}

func TestRequantizeRoundTrip(t *testing.T) {
	q1 := tensor.QuantParams{Scale: 0.05, ZeroPoint: 100}
	in := tensor.FromU8([]uint8{0, 50, 100, 150, 255}, tensor.Shape{5}, q1)
	got := run(t, "qnn.requantize", []*tensor.Tensor{in}, relay.Attrs{
		"input_scale": 0.05, "input_zero_point": 100,
		"output_scale": 0.1, "output_zero_point": 50, "out_dtype": "uint8",
	})
	for i := 0; i < 5; i++ {
		inReal := float64(0.05 * float64(int32(in.U8()[i])-100))
		outReal := float64(0.1 * float64(int32(got.U8()[i])-50))
		if math.Abs(inReal-outReal) > 0.05+1e-9 {
			t.Errorf("requantize[%d]: %g -> %g", i, inReal, outReal)
		}
	}
}

func TestQnnAddRescales(t *testing.T) {
	qa := tensor.QuantParams{Scale: 0.1, ZeroPoint: 0}
	qb := tensor.QuantParams{Scale: 0.2, ZeroPoint: 10}
	a := tensor.FromU8([]uint8{10, 20}, tensor.Shape{2}, qa) // 1.0, 2.0
	b := tensor.FromU8([]uint8{20, 30}, tensor.Shape{2}, qb) // 2.0, 4.0
	got := run(t, "qnn.add", []*tensor.Tensor{a, b}, relay.Attrs{
		"lhs_scale": 0.1, "lhs_zero_point": 0,
		"rhs_scale": 0.2, "rhs_zero_point": 10,
		"output_scale": 0.05, "output_zero_point": 0,
	})
	// Expect 3.0 and 6.0 at scale 0.05 => raw 60 and 120.
	if got.U8()[0] != 60 || got.U8()[1] != 120 {
		t.Errorf("qnn.add = %v, want [60 120]", got.U8())
	}
}

func TestQnnConcatenateRescalesFields(t *testing.T) {
	qa := tensor.QuantParams{Scale: 0.1, ZeroPoint: 0}
	qb := tensor.QuantParams{Scale: 0.2, ZeroPoint: 0}
	a := tensor.FromU8([]uint8{10}, tensor.Shape{1, 1}, qa) // 1.0
	b := tensor.FromU8([]uint8{10}, tensor.Shape{1, 1}, qb) // 2.0
	got := run(t, "qnn.concatenate", []*tensor.Tensor{a, b}, relay.Attrs{
		"axis": 1, "output_scale": 0.1, "output_zero_point": 0,
	})
	if got.U8()[0] != 10 || got.U8()[1] != 20 {
		t.Errorf("qnn.concatenate = %v, want [10 20]", got.U8())
	}
}

func TestYoloOutputSigmoids(t *testing.T) {
	classes := 2
	anchors := 1
	per := 5 + classes
	in := tensor.New(tensor.Float32, tensor.Shape{1, 1, 1, anchors * per})
	in.Fill(0)
	got := run(t, "vision.yolo_output", []*tensor.Tensor{in},
		relay.Attrs{"anchors": anchors, "classes": classes})
	// sigmoid(0) = 0.5 on x, y, obj, classes; w,h untouched (0).
	wantHalf := []int{0, 1, 4, 5, 6}
	for _, i := range wantHalf {
		if math.Abs(got.GetF(i)-0.5) > 1e-6 {
			t.Errorf("yolo[%d] = %g, want 0.5", i, got.GetF(i))
		}
	}
	if got.GetF(2) != 0 || got.GetF(3) != 0 {
		t.Error("yolo w/h must pass through raw")
	}
}

func TestEveryRelayOpHasKernelOrIsStructural(t *testing.T) {
	// Ops with no runtime kernel must be ones the executor lowers away.
	structural := map[string]bool{}
	for _, name := range relay.OpNames() {
		if !Has(name) && !structural[name] {
			t.Errorf("relay op %q has no TOPI kernel", name)
		}
	}
}

func TestRunUnknownOp(t *testing.T) {
	if _, err := Run("nn.nonexistent", nil, nil, &relay.TensorType{}); err == nil {
		t.Error("Run accepted unknown op")
	}
}

// Property: relu output is idempotent and non-negative.
func TestReLUProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0
			}
		}
		in := tensor.FromF32(vals, tensor.Shape{len(vals)})
		out := run(t, "nn.relu", []*tensor.Tensor{in}, nil)
		out2 := run(t, "nn.relu", []*tensor.Tensor{out}, nil)
		for i := range vals {
			if out.F32()[i] < 0 || out.F32()[i] != out2.F32()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: add is commutative for same-shape tensors.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		ta := tensor.FromF32(a[:n], tensor.Shape{n})
		tb := tensor.FromF32(b[:n], tensor.Shape{n})
		ab := run(t, "add", []*tensor.Tensor{ta, tb}, nil)
		ba := run(t, "add", []*tensor.Tensor{tb, ta}, nil)
		for i := 0; i < n; i++ {
			x, y := ab.F32()[i], ba.F32()[i]
			if x != y && !(math.IsNaN(float64(x)) && math.IsNaN(float64(y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: transpose with reversed axes twice is the identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		shape := tensor.Shape{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		in := tensor.New(tensor.Float32, shape)
		in.FillUniform(rng, -1, 1)
		once := run(t, "transpose", []*tensor.Tensor{in}, relay.Attrs{})
		twice := run(t, "transpose", []*tensor.Tensor{once}, relay.Attrs{})
		return tensor.AllClose(in, twice, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMeanKernel(t *testing.T) {
	in := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, tensor.Shape{2, 3})
	got := run(t, "mean", []*tensor.Tensor{in}, relay.Attrs{"axis": []int{1}})
	if !got.Shape.Equal(tensor.Shape{2}) {
		t.Fatalf("mean shape %s", got.Shape)
	}
	if got.F32()[0] != 2 || got.F32()[1] != 5 {
		t.Errorf("mean = %v", got.F32())
	}
	gotKeep := run(t, "mean", []*tensor.Tensor{in}, relay.Attrs{"axis": []int{1}, "keepdims": true})
	if !gotKeep.Shape.Equal(tensor.Shape{2, 1}) {
		t.Fatalf("mean keepdims shape %s", gotKeep.Shape)
	}
}

func TestStridedSlice(t *testing.T) {
	in := tensor.FromF32([]float32{0, 1, 2, 3, 4, 5, 6, 7, 8}, tensor.Shape{3, 3})
	got := run(t, "strided_slice", []*tensor.Tensor{in},
		relay.Attrs{"begin": []int{1, 0}, "end": []int{3, 2}})
	want := []float32{3, 4, 6, 7}
	for i, w := range want {
		if got.F32()[i] != w {
			t.Errorf("slice[%d] = %g, want %g", i, got.F32()[i], w)
		}
	}
}

func TestDilatedConv2D(t *testing.T) {
	// Dilation 2: effective 5x5 receptive field from a 3x3 kernel.
	data := randTensor(tensor.Shape{1, 7, 7, 2}, 31)
	weight := randTensor(tensor.Shape{3, 3, 3, 2}, 32)
	got := run(t, "nn.conv2d", []*tensor.Tensor{data, weight},
		relay.Attrs{"dilation": []int{2, 2}})
	if !got.Shape.Equal(tensor.Shape{1, 3, 3, 3}) {
		t.Fatalf("dilated conv shape %s", got.Shape)
	}
	// Independent check of one output element.
	want := 0.0
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			for ic := 0; ic < 2; ic++ {
				want += float64(data.At(0, ky*2, kx*2, ic) * weight.At(1, ky, kx, ic))
			}
		}
	}
	if diff := got.At(0, 0, 0, 1) - want; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("dilated conv[0,0,0,1] = %g, want %g", got.At(0, 0, 0, 1), want)
	}
}

func TestStride2AsymmetricOutput(t *testing.T) {
	// Regression guard for output-dimension arithmetic on even inputs.
	data := randTensor(tensor.Shape{1, 10, 7, 1}, 33)
	weight := randTensor(tensor.Shape{1, 3, 3, 1}, 34)
	got := run(t, "nn.conv2d", []*tensor.Tensor{data, weight},
		relay.Attrs{"strides": []int{2, 2}})
	if !got.Shape.Equal(tensor.Shape{1, 4, 3, 1}) {
		t.Fatalf("shape %s, want (1,4,3,1)", got.Shape)
	}
}

// The im2col path must agree with the direct kernel and the naive reference
// across shapes spanning the dispatch threshold.
func TestIm2colMatchesDirect(t *testing.T) {
	cases := []struct {
		name   string
		data   tensor.Shape
		weight tensor.Shape
		groups int
		pad    []int
	}{
		{"large", tensor.Shape{1, 40, 40, 32}, tensor.Shape{32, 3, 3, 32}, 1, []int{1, 1}},
		{"large-depthwise", tensor.Shape{1, 64, 64, 64}, tensor.Shape{64, 3, 3, 1}, 64, []int{1, 1}},
		{"large-grouped", tensor.Shape{1, 32, 32, 32}, tensor.Shape{32, 3, 3, 16}, 2, []int{1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := randTensor(c.data, 71)
			weight := randTensor(c.weight, 72)
			attrs := relay.Attrs{"padding": c.pad, "groups": c.groups}
			// Force both paths by calling the exported entry (dispatches by
			// size) and the reference.
			got := run(t, "nn.conv2d", []*tensor.Tensor{data, weight}, attrs)
			pad := relay.Attrs{"padding": c.pad}.Pad4("padding")
			want := referenceConv2D(data, weight, 1, 1, pad, c.groups)
			if !tensor.AllClose(got, want, 1e-3, 1e-3) {
				t.Errorf("im2col mismatch, max diff %g", tensor.MaxAbsDiff(got, want))
			}
		})
	}
}

func TestIm2colDilated(t *testing.T) {
	data := randTensor(tensor.Shape{1, 48, 48, 16}, 73)
	weight := randTensor(tensor.Shape{16, 3, 3, 16}, 74)
	attrs := relay.Attrs{"padding": []int{2, 2}, "dilation": []int{2, 2}}
	got := run(t, "nn.conv2d", []*tensor.Tensor{data, weight}, attrs)
	// Probe a few elements against direct per-tap computation.
	for _, probe := range [][4]int{{0, 5, 5, 3}, {0, 20, 31, 7}, {0, 47, 0, 0}} {
		oy, ox, o := probe[1], probe[2], probe[3]
		want := 0.0
		for ky := 0; ky < 3; ky++ {
			iy := oy - 2 + ky*2
			if iy < 0 || iy >= 48 {
				continue
			}
			for kx := 0; kx < 3; kx++ {
				ix := ox - 2 + kx*2
				if ix < 0 || ix >= 48 {
					continue
				}
				for ic := 0; ic < 16; ic++ {
					want += float64(data.At(0, iy, ix, ic) * weight.At(o, ky, kx, ic))
				}
			}
		}
		if d := got.At(0, oy, ox, o) - want; d > 1e-3 || d < -1e-3 {
			t.Errorf("dilated im2col [%d,%d,%d] = %g, want %g", oy, ox, o, got.At(0, oy, ox, o), want)
		}
	}
}

func TestUnaryTranscendentalKernels(t *testing.T) {
	in := tensor.FromF32([]float32{-1, 0, 0.5, 2}, tensor.Shape{4})
	cases := []struct {
		op   string
		f    func(float64) float64
		skip func(float64) bool
	}{
		{"sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }, nil},
		{"tanh", math.Tanh, nil},
		{"exp", math.Exp, nil},
		{"sqrt", math.Sqrt, func(v float64) bool { return v < 0 }},
	}
	for _, c := range cases {
		got := run(t, c.op, []*tensor.Tensor{in}, nil)
		for i := 0; i < 4; i++ {
			v := float64(in.F32()[i])
			if c.skip != nil && c.skip(v) {
				continue
			}
			if d := got.GetF(i) - c.f(v); math.Abs(d) > 1e-5 {
				t.Errorf("%s(%g) = %g, want %g", c.op, v, got.GetF(i), c.f(v))
			}
		}
	}
}

func TestLRNKernel(t *testing.T) {
	in := tensor.FromF32([]float32{1, 2, 3, 4}, tensor.Shape{1, 1, 1, 4})
	got := run(t, "nn.lrn", []*tensor.Tensor{in},
		relay.Attrs{"size": 3, "alpha": 1e-4, "beta": 0.75, "bias": 2.0})
	// Channel 1: window {1,2,3}, sq=14.
	want := 2 / math.Pow(2+1e-4*14, 0.75)
	if d := got.GetF(1) - want; math.Abs(d) > 1e-5 {
		t.Errorf("lrn[1] = %g, want %g", got.GetF(1), want)
	}
}

func TestLeakyReLUKernel(t *testing.T) {
	in := tensor.FromF32([]float32{-2, 3}, tensor.Shape{2})
	got := run(t, "nn.leaky_relu", []*tensor.Tensor{in}, relay.Attrs{"alpha": 0.1})
	if math.Abs(got.GetF(0)+0.2) > 1e-6 || got.GetF(1) != 3 {
		t.Errorf("leaky = %v", got.F32())
	}
}

// TestBiasAddMatchesIndexFormula pins nn.bias_add, bit for bit, to the
// per-element formula bias[(i/inner)%c] on every axis: the channel-last row
// walk (float32 long enough that ForElems splits it at chunk boundaries that
// are not row boundaries, and int32), and the general loop for the others.
func TestBiasAddMatchesIndexFormula(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, tc := range []struct {
		shape tensor.Shape
		axis  int
	}{
		{tensor.Shape{1, 37, 41, 13}, -1}, // 19 721 elements: two ForElems chunks
		{tensor.Shape{3, 7}, 1},
		{tensor.Shape{1, 5, 6, 4}, 3},
		{tensor.Shape{2, 3, 5, 4}, 1}, // channel-first: the general loop
		{tensor.Shape{4, 6}, 0},
	} {
		axis := tc.axis
		if axis < 0 {
			axis += len(tc.shape)
		}
		c, inner := tc.shape[axis], 1
		for _, d := range tc.shape[axis+1:] {
			inner *= d
		}
		data := tensor.New(tensor.Float32, tc.shape)
		bias := tensor.New(tensor.Float32, tensor.Shape{c})
		for i := range data.F32() {
			data.F32()[i] = float32(rng.Norm())
		}
		for i := range bias.F32() {
			bias.F32()[i] = float32(rng.Norm())
		}
		got := run(t, "nn.bias_add", []*tensor.Tensor{data, bias}, relay.Attrs{"axis": tc.axis}).F32()
		for i, v := range data.F32() {
			want := v + bias.F32()[(i/inner)%c]
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("f32 %v axis %d: out[%d] = %v, want %v", tc.shape, tc.axis, i, got[i], want)
			}
		}

		acc := tensor.New(tensor.Int32, tc.shape)
		ibias := tensor.New(tensor.Int32, tensor.Shape{c})
		for i := range acc.I32() {
			acc.I32()[i] = int32(rng.Intn(1<<20)) - 1<<19
		}
		for i := range ibias.I32() {
			ibias.I32()[i] = int32(rng.Intn(1<<16)) - 1<<15
		}
		igot := run(t, "nn.bias_add", []*tensor.Tensor{acc, ibias}, relay.Attrs{"axis": tc.axis}).I32()
		for i, v := range acc.I32() {
			if want := v + ibias.I32()[(i/inner)%c]; igot[i] != want {
				t.Fatalf("i32 %v axis %d: out[%d] = %d, want %d", tc.shape, tc.axis, i, igot[i], want)
			}
		}
	}
}

// TestReLUSpecialValues: nn.relu is `if v < 0 { 0 }`, not max(v, 0) — −0 and
// NaN are not below zero and pass through with their bits intact.
func TestReLUSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7fc00123)
	inf := float32(math.Inf(1))
	in := []float32{-1.5, negZero, 0, 2.5, nan, -inf, inf, -math.SmallestNonzeroFloat32}
	want := []float32{0, negZero, 0, 2.5, nan, 0, inf, 0}
	out := run(t, "nn.relu", []*tensor.Tensor{tensor.FromF32(in, tensor.Shape{len(in)})}, nil).F32()
	for i := range want {
		if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
			t.Errorf("relu(%v) = %v (%#08x), want %v (%#08x)", in[i], out[i], math.Float32bits(out[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestClampF32SpecialValues pins the branch-free float nn.relu and clip (the
// relu6 bounds [0, 6], and a general [−2.5, 3] range) on −0, +0, NaN of
// both signs, ±Inf, denormals and values at the bounds exactly: a value
// below the lower bound becomes it, one above the upper becomes that, and
// everything else — NaN and −0 included — passes through with its bits.
func TestClampF32SpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	qnan, nnan := math.Float32frombits(0x7fc00123), math.Float32frombits(0xffc00456)
	inf := float32(math.Inf(1))
	den := float32(math.SmallestNonzeroFloat32)
	six := float32(6)
	above6 := math.Nextafter32(6, 7)
	in := []float32{negZero, 0, qnan, nnan, inf, -inf, den, -den, 1e-40, six, above6, -1.5, 2.5, -2.5, 3}
	for _, tc := range []struct {
		op    string
		attrs relay.Attrs
		want  []float32
	}{
		{"nn.relu", nil,
			[]float32{negZero, 0, qnan, nnan, inf, 0, den, 0, 1e-40, six, above6, 0, 2.5, 0, 3}},
		{"clip", relay.Attrs{"a_min": 0.0, "a_max": 6.0},
			[]float32{negZero, 0, qnan, nnan, six, 0, den, 0, 1e-40, six, six, 0, 2.5, 0, 3}},
		{"clip", relay.Attrs{"a_min": -2.5, "a_max": 3.0},
			[]float32{negZero, 0, qnan, nnan, 3, -2.5, den, -den, 1e-40, 3, 3, -1.5, 2.5, -2.5, 3}},
	} {
		out := run(t, tc.op, []*tensor.Tensor{tensor.FromF32(in, tensor.Shape{len(in)})}, tc.attrs).F32()
		for i, w := range tc.want {
			if math.Float32bits(out[i]) != math.Float32bits(w) {
				t.Errorf("%s %v (%v) = %v (%#08x), want %v (%#08x)", tc.op, tc.attrs, in[i],
					out[i], math.Float32bits(out[i]), w, math.Float32bits(w))
			}
		}
	}
}

// TestClampF32MatchesBranches: the bits-select clamp equals the two-branch
// clip it replaced, `if v < lo {v = lo}; if v > hi {v = hi}`, on every
// special value and bound pair — inverted bounds and NaN bounds included.
func TestClampF32MatchesBranches(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	vals := []float32{float32(math.Copysign(0, -1)), 0, nan, -nan, inf, -inf,
		math.SmallestNonzeroFloat32, -1e-40, 6, 7, -3, 0.5, 2}
	for _, lo := range vals {
		for _, hi := range vals {
			c := newClampF32(lo, hi)
			got := make([]float32, len(vals))
			c.rows(got, vals)
			for i, v := range vals {
				want := v
				if want < lo {
					want = lo
				}
				if want > hi {
					want = hi
				}
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("clamp [%v, %v] of %v = %v, want %v", lo, hi, v, got[i], want)
				}
			}
		}
	}
}
