package tflite

import (
	"testing"

	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// buildQuantCNN: a quantized conv/dw-conv stack with relu6, pooling,
// reshape and logistic head — MobileNet-SSD-flavored.
func buildQuantCNN(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder(11)
	in := b.Input("input", []int{1, 16, 16, 3}, &tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0})
	c1 := b.Conv2D(in, 8, 3, 2, PaddingSame, ActRelu6)
	d1 := b.DepthwiseConv2D(c1, 3, 1, PaddingSame, ActRelu6)
	c2 := b.Conv2D(d1, 16, 1, 1, PaddingSame, ActRelu6)
	pool := b.Pool(OpAveragePool2D, c2, 2, 2)
	rs := b.Reshape(pool, []int{1, 4 * 4 * 16})
	fc := b.FullyConnected(rs, 10, ActNone)
	lg := b.Logistic(fc)
	out := b.Dequantize(lg)
	b.Output(out)
	blob, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func buildFloatCNN(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder(12)
	in := b.Input("input", []int{1, 16, 16, 3}, nil)
	c1 := b.Conv2D(in, 8, 3, 2, PaddingSame, ActRelu)
	c2 := b.Conv2D(c1, 16, 3, 1, PaddingSame, ActRelu)
	sm := b.Softmax(b.FullyConnected(b.Reshape(c2, []int{1, 8 * 8 * 16}), 10, ActNone))
	b.Output(sm)
	blob, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestParseRoundTrip(t *testing.T) {
	blob := buildQuantCNN(t)
	m, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Operators) != 8 {
		t.Errorf("op count %d, want 8", len(m.Operators))
	}
	if len(m.Inputs) != 1 || len(m.Outputs) != 1 {
		t.Errorf("io: %v %v", m.Inputs, m.Outputs)
	}
	// Input tensor must carry quant params.
	if m.Tensors[m.Inputs[0]].Quant == nil {
		t.Error("input lost quant params through serialization")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a tflite file at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse(buildQuantCNN(t)[:40]); err == nil {
		t.Error("truncated model accepted")
	}
}

func TestImportQuantizedModel(t *testing.T) {
	mod, err := FromTFLite(buildQuantCNN(t))
	if err != nil {
		t.Fatal(err)
	}
	main := mod.Main()
	if n := relay.CountOps(main, "qnn.conv2d"); n != 3 { // 2 conv + 1 depthwise
		t.Errorf("qnn.conv2d count %d, want 3", n)
	}
	if n := relay.CountOps(main, "qnn.requantize"); n < 3 {
		t.Errorf("requantize count %d, want >= 3", n)
	}
	if n := relay.CountOps(main, "qnn.dense"); n != 1 {
		t.Errorf("qnn.dense count %d", n)
	}
	// Output is dequantized float.
	ret := main.CheckedType().(*relay.FuncType).Ret.(*relay.TensorType)
	if ret.DType != tensor.Float32 {
		t.Errorf("output dtype %s", ret.DType)
	}
}

func TestQuantizedExecutionProducesSaneRange(t *testing.T) {
	mod, err := FromTFLite(buildQuantCNN(t))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	in := tensor.New(tensor.UInt8, tensor.Shape{1, 16, 16, 3})
	q := tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
	in.Quant = &q
	rng := tensor.NewRNG(5)
	for i := 0; i < in.Elems(); i++ {
		in.U8()[i] = uint8(rng.Intn(256))
	}
	gm.SetInput(gm.InputNames()[0], in)
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	out := gm.MustOutput(0)
	for i := 0; i < out.Elems(); i++ {
		v := out.GetF(i)
		if v < 0 || v > 1 {
			t.Fatalf("logistic output out of [0,1]: %g", v)
		}
	}
}

func TestQuantizedModelRunsThroughBYOC(t *testing.T) {
	// The paper's §3.3 headline: the quantized model goes through the NIR
	// flow and produces the same answer as the TVM path.
	mod, err := FromTFLite(buildQuantCNN(t))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.UInt8, tensor.Shape{1, 16, 16, 3})
	q := tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
	in.Quant = &q
	rng := tensor.NewRNG(7)
	for i := 0; i < in.Elems(); i++ {
		in.U8()[i] = uint8(rng.Intn(256))
	}
	run := func(useNIR bool) *tensor.Tensor {
		lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: useNIR})
		if err != nil {
			t.Fatal(err)
		}
		gm := runtime.NewGraphModule(lib)
		gm.SetInput(gm.InputNames()[0], in)
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		return gm.MustOutput(0)
	}
	ref := run(false)
	got := run(true)
	if !tensor.AllClose(got, ref, 1e-5, 1e-5) {
		t.Errorf("BYOC quantized output differs from TVM path, max %g", tensor.MaxAbsDiff(got, ref))
	}
}

func TestQuantizedCloseToFloatTwin(t *testing.T) {
	// Build structurally identical float and quantized models from the same
	// seed and compare outputs — "performance similar to the original flow"
	// (paper §4.2) on the accuracy side.
	build := func(quant bool) *relay.Module {
		b := NewBuilder(33)
		var qp *tensor.QuantParams
		if quant {
			qp = &tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
		}
		in := b.Input("input", []int{1, 8, 8, 3}, qp)
		c1 := b.Conv2D(in, 4, 3, 1, PaddingSame, ActRelu6)
		var head int
		if quant {
			head = b.Dequantize(c1)
		} else {
			head = c1
		}
		b.Output(head)
		blob, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		mod, err := FromTFLite(blob)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	fIn := tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 3})
	fIn.FillUniform(tensor.NewRNG(3), 0, 1)
	qIn := fIn.QuantizeTo(tensor.UInt8, tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0})

	runOne := func(mod *relay.Module, in *tensor.Tensor) *tensor.Tensor {
		lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		gm := runtime.NewGraphModule(lib)
		gm.SetInput(gm.InputNames()[0], in)
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		return gm.MustOutput(0)
	}
	fOut := runOne(build(false), fIn)
	qOut := runOne(build(true), qIn)
	// Same seed → same float weights; quantization error bounded by a few
	// activation steps.
	if !tensor.AllClose(qOut, fOut, 0.15, 0.1) {
		t.Errorf("quantized model diverges from float twin, max %g", tensor.MaxAbsDiff(qOut, fOut))
	}
}

func TestImportFloatModel(t *testing.T) {
	mod, err := FromTFLite(buildFloatCNN(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(mod.Main(), "nn.conv2d"); n != 2 {
		t.Errorf("float conv count %d", n)
	}
	if n := relay.CountOps(mod.Main(), "qnn.conv2d"); n != 0 {
		t.Errorf("float model produced qnn ops")
	}
}

func TestQuantizedNeuroPilotOnly(t *testing.T) {
	// The fully supported quantized model must compile NeuroPilot-only on
	// CPU+APU (testing the §3.3 tensor-oriented conversion down to Neuron).
	mod, err := FromTFLite(buildQuantCNN(t))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := runtime.BuildNeuroPilotOnly(mod, nil, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatalf("NeuroPilot-only on quantized model: %v", err)
	}
	for _, od := range cm.Model.Operands {
		if od.Type.DType.IsQuantized() && od.Type.Quant == nil {
			t.Fatalf("operand %s lost quant params in Neuron IR", od.Name)
		}
	}
}
