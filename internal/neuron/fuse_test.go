package neuron

import (
	"testing"

	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// buildQuantConvChain: input → CONV_2D → BIAS_ADD → REQUANTIZE → CLAMP(0,6),
// the exact chain the NIR converter emits for a tflite quantized conv.
func buildQuantConvChain(t *testing.T) *Model {
	t.Helper()
	m := NewModel("qchain")
	inQ := tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
	wQ := tensor.QuantParams{Scale: 0.01, ZeroPoint: 128}
	accQ := tensor.QuantParams{Scale: inQ.Scale * wQ.Scale, ZeroPoint: 0}
	outQ := tensor.QuantParams{Scale: 8.0 / 255, ZeroPoint: 128}

	in := m.AddOperand("in", OperandType{Shape: tensor.Shape{1, 8, 8, 3}, DType: tensor.UInt8, Quant: &inQ}, nil)
	wf := tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3})
	wf.FillUniform(tensor.NewRNG(1), -0.5, 0.5)
	w := m.AddOperand("w", OperandType{Shape: tensor.Shape{4, 3, 3, 3}, DType: tensor.UInt8, Quant: &wQ},
		wf.QuantizeTo(tensor.UInt8, wQ))
	bias := m.AddOperand("b", OperandType{Shape: tensor.Shape{4}, DType: tensor.Int32, Quant: &accQ},
		tensor.New(tensor.Int32, tensor.Shape{4}))
	acc := m.AddOperand("acc", OperandType{Shape: tensor.Shape{1, 8, 8, 4}, DType: tensor.Int32, Quant: &accQ}, nil)
	accB := m.AddOperand("accb", OperandType{Shape: tensor.Shape{1, 8, 8, 4}, DType: tensor.Int32, Quant: &accQ}, nil)
	q := m.AddOperand("q", OperandType{Shape: tensor.Shape{1, 8, 8, 4}, DType: tensor.UInt8, Quant: &outQ}, nil)
	out := m.AddOperand("out", OperandType{Shape: tensor.Shape{1, 8, 8, 4}, DType: tensor.UInt8, Quant: &outQ}, nil)

	convAttrs := relay.Attrs{"padding": []int{1, 1},
		"input_scale": inQ.Scale, "input_zero_point": int(inQ.ZeroPoint),
		"kernel_scale": wQ.Scale, "kernel_zero_point": int(wQ.ZeroPoint)}
	m.AddOperation(Conv2D, []int{in, w}, []int{acc}, convAttrs)
	m.AddOperation(BiasAdd, []int{acc, bias}, []int{accB}, nil)
	m.AddOperation(Requantize, []int{accB}, []int{q}, relay.Attrs{
		"input_scale": accQ.Scale, "input_zero_point": 0,
		"output_scale": outQ.Scale, "output_zero_point": int(outQ.ZeroPoint),
		"out_dtype": "uint8"})
	m.AddOperation(Clamp, []int{q}, []int{out}, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	return m
}

func quantChainInput() *tensor.Tensor {
	inQ := tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
	in := tensor.New(tensor.UInt8, tensor.Shape{1, 8, 8, 3})
	in.Quant = &inQ
	rng := tensor.NewRNG(9)
	raw := in.U8()
	for i := range raw {
		raw[i] = uint8(rng.Intn(256))
	}
	return in
}

func TestFuseOperationsCollapsesQuantChain(t *testing.T) {
	m := buildQuantConvChain(t)
	if n := FuseOperations(m); n != 3 {
		t.Fatalf("fused %d ops, want 3 (bias+requant+clamp)", n)
	}
	if len(m.Operations) != 1 {
		t.Fatalf("%d operations left, want 1", len(m.Operations))
	}
	op := m.Operations[0]
	if op.Code != Conv2D || len(op.Inputs) != 3 {
		t.Fatalf("fused op %s with %d inputs", op.Code, len(op.Inputs))
	}
	if !op.Attrs.Bool(FusedRequantAttr, false) {
		t.Error("requantize not recorded")
	}
	if op.Attrs.Str(FusedActivationAttr, "") != "relu6" {
		t.Errorf("activation %q", op.Attrs.Str(FusedActivationAttr, ""))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fused model invalid: %v", err)
	}
}

func TestFusionPreservesNumerics(t *testing.T) {
	sc := soc.NewDimensity800()
	in := quantChainInput()
	run := func(opts CompileOptions) *tensor.Tensor {
		m := buildQuantConvChain(t)
		cm, err := CompileWith(m, sc, []soc.DeviceKind{soc.KindCPU}, opts)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := cm.Execute([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	fused := run(CompileOptions{})
	unfused := run(CompileOptions{DisableOperationFusion: true})
	if !tensor.AllClose(fused, unfused, 0, 0) {
		t.Errorf("fusion changed numerics, max diff %g", tensor.MaxAbsDiff(fused, unfused))
	}
}

func TestFusionReducesLaunchesAndTime(t *testing.T) {
	sc := soc.NewDimensity800()
	measure := func(opts CompileOptions) (*soc.Profile, int) {
		m := buildQuantConvChain(t)
		cm, err := CompileWith(m, sc, []soc.DeviceKind{soc.KindCPU}, opts)
		if err != nil {
			t.Fatal(err)
		}
		prof := soc.NewProfile()
		cm.Estimate(prof)
		return prof, len(cm.Model.Operations)
	}
	fProf, fOps := measure(CompileOptions{})
	uProf, uOps := measure(CompileOptions{DisableOperationFusion: true})
	if fOps != 1 || uOps != 4 {
		t.Fatalf("op counts fused=%d unfused=%d, want 1 and 4", fOps, uOps)
	}
	if fProf.Launches[soc.KindCPU] != 1 || uProf.Launches[soc.KindCPU] != 4 {
		t.Errorf("launches fused=%d unfused=%d", fProf.Launches[soc.KindCPU], uProf.Launches[soc.KindCPU])
	}
	if fProf.Total() >= uProf.Total() {
		t.Errorf("fusion should reduce time: %s vs %s", fProf.Total(), uProf.Total())
	}
}

func TestFusionStopsAtSharedValues(t *testing.T) {
	// The conv output feeds both a relu and a second consumer: nothing fuses.
	m := NewModel("shared")
	in := m.AddOperand("in", f32Type(1, 4, 4, 2), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{2, 1, 1, 2})
	wi := m.AddOperand("w", f32Type(2, 1, 1, 2), w)
	conv := m.AddOperand("conv", f32Type(1, 4, 4, 2), nil)
	act := m.AddOperand("act", f32Type(1, 4, 4, 2), nil)
	sum := m.AddOperand("sum", f32Type(1, 4, 4, 2), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{conv}, nil)
	m.AddOperation(ReLU, []int{conv}, []int{act}, nil)
	m.AddOperation(Add, []int{conv, act}, []int{sum}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{sum}
	if n := FuseOperations(m); n != 0 {
		t.Errorf("fused %d ops across a shared value", n)
	}
}

func TestFusionStopsAtModelOutputs(t *testing.T) {
	// The conv output is itself a model output: the relu must not fold.
	m := NewModel("outchain")
	in := m.AddOperand("in", f32Type(1, 4, 4, 2), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{2, 1, 1, 2})
	wi := m.AddOperand("w", f32Type(2, 1, 1, 2), w)
	conv := m.AddOperand("conv", f32Type(1, 4, 4, 2), nil)
	act := m.AddOperand("act", f32Type(1, 4, 4, 2), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{conv}, nil)
	m.AddOperation(ReLU, []int{conv}, []int{act}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{conv, act}
	if n := FuseOperations(m); n != 0 {
		t.Errorf("fused %d ops past a model output", n)
	}
}

func TestFusionClampMustBeRelu6(t *testing.T) {
	m := NewModel("clamp")
	in := m.AddOperand("in", f32Type(1, 4, 4, 2), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{2, 1, 1, 2})
	wi := m.AddOperand("w", f32Type(2, 1, 1, 2), w)
	conv := m.AddOperand("conv", f32Type(1, 4, 4, 2), nil)
	act := m.AddOperand("act", f32Type(1, 4, 4, 2), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{conv}, nil)
	m.AddOperation(Clamp, []int{conv}, []int{act}, relay.Attrs{"a_min": -1.0, "a_max": 1.0})
	m.Inputs = []int{in}
	m.Outputs = []int{act}
	if n := FuseOperations(m); n != 0 {
		t.Errorf("fused a non-relu6 clamp (%d)", n)
	}
}

func TestPlanReport(t *testing.T) {
	m := buildQuantConvChain(t)
	cm, err := Compile(m, soc.NewDimensity800(), []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatal(err)
	}
	rep := cm.PlanReport()
	for _, frag := range []string{"CONV_2D", "+relu6", "+requant", "est"} {
		if !contains(rep, frag) {
			t.Errorf("plan report missing %q:\n%s", frag, rep)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNewCompiledModelValidation(t *testing.T) {
	m := buildQuantConvChain(t)
	FuseOperations(m)
	sc := soc.NewDimensity800()
	// Plan length mismatch.
	if _, err := NewCompiledModel(m, sc, []soc.DeviceKind{soc.KindCPU},
		[]soc.DeviceKind{soc.KindCPU, soc.KindCPU}); err == nil {
		t.Error("plan length mismatch accepted")
	}
	// Plan placing an op on an unsupported device.
	m2 := NewModel("sig")
	in := m2.AddOperand("in", f32Type(4), nil)
	out := m2.AddOperand("out", f32Type(4), nil)
	m2.AddOperation(Logistic, []int{in}, []int{out}, nil)
	m2.Inputs = []int{in}
	m2.Outputs = []int{out}
	if _, err := NewCompiledModel(m2, sc, []soc.DeviceKind{soc.KindAPU},
		[]soc.DeviceKind{soc.KindAPU}); err == nil {
		t.Error("LOGISTIC-on-APU plan accepted")
	}
}
