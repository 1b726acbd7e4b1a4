package neuron

import (
	"strings"
	"testing"

	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

func f32Type(shape ...int) OperandType {
	return OperandType{Shape: tensor.Shape(shape), DType: tensor.Float32}
}

// buildTinyModel: input -> CONV_2D -> RELU -> output.
func buildTinyModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("tiny")
	in := m.AddOperand("data", f32Type(1, 8, 8, 3), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3})
	w.FillUniform(tensor.NewRNG(1), -0.5, 0.5)
	wi := m.AddOperand("w", f32Type(4, 3, 3, 3), w)
	conv := m.AddOperand("conv", f32Type(1, 8, 8, 4), nil)
	out := m.AddOperand("act", f32Type(1, 8, 8, 4), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{conv}, relay.Attrs{"padding": []int{1, 1}})
	m.AddOperation(ReLU, []int{conv}, []int{out}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	return m
}

func TestModelValidateOK(t *testing.T) {
	if err := buildTinyModel(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsQuantizedOperandWithoutParams(t *testing.T) {
	m := NewModel("bad")
	in := m.AddOperand("q", OperandType{Shape: tensor.Shape{4}, DType: tensor.UInt8}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{in}
	err := m.Validate()
	if err == nil {
		t.Fatal("quantized operand without params must be rejected")
	}
	if !strings.Contains(err.Error(), "tensor-oriented") {
		t.Errorf("error should explain the tensor-oriented invariant: %v", err)
	}
}

func TestValidateRejectsUseBeforeDef(t *testing.T) {
	m := NewModel("bad")
	in := m.AddOperand("in", f32Type(4), nil)
	mid := m.AddOperand("mid", f32Type(4), nil)
	out := m.AddOperand("out", f32Type(4), nil)
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	// Uses mid before it is produced.
	m.AddOperation(ReLU, []int{mid}, []int{out}, nil)
	m.AddOperation(ReLU, []int{in}, []int{mid}, nil)
	if err := m.Validate(); err == nil {
		t.Error("topological violation must be rejected")
	}
}

func TestValidateRejectsConstInput(t *testing.T) {
	m := NewModel("bad")
	c := m.AddOperand("c", f32Type(1), tensor.Scalar(1))
	m.Inputs = []int{c}
	m.Outputs = []int{c}
	if err := m.Validate(); err == nil {
		t.Error("constant model input must be rejected")
	}
}

func TestValidateRejectsWritingConst(t *testing.T) {
	m := NewModel("bad")
	in := m.AddOperand("in", f32Type(1), nil)
	c := m.AddOperand("c", f32Type(1), tensor.Scalar(1))
	m.Inputs = []int{in}
	m.Outputs = []int{c}
	m.AddOperation(ReLU, []int{in}, []int{c}, nil)
	if err := m.Validate(); err == nil {
		t.Error("writing a constant operand must be rejected")
	}
}

func TestSupportedOnSets(t *testing.T) {
	// CPU implements the whole catalogue.
	for c := OpCode(0); c < numOpCodes; c++ {
		if !SupportedOn(c, soc.KindCPU) {
			t.Errorf("%s should be CPU-supported", c)
		}
	}
	// APU gaps.
	for _, c := range []OpCode{Logistic, TanhOp, Transpose} {
		if SupportedOn(c, soc.KindAPU) {
			t.Errorf("%s should not be APU-supported", c)
		}
	}
	if !SupportedOn(Conv2D, soc.KindAPU) || !SupportedOn(Softmax, soc.KindAPU) {
		t.Error("conv2d/softmax must be APU-supported")
	}
	// GPU extension: float ops run, the quantization pipeline does not.
	if !SupportedOn(Conv2D, soc.KindGPU) || !SupportedOn(Logistic, soc.KindGPU) {
		t.Error("float ops must be GPU-supported (extension)")
	}
	for _, c := range []OpCode{Quantize, Dequantize, Requantize} {
		if SupportedOn(c, soc.KindGPU) {
			t.Errorf("%s must not be GPU-supported", c)
		}
	}
	if SupportedOn(numOpCodes, soc.KindCPU) {
		t.Error("unknown opcode must not be supported")
	}
}

func TestCompilePlansLargeConvOnAPU(t *testing.T) {
	// A mobile-scale conv should beat the APU overheads.
	m := NewModel("big")
	in := m.AddOperand("data", f32Type(1, 56, 56, 64), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{64, 3, 3, 64})
	wi := m.AddOperand("w", f32Type(64, 3, 3, 64), w)
	out := m.AddOperand("out", f32Type(1, 56, 56, 64), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{out}, relay.Attrs{"padding": []int{1, 1}})
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	sc := soc.NewDimensity800()
	cm, err := Compile(m, sc, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Plan[0] != soc.KindAPU {
		t.Errorf("56x56x64 conv planned on %s, want apu", cm.Plan[0])
	}
}

func TestCompileFailsOnEmptyDeviceIntersection(t *testing.T) {
	m := NewModel("sig")
	in := m.AddOperand("in", f32Type(4), nil)
	out := m.AddOperand("out", f32Type(4), nil)
	m.AddOperation(Logistic, []int{in}, []int{out}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	_, err := Compile(m, soc.NewDimensity800(), []soc.DeviceKind{soc.KindAPU})
	if err == nil {
		t.Fatal("LOGISTIC on APU-only must fail")
	}
	ue, ok := err.(*UnsupportedError)
	if !ok {
		t.Fatalf("want *UnsupportedError, got %T: %v", err, err)
	}
	if ue.Op != Logistic {
		t.Errorf("UnsupportedError.Op = %s", ue.Op)
	}
}

func TestExecuteTinyModel(t *testing.T) {
	m := buildTinyModel(t)
	sc := soc.NewDimensity800()
	cm, err := Compile(m, sc, []soc.DeviceKind{soc.KindCPU})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 3})
	in.FillUniform(tensor.NewRNG(2), -1, 1)
	outs, err := cm.Execute([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	prof := soc.NewProfile()
	cm.Estimate(prof)
	if len(outs) != 1 || !outs[0].Shape.Equal(tensor.Shape{1, 8, 8, 4}) {
		t.Fatalf("bad outputs: %v", outs)
	}
	for i := 0; i < outs[0].Elems(); i++ {
		if outs[0].GetF(i) < 0 {
			t.Fatal("relu output negative")
		}
	}
	// Operation fusion folds the ReLU into the convolution: one launch.
	if prof.Launches[soc.KindCPU] != 1 {
		t.Errorf("expected 1 CPU launch after fusion, got %d", prof.Launches[soc.KindCPU])
	}
}

func TestExecuteChargesDMAAcrossBoundary(t *testing.T) {
	// Conv on APU then Logistic (CPU-only) forces a crossing.
	m := NewModel("mix")
	in := m.AddOperand("data", f32Type(1, 56, 56, 64), nil)
	w := tensor.New(tensor.Float32, tensor.Shape{64, 3, 3, 64})
	wi := m.AddOperand("w", f32Type(64, 3, 3, 64), w)
	conv := m.AddOperand("conv", f32Type(1, 56, 56, 64), nil)
	out := m.AddOperand("out", f32Type(1, 56, 56, 64), nil)
	m.AddOperation(Conv2D, []int{in, wi}, []int{conv}, relay.Attrs{"padding": []int{1, 1}})
	m.AddOperation(Logistic, []int{conv}, []int{out}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	sc := soc.NewDimensity800()
	cm, err := Compile(m, sc, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatal(err)
	}
	prof := soc.NewProfile()
	if _, err := cm.Estimate(prof), error(nil); err != nil {
		t.Fatal(err)
	}
	if cm.Plan[0] != soc.KindAPU || cm.Plan[1] != soc.KindCPU {
		t.Fatalf("plan = %v, want [apu cpu]", cm.Plan)
	}
	if prof.DMATime <= 0 {
		t.Error("boundary crossing must charge DMA")
	}
}

func TestOpCodeStrings(t *testing.T) {
	if Conv2D.String() != "CONV_2D" || Requantize.String() != "REQUANTIZE" {
		t.Error("opcode names wrong")
	}
	if OpCode(999).String() != "OP_UNKNOWN" {
		t.Error("unknown opcode name")
	}
}

// An opcode without a row in the catalogue table would have the zero arity,
// which no operation satisfies.
func TestEveryOpCodeHasSignature(t *testing.T) {
	for _, c := range OpCodes() {
		if r := c.row(); r.minIn < 1 || (r.maxIn >= 0 && r.maxIn < r.minIn) {
			t.Errorf("%s: arity %d..%d", c, r.minIn, r.maxIn)
		}
	}
}

// TestOpTableRowsComplete checks every fact a catalogue row states: a unique
// NNAPI name, reference kernels (both numeric paths, and the fused launch
// where one is named) that exist in the TOPI inventory, and at least one
// device that runs the opcode.
func TestOpTableRowsComplete(t *testing.T) {
	inventory := map[string]bool{}
	for _, k := range topi.KernelNames() {
		inventory[k] = true
	}
	names := map[string]OpCode{}
	for _, c := range OpCodes() {
		r := c.row()
		if r.name == "" || r.name == unknownOp.name {
			t.Errorf("opcode %d has no name", int(c))
		}
		if prev, dup := names[r.name]; dup {
			t.Errorf("opcodes %d and %d share the name %s", int(prev), int(c), r.name)
		}
		names[r.name] = c
		for _, k := range []string{KernelFor(c, false), KernelFor(c, true)} {
			if !inventory[k] {
				t.Errorf("%s: reference kernel %q is not in the TOPI inventory", c, k)
			}
		}
		if r.fused != "" && (!inventory[r.fused] || r.qkernel == "") {
			t.Errorf("%s: fused kernel %q needs a registered kernel and an integer path to fuse", c, r.fused)
		}
		anyDev := false
		for _, d := range soc.AllDeviceKinds() {
			anyDev = anyDev || SupportedOn(c, d)
		}
		if !anyDev {
			t.Errorf("%s runs on no device", c)
		}
	}
	if len(names) != int(numOpCodes) {
		t.Errorf("%d named opcodes, catalogue has %d", len(names), int(numOpCodes))
	}
}
