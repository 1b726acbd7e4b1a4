package analysis

import (
	"testing"

	"repro/internal/neuron"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// tinyModel is a 3-op quantized chain: conv → logistic → softmax, with one
// weight constant. Logistic is in the APU's unsupported set, so a legal
// plan must place it on the CPU.
func tinyModel() *neuron.Model {
	m := neuron.NewModel("tiny")
	q := &tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
	ty := func(shape ...int) neuron.OperandType {
		return neuron.OperandType{Shape: tensor.Shape(shape), DType: tensor.UInt8, Quant: q}
	}
	in := m.AddOperand("in", ty(1, 8, 8, 4), nil)
	w := m.AddOperand("w", ty(4, 3, 3, 4), tensor.New(tensor.UInt8, tensor.Shape{4, 3, 3, 4}))
	m.Operands[w].Const.Quant = q
	conv := m.AddOperand("conv", ty(1, 8, 8, 4), nil)
	logi := m.AddOperand("logistic", ty(1, 8, 8, 4), nil)
	sm := m.AddOperand("softmax", ty(1, 8, 8, 4), nil)
	m.AddOperation(neuron.Conv2D, []int{in, w}, []int{conv}, nil)
	m.AddOperation(neuron.Logistic, []int{conv}, []int{logi}, nil)
	m.AddOperation(neuron.Softmax, []int{logi}, []int{sm}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{sm}
	return m
}

func cmWithPlan(t *testing.T, m *neuron.Model, devices, plan []soc.DeviceKind) *neuron.CompiledModel {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return &neuron.CompiledModel{
		Model:   m,
		SoC:     soc.NewDimensity800(),
		Devices: devices,
		Plan:    plan,
	}
}

func TestDeviceLegalityCompilerOutput(t *testing.T) {
	// The real Execution Planner's output must always audit clean.
	cm, err := neuron.Compile(tinyModel(), soc.NewDimensity800(),
		[]soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatal(err)
	}
	if res := DeviceLegality("tiny", cm); len(res.Diags) != 0 {
		t.Fatalf("compiler plan flagged: %v", res.Diags)
	}
}

func TestDeviceLegalityMutations(t *testing.T) {
	cpuAPU := []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	all := []soc.DeviceKind{soc.KindCPU, soc.KindGPU, soc.KindAPU}
	cases := []struct {
		name    string
		check   string
		devices []soc.DeviceKind
		plan    []soc.DeviceKind
	}{
		{
			"plan length mismatch", "plan-length",
			cpuAPU, []soc.DeviceKind{soc.KindCPU},
		},
		{
			"disabled device", "plan-device",
			[]soc.DeviceKind{soc.KindCPU},
			[]soc.DeviceKind{soc.KindCPU, soc.KindCPU, soc.KindAPU},
		},
		{
			"unsupported op on APU", "plan-unsupported",
			cpuAPU, []soc.DeviceKind{soc.KindAPU, soc.KindAPU, soc.KindAPU},
		},
		{
			"quantized work on the GPU delegate", "device-gpu-quantized",
			all, []soc.DeviceKind{soc.KindGPU, soc.KindCPU, soc.KindCPU},
		},
		{
			"direct APU to GPU hand-off", "device-indirect-transfer",
			all, []soc.DeviceKind{soc.KindAPU, soc.KindGPU, soc.KindCPU},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cm := cmWithPlan(t, tinyModel(), tc.devices, tc.plan)
			res := DeviceLegality("tiny", cm)
			if !res.Has(tc.check) {
				t.Fatalf("want %s, got: %v", tc.check, res.Diags)
			}
		})
	}
}

func TestDeviceLegalityIndirectTransferIsWarning(t *testing.T) {
	all := []soc.DeviceKind{soc.KindCPU, soc.KindGPU, soc.KindAPU}
	// APU conv feeding a GPU logistic: illegal link, but logistic's input
	// is quantized, so the GPU placement is also a hard error; check the
	// severities land as documented.
	cm := cmWithPlan(t, tinyModel(), all,
		[]soc.DeviceKind{soc.KindAPU, soc.KindGPU, soc.KindCPU})
	res := DeviceLegality("tiny", cm)
	for _, d := range res.Diags {
		if d.Check == "device-indirect-transfer" && d.Sev.String() != "warning" {
			t.Errorf("indirect transfer reported as %v, want warning", d.Sev)
		}
		if d.Check == "device-gpu-quantized" && d.Sev.String() != "error" {
			t.Errorf("gpu-quantized reported as %v, want error", d.Sev)
		}
	}
}
