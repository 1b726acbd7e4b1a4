package runtime

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/neuron"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// regionHarness wraps a compiled region in a one-node plan — the region's
// inputs are the graph inputs in0, in1, …, its outputs the graph outputs —
// and binds a plan state to it, so the region runs exactly as an external
// node of a built module does.
type regionHarness struct {
	st    *planState
	names []string
	in    map[string]*tensor.Tensor
	outs  []*tensor.Tensor
}

func newRegionHarness(t *testing.T, cm *neuron.CompiledModel) *regionHarness {
	t.Helper()
	h := &regionHarness{in: map[string]*tensor.Tensor{}, outs: make([]*tensor.Tensor, len(cm.Model.Outputs))}
	for i := range cm.Model.Inputs {
		h.names = append(h.names, fmt.Sprint("in", i))
	}
	var err error
	if h.st, err = newPlanState(regionNodePlan(cm, h.names), nil); err != nil {
		t.Fatal(err)
	}
	return h
}

// regionNodePlan is the one-node plan of a regionHarness, its graph inputs
// named names.
func regionNodePlan(cm *neuron.CompiledModel, names []string) *ExecPlan {
	b := newPlanBuilder(false)
	b.reset(nil)
	m := cm.Model
	for i, idx := range m.Inputs {
		s := b.addParam(m.Operands[idx].Type.Relay())
		b.slots[s].InputName = names[i]
		b.stack = append(b.stack, s)
	}
	outs := make([]int32, len(m.Outputs))
	for k, idx := range m.Outputs {
		outs[k] = b.addSlot(m.Operands[idx].Type.Relay())
	}
	b.addNode(planNode{kind: nodeExternal, label: m.Name, cm: cm}, 0, outs...)
	b.stack = append(b.stack, outs...)
	b.setOutputs()
	return b.finish()
}

// run binds inputs and runs the plan, returning its output views.
func (h *regionHarness) run(t *testing.T, inputs ...*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	for i, x := range inputs {
		h.in[h.names[i]] = x
	}
	if err := h.st.run(h.in); err != nil {
		t.Fatal(err)
	}
	p := h.st.plan
	for k, s := range p.ids(p.outputs) {
		h.outs[k] = h.st.slots[s]
	}
	return h.outs
}

// sameBits reports whether two tensors hold the same dtype, shape and bytes.
func sameBits(a, b *tensor.Tensor) bool {
	if a.DType != b.DType || !a.Shape.Equal(b.Shape) {
		return false
	}
	switch a.DType {
	case tensor.Float32:
		return slices.Equal(a.F32(), b.F32()) // NaN-free inputs: == is bitwise
	case tensor.Int32:
		return slices.Equal(a.I32(), b.I32())
	case tensor.UInt8:
		return slices.Equal(a.U8(), b.U8())
	case tensor.Int8:
		return slices.Equal(a.I8(), b.I8())
	}
	return false
}

func f32Operand(shape ...int) neuron.OperandType {
	return neuron.OperandType{Shape: tensor.Shape(shape), DType: tensor.Float32}
}

func qOperand(dt tensor.DType, q tensor.QuantParams, shape ...int) neuron.OperandType {
	return neuron.OperandType{Shape: tensor.Shape(shape), DType: dt, Quant: &q}
}

// randQuant fills a uint8 tensor of type ty with seeded raw values.
func randQuant(seed uint64, ty neuron.OperandType) *tensor.Tensor {
	x := tensor.New(ty.DType, ty.Shape)
	q := *ty.Quant
	x.Quant = &q
	rng := tensor.NewRNG(seed)
	for i := range x.U8() {
		x.U8()[i] = uint8(rng.Intn(256))
	}
	return x
}

func randF32(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(tensor.Float32, tensor.Shape(shape))
	x.FillUniform(tensor.NewRNG(seed), -2, 2)
	return x
}

// regionForm is a hand-built Neuron model whose compiled operation takes a
// lowering form no zoo model reaches, or reaches only in part.
type regionForm struct {
	name string
	// stages are the kernels neuron.Stages must give the model's first
	// operation after compile-time fusion.
	stages []string
	build  func() *neuron.Model
	input  func(seed uint64, m *neuron.Model) []*tensor.Tensor
}

var (
	qIn  = tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 3}
	qW   = tensor.QuantParams{Scale: 0.01, ZeroPoint: 128}
	qAcc = tensor.QuantParams{Scale: qIn.Scale * qW.Scale}
	qOut = tensor.QuantParams{Scale: 8.0 / 255, ZeroPoint: 120}
)

func quantInputs(seed uint64, m *neuron.Model) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, len(m.Inputs))
	for i, idx := range m.Inputs {
		ins[i] = randQuant(seed+uint64(i), m.Operands[idx].Type)
	}
	return ins
}

func f32Inputs(seed uint64, m *neuron.Model) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, len(m.Inputs))
	for i, idx := range m.Inputs {
		ins[i] = randF32(seed+uint64(i), m.Operands[idx].Type.Shape...)
	}
	return ins
}

// f32AddAct is ADD followed by the activation op act: the fusion pass
// stages the activation after the add.
func f32AddAct(act neuron.OpCode, attrs relay.Attrs) func() *neuron.Model {
	return func() *neuron.Model {
		m := neuron.NewModel("add-act")
		a := m.AddOperand("a", f32Operand(1, 5, 5, 8), nil)
		b := m.AddOperand("b", f32Operand(1, 5, 5, 8), nil)
		sum := m.AddOperand("sum", f32Operand(1, 5, 5, 8), nil)
		out := m.AddOperand("out", f32Operand(1, 5, 5, 8), nil)
		m.AddOperation(neuron.Add, []int{a, b}, []int{sum}, nil)
		m.AddOperation(act, []int{sum}, []int{out}, attrs)
		m.Inputs, m.Outputs = []int{a, b}, []int{out}
		return m
	}
}

var regionForms = []regionForm{
	{
		name:   "quantized conv with a bias and no requantize",
		stages: []string{"qnn.conv2d", "nn.bias_add"},
		build: func() *neuron.Model {
			m := neuron.NewModel("qconv-bias")
			in := m.AddOperand("in", qOperand(tensor.UInt8, qIn, 1, 7, 6, 3), nil)
			wt := qOperand(tensor.UInt8, qW, 5, 3, 3, 3)
			w := m.AddOperand("w", wt, randQuant(1, wt))
			bias := tensor.New(tensor.Int32, tensor.Shape{5})
			for i := range bias.I32() {
				bias.I32()[i] = int32(i*977 - 2000)
			}
			bi := m.AddOperand("b", qOperand(tensor.Int32, qAcc, 5), bias)
			acc := m.AddOperand("acc", qOperand(tensor.Int32, qAcc, 1, 7, 6, 5), nil)
			out := m.AddOperand("out", qOperand(tensor.Int32, qAcc, 1, 7, 6, 5), nil)
			m.AddOperation(neuron.Conv2D, []int{in, w}, []int{acc}, relay.Attrs{"padding": []int{1, 1},
				"input_scale": qIn.Scale, "input_zero_point": int(qIn.ZeroPoint),
				"kernel_scale": qW.Scale, "kernel_zero_point": int(qW.ZeroPoint)})
			m.AddOperation(neuron.BiasAdd, []int{acc, bi}, []int{out}, nil)
			m.Inputs, m.Outputs = []int{in}, []int{out}
			return m
		},
		input: quantInputs,
	},
	{
		name:   "quantized ADD that absorbed a requantize",
		stages: []string{"qnn.add", "qnn.requantize"},
		build: func() *neuron.Model {
			m := neuron.NewModel("qadd-requant")
			a := m.AddOperand("a", qOperand(tensor.UInt8, qIn, 1, 4, 4, 6), nil)
			b := m.AddOperand("b", qOperand(tensor.UInt8, qOut, 1, 4, 4, 6), nil)
			sum := m.AddOperand("sum", qOperand(tensor.Int32, tensor.QuantParams{Scale: qIn.Scale / 4}, 1, 4, 4, 6), nil)
			out := m.AddOperand("out", qOperand(tensor.UInt8, qOut, 1, 4, 4, 6), nil)
			m.AddOperation(neuron.Add, []int{a, b}, []int{sum}, relay.Attrs{
				"lhs_scale": qIn.Scale, "lhs_zero_point": int(qIn.ZeroPoint),
				"rhs_scale": qOut.Scale, "rhs_zero_point": int(qOut.ZeroPoint),
				"output_scale": qIn.Scale / 4, "output_zero_point": 0})
			m.AddOperation(neuron.Requantize, []int{sum}, []int{out}, relay.Attrs{
				"input_scale": qIn.Scale / 4, "input_zero_point": 0,
				"output_scale": qOut.Scale, "output_zero_point": int(qOut.ZeroPoint),
				"out_dtype": "uint8"})
			m.Inputs, m.Outputs = []int{a, b}, []int{out}
			return m
		},
		input: quantInputs,
	},
	{
		name:   "ADD + relu",
		stages: []string{"add", "nn.relu"},
		build:  f32AddAct(neuron.ReLU, nil),
		input:  f32Inputs,
	},
	{
		name:   "ADD + relu6",
		stages: []string{"add", "clip"},
		build:  f32AddAct(neuron.Clamp, relay.Attrs{"a_min": 0.0, "a_max": 6.0}),
		input:  f32Inputs,
	},
}

func compileCPU(t *testing.T, m *neuron.Model) *neuron.CompiledModel {
	t.Helper()
	cm, err := neuron.Compile(m, soc.NewDimensity800(), []soc.DeviceKind{soc.KindCPU})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestRegionLoweringForms: each staged lowering form the zoo does not reach
// — a split bias, a staged requantize — or reaches only as f32 ADD + relu,
// run as a planned region, equals the interpreter's evaluator (Execute) bit
// for bit on two inputs, and a warm run allocates nothing.
func TestRegionLoweringForms(t *testing.T) {
	for _, f := range regionForms {
		t.Run(f.name, func(t *testing.T) {
			cm := compileCPU(t, f.build())
			m := cm.Model
			if len(m.Operations) != 1 {
				t.Fatalf("fusion left %d operations, want 1", len(m.Operations))
			}
			stages, err := neuron.Stages(m, m.Operations[0])
			if err != nil {
				t.Fatal(err)
			}
			var kernels []string
			for _, s := range stages {
				kernels = append(kernels, s.Kernel)
			}
			if !slices.Equal(kernels, f.stages) {
				t.Fatalf("stages %v, want %v", kernels, f.stages)
			}
			h := newRegionHarness(t, cm)
			var ins []*tensor.Tensor
			for seed := uint64(1); seed <= 2; seed++ {
				ins = f.input(10*seed, m)
				got := h.run(t, ins...)
				want, err := cm.Execute(ins)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got[0], want[0]) {
					t.Errorf("seed %d: planned region differs from Execute by %g", seed, tensor.MaxAbsDiff(got[0], want[0]))
				}
				if seed == 1 && tensor.MaxAbsDiff(got[0], tensor.New(got[0].DType, got[0].Shape)) == 0 {
					t.Error("the output is all zero: the form's numerics are not exercised")
				}
			}
			if race.Enabled {
				return
			}
			if allocs := testing.AllocsPerRun(10, func() { h.run(t, ins...) }); allocs != 0 {
				t.Errorf("a warm region run allocates %v objects, want 0", allocs)
			}
		})
	}
}

// TestRegionOutputRouting covers each way a region output reaches its
// outer view: a stage writes it in place (output 0, also read by the next
// operation), and a passed-through input, a constant and a second listing
// of one operand are copied. The warm run allocates nothing.
func TestRegionOutputRouting(t *testing.T) {
	m := neuron.NewModel("outs")
	in := m.AddOperand("data", f32Operand(2, 3), nil)
	c := randF32(5, 2, 3)
	ci := m.AddOperand("c", f32Operand(2, 3), c)
	mid := m.AddOperand("sig", f32Operand(2, 3), nil)
	out := m.AddOperand("act", f32Operand(2, 3), nil)
	m.AddOperation(neuron.Logistic, []int{in}, []int{mid}, nil)
	m.AddOperation(neuron.ReLU, []int{mid}, []int{out}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{mid, out, in, ci, mid}
	cm := &neuron.CompiledModel{Model: m}
	h := newRegionHarness(t, cm)

	// The stages write outputs 0 and 1 straight into their outer views.
	sub := h.st.subs[0]
	sp := sub.plan
	p := h.st.plan
	outer, inner := p.ids(p.nodes[0].out), sp.ids(sp.outputs)
	for _, k := range []int{0, 1} {
		if sub.slots[inner[k]] != h.st.slots[outer[k]] {
			t.Errorf("output %d is not written into its outer view", k)
		}
	}
	data := tensor.New(tensor.Float32, tensor.Shape{2, 3})
	for seed := uint64(1); seed <= 2; seed++ {
		data.FillUniform(tensor.NewRNG(seed), -2, 2)
		outs := h.run(t, data)
		want, err := cm.Execute([]*tensor.Tensor{data})
		if err != nil {
			t.Fatal(err)
		}
		for k := range outs {
			if !sameBits(outs[k], want[k]) {
				t.Errorf("seed %d: output %d differs from Execute by %g", seed, k, tensor.MaxAbsDiff(outs[k], want[k]))
			}
		}
		// relu(sigmoid(x)) == sigmoid(x): outputs 0, 1 and 4 agree bitwise.
		for _, k := range []int{1, 4} {
			if !sameBits(outs[0], outs[k]) {
				t.Errorf("seed %d: output %d differs from output 0", seed, k)
			}
		}
		if !sameBits(outs[2], data) || !sameBits(outs[3], c) {
			t.Errorf("seed %d: the passed-through input or the constant was not copied out", seed)
		}
		for i := 0; i < outs[0].Elems(); i++ {
			if v := outs[0].GetF(i); v <= 0 || v >= 1 {
				t.Fatalf("seed %d: sigmoid output %g", seed, v)
			}
		}
	}
	if race.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(10, func() { h.run(t, data) }); allocs != 0 {
		t.Errorf("a warm region run allocates %v objects, want 0", allocs)
	}
}

// TestRegionFollowsRebindAndRefill: a region's launches are prepared once,
// from the operand types alone. Its CONV_2D — data, weight and bias all
// region inputs, a fused relu — run on one plan state equals Execute, bit
// for bit, when a different data tensor of the same shape is bound, and
// again when the weight and bias bound before are refilled in place:
// nothing derived from the first run's weight or bias may be kept.
func TestRegionFollowsRebindAndRefill(t *testing.T) {
	m := neuron.NewModel("rebind")
	in := m.AddOperand("data", f32Operand(1, 6, 7, 3), nil)
	wi := m.AddOperand("w", f32Operand(8, 3, 3, 3), nil)
	bi := m.AddOperand("b", f32Operand(8), nil)
	out := m.AddOperand("out", f32Operand(1, 6, 7, 8), nil)
	m.AddOperation(neuron.Conv2D, []int{in, wi, bi}, []int{out}, relay.Attrs{"padding": []int{1, 1}, neuron.FusedActivationAttr: "relu"})
	m.Inputs = []int{in, wi, bi}
	m.Outputs = []int{out}
	cm := &neuron.CompiledModel{Model: m}
	h := newRegionHarness(t, cm)
	if h.st.preparedBytes() == 0 {
		t.Fatal("the convolution prepared no offset table")
	}
	x := tensor.New(tensor.Float32, tensor.Shape{1, 6, 7, 3})
	w, b := randF32(1, 8, 3, 3, 3), randF32(2, 8)
	for run, step := range []string{"first", "rebound data", "refilled weight and bias"} {
		switch run {
		case 1:
			x = tensor.New(tensor.Float32, x.Shape)
		case 2:
			w.FillUniform(tensor.NewRNG(3), -1, 1)
			b.FillUniform(tensor.NewRNG(4), -1, 1)
		}
		x.FillUniform(tensor.NewRNG(uint64(10+run)), -1, 1)
		got := h.run(t, x, w, b)
		want, err := cm.Execute([]*tensor.Tensor{x.Clone(), w.Clone(), b.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got[0], want[0]) {
			t.Errorf("%s: the planned region differs from Execute by %g", step, tensor.MaxAbsDiff(got[0], want[0]))
		}
	}
}

// TestRegionGateCatchesSharedStorage: the gate newPlanState puts a lowered
// region through rejects a sub-plan in which two simultaneously live slots
// are given one storage.
func TestRegionGateCatchesSharedStorage(t *testing.T) {
	// sigmoid(x) and tanh(x) are live together until their sum reads both.
	m := neuron.NewModel("two-live")
	in := m.AddOperand("x", f32Operand(4, 4), nil)
	s := m.AddOperand("s", f32Operand(4, 4), nil)
	th := m.AddOperand("t", f32Operand(4, 4), nil)
	out := m.AddOperand("out", f32Operand(4, 4), nil)
	m.AddOperation(neuron.Logistic, []int{in}, []int{s}, nil)
	m.AddOperation(neuron.TanhOp, []int{in}, []int{th}, nil)
	m.AddOperation(neuron.Add, []int{s, th}, []int{out}, nil)
	m.Inputs, m.Outputs = []int{in}, []int{out}
	sp, err := LowerRegion(&neuron.CompiledModel{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRegion(sp); err != nil {
		t.Fatalf("the lowered region fails its gate: %v", err)
	}
	a, b := sp.index[sp.nodes[0].out.lo], sp.index[sp.nodes[1].out.lo]
	if sp.slots[a].Storage == sp.slots[b].Storage {
		t.Fatal("the planner already shares one storage between two live slots")
	}
	sp.slots[b].Storage = sp.slots[a].Storage
	err = checkRegion(sp)
	if err == nil || !strings.Contains(err.Error(), "plan-storage-alias") {
		t.Errorf("two live slots on one storage: gate says %v, want a plan-storage-alias error", err)
	}
}

// TestRegionRefusesOtherTypes: a plan state refuses a region whose inputs
// or outputs are not the tensors its node passes and expects — the case of
// an artifact whose region and graph disagree.
func TestRegionRefusesOtherTypes(t *testing.T) {
	m := neuron.NewModel("relu")
	in := m.AddOperand("x", f32Operand(2, 3), nil)
	out := m.AddOperand("y", f32Operand(2, 3), nil)
	m.AddOperation(neuron.ReLU, []int{in}, []int{out}, nil)
	m.Inputs, m.Outputs = []int{in}, []int{out}
	cm := &neuron.CompiledModel{Model: m}
	for _, slot := range []int{0, 1} { // the graph input, the node's result
		p := regionNodePlan(cm, []string{"in0"})
		p.slots[slot].Type = relay.TType(tensor.Float32, 3, 2)
		if _, err := newPlanState(p, nil); err == nil || !strings.Contains(err.Error(), "not the tensors") {
			t.Errorf("slot %d retyped: newPlanState says %v, want a type mismatch", slot, err)
		}
	}
}
